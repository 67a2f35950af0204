"""Tests for chain generation, fusion, growth and the imperfection model."""

import math
import re
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import reference_tables
from conftest import end_qubit_to_photon

from cavitycluster.dynamics import (
    ION_PARAMS,
    RB_PARAMS,
    PhysicalParams,
    event_probabilities,
    wavepacket_overlap,
)
from cavitycluster.hilbert import (
    AtomLevel,
    BasisLabel,
    PhotonMode,
    SparseHybridState,
    StateError,
    apply_local_unitary,
    inner_product,
    tensor,
    tensor_all,
    HADAMARD,
)
from cavitycluster.optics import correction_table, parity_check_network, run_network
from cavitycluster import optics, protocol as pr
from cavitycluster.protocol import (
    CavityError,
    ChainState,
    IDEAL_MODEL,
    ImperfectionModel,
    RoundSampler,
    build_linear_cluster,
    build_four_qubit_target,
    build_fused_six_state,
    emitted_pair_state,
    check_growth,
    expected_growth_counts,
    fuse,
    grow_chain,
    hadamard_ends,
    loss_scaling_comparison,
    run_generation_round,
    run_generation_rounds,
)


def amp(chain, levels):
    return chain.state.terms.get(BasisLabel.make(levels), 0.0)


def test_emitted_pair_is_maximally_entangled():
    s = emitted_pair_state(1, None)
    assert s.norm2() == pytest.approx(1.0, abs=1e-12)
    assert len(s.terms) == 2  # |g>|L> + |e>|R>
    for label in s.terms:
        assert sum(c for _, c in label.occ) == 1


def test_four_qubit_target_amplitudes():
    chain = build_four_qubit_target()
    expect = {
        ("g", "g", "g", "g"): 0.5,
        ("e", "e", "g", "g"): 0.5,
        ("g", "g", "e", "e"): 0.5,
        ("e", "e", "e", "e"): -0.5,
    }
    for levels, a in expect.items():
        assert amp(chain, levels) == pytest.approx(a, abs=1e-12)
    assert chain.state.norm2() == pytest.approx(1.0, abs=1e-12)


def test_briegel_cluster_signs():
    chain = build_linear_cluster(3)
    # sign flips once per adjacent pair of excited atoms
    assert amp(chain, ("e", "e", "g")) == pytest.approx(-amp(chain, ("g", "g", "g")))
    assert amp(chain, ("e", "e", "e")) == pytest.approx(amp(chain, ("g", "g", "g")))
    assert chain.state.norm2() == pytest.approx(1.0, abs=1e-12)


def test_target_equals_cluster_after_end_hadamards():
    rotated = hadamard_ends(build_four_qubit_target())
    cluster = build_linear_cluster(4)
    overlap = abs(inner_product(rotated.state, cluster.state))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_ideal_generation_round():
    table = run_generation_round(IDEAL_MODEL)
    assert table.network_acceptance == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert table.emission_joint == pytest.approx(1.0, abs=1e-12)
    assert table.acceptance == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert table.mean_corrected_fidelity == pytest.approx(1.0, abs=1e-12)
    assert sum(e.probability for e in table.entries) == pytest.approx(1.0, abs=1e-12)


def test_cavity_model_scales_acceptance():
    model = ImperfectionModel(cavity_params=(RB_PARAMS,) * 4)
    table = run_generation_round(model)
    leak = table.per_cavity_leak[0]
    assert leak == pytest.approx(0.4358353510895884, abs=1e-9)
    assert table.emission_joint == pytest.approx(leak ** 4, abs=1e-12)
    assert table.acceptance == pytest.approx(leak ** 4 / 8.0, abs=1e-12)
    assert table.mean_corrected_fidelity == pytest.approx(1.0, abs=1e-9)


def test_mismatched_cavities_reduce_fidelity():
    detuned = PhysicalParams(h=RB_PARAMS.h * 1.2, kappa=RB_PARAMS.kappa,
                             gamma=RB_PARAMS.gamma)
    model = ImperfectionModel(cavity_params=(RB_PARAMS, detuned, RB_PARAMS,
                                             RB_PARAMS))
    table = run_generation_round(model)
    assert table.mean_corrected_fidelity < 1.0 - 1e-6
    assert table.mean_corrected_fidelity > 0.5


# four distinct cavities: every pair of photons partly distinguishable
DISTINCT = (RB_PARAMS, PhysicalParams(RB_PARAMS.h * 1.2, RB_PARAMS.kappa, RB_PARAMS.gamma),
            PhysicalParams(RB_PARAMS.h, RB_PARAMS.kappa * 1.25, RB_PARAMS.gamma),
            PhysicalParams(RB_PARAMS.h, RB_PARAMS.kappa, RB_PARAMS.gamma * 0.8))


def test_overlaps_are_none_for_equal_or_unset_cavities():
    assert IDEAL_MODEL.overlaps(4) is None
    assert IDEAL_MODEL.overlaps(2) is None
    assert ImperfectionModel(cavity_params=(RB_PARAMS,) * 4).overlaps(4) is None
    # only the first n cavities count: the fusion's two sources are equal here
    model = ImperfectionModel(cavity_params=(RB_PARAMS,) * 2 + DISTINCT[2:])
    assert model.overlaps(2) is None
    assert model.overlaps(4) is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_overlaps_are_hermitian_with_the_closed_form_above_the_diagonal(n):
    m = ImperfectionModel(cavity_params=DISTINCT).overlaps(n)
    assert m.shape == (n, n)
    assert np.array_equal(m, m.conj().T)
    assert all(m[i, i] == 1.0 for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            assert m[i, j] == wavepacket_overlap(DISTINCT[i], DISTINCT[j])
            assert 0.0 < abs(m[i, j]) < 1.0


@pytest.mark.parametrize("silent", [PhysicalParams(0.0, RB_PARAMS.kappa, RB_PARAMS.gamma),
                                    PhysicalParams(RB_PARAMS.h, 0.0, RB_PARAMS.gamma)])
def test_overlaps_name_a_cavity_that_never_emits(silent):
    model = ImperfectionModel(cavity_params=(RB_PARAMS, RB_PARAMS, silent, RB_PARAMS))
    assert model.overlaps(2) is None
    with pytest.raises(CavityError, match="cavities/2 never emits"):
        model.overlaps(4)
    with pytest.raises(CavityError, match="cavities/2 never emits"):
        run_generation_round(model)
    # with every cavity silent the photons are alike, and no overlap is needed
    assert ImperfectionModel(cavity_params=(silent,) * 4).overlaps(4) is None


def test_fusion_target_amplitudes():
    chain = build_fused_six_state()
    root = 1.0 / (2.0 * np.sqrt(2.0))
    expect = {
        ("g",) * 6: root,
        ("e", "e", "g", "g", "g", "g"): root,
        ("g", "g", "e", "e", "g", "g"): root,
        ("g", "g", "g", "g", "e", "e"): root,
        ("e", "e", "e", "e", "g", "g"): -root,
        ("e", "e", "g", "g", "e", "e"): root,
        ("g", "g", "e", "e", "e", "e"): -root,
        ("e", "e", "e", "e", "e", "e"): root,
    }
    assert len(chain.state.terms) == 8
    for levels, a in expect.items():
        assert amp(chain, levels) == pytest.approx(a, abs=1e-12)


def test_fusion_of_two_ideal_chains():
    a = build_four_qubit_target()
    b = ChainState(tuple(i + 4 for i in a.atom_ids), a.state)
    result = fuse(a, b)
    assert result.acceptance == pytest.approx(0.5, abs=1e-12)
    assert result.fused_length == 6
    assert result.mean_corrected_fidelity == pytest.approx(1.0, abs=1e-12)
    merged = result.target
    assert len(merged.atom_ids) == 6
    assert abs(inner_product(merged.state, build_fused_six_state().state)) \
        == pytest.approx(1.0, abs=1e-12)


def test_fusion_patterns_uniform():
    a = build_four_qubit_target()
    b = ChainState(tuple(i + 4 for i in a.atom_ids), a.state)
    result = fuse(a, b)
    accepted = [e for e in result.entries if e.accepted]
    assert len(accepted) == 4
    for e in accepted:
        assert e.probability == pytest.approx(1.0 / 8.0, abs=1e-12)


def _four_plus_four():
    a = build_four_qubit_target()
    return a, ChainState(tuple(i + 4 for i in a.atom_ids), a.state)


def _count_stage_builds(monkeypatch):
    """Clear the fusion memos and count ``optics.run_network`` and
    ``optics.propagate`` calls from here on."""
    pr._fusion_instrument.cache_clear()
    pr._fusion_layout.cache_clear()
    calls = {"run_network": 0, "propagate": 0}

    def counted(name):
        real = getattr(optics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(optics, name, wrapper)

    for name in calls:
        counted(name)
    return calls


def _builds():
    return pr._fusion_instrument.cache_info().misses, pr._fusion_layout.cache_info().misses


RB_MODEL = ImperfectionModel(cavity_params=(RB_PARAMS,) * 4)


def test_fusion_with_ideal_optics_reuses_its_network_run(monkeypatch):
    # Rb cavities are equal and their detectors ideal: the same instrument
    # and click layout as the ideal fusion, so nothing is built again
    calls = _count_stage_builds(monkeypatch)
    ideal = fuse(*_four_plus_four())
    result = fuse(*_four_plus_four(), RB_MODEL)
    assert calls == {"run_network": 0, "propagate": 1} and _builds() == (1, 1)
    assert result.target.state.terms == ideal.target.state.terms
    assert [(e.pattern, e.correction, e.corrected_fidelity) for e in result.entries] \
        == [(e.pattern, e.correction, e.corrected_fidelity) for e in ideal.entries]


@pytest.mark.parametrize("model", [
    RB_MODEL,
    ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, dark_rate_hz=100.0),
    ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, rail_transmission=0.9,
                      detector_efficiency=0.9, dark_rate_hz=100.0),
    ImperfectionModel(cavity_params=(RB_PARAMS, PhysicalParams(
        RB_PARAMS.h * 1.2, RB_PARAMS.kappa, RB_PARAMS.gamma), RB_PARAMS, RB_PARAMS)),
], ids=["rb", "rb-dark-100hz", "loss-dark-100hz", "cavity-1-h-x1.2"])
def test_fusion_runs_its_network_once(monkeypatch, model):
    # the network runs on the two end qubits alone, once per key, and never
    # on the chains' joint state; a second fusion of the same chains reads
    # both memos and builds nothing
    calls = _count_stage_builds(monkeypatch)
    first = fuse(*_four_plus_four(), model)
    assert calls == {"run_network": 0, "propagate": 1} and _builds() == (1, 1)
    second = fuse(*_four_plus_four(), model)
    assert calls == {"run_network": 0, "propagate": 1} and _builds() == (1, 1)
    assert not any(a is b for a, b in zip(first.entries, second.entries))
    assert reference_tables.table_record(first.entries, first.acceptance,
                                         first.mean_corrected_fidelity) \
        == reference_tables.table_record(second.entries, second.acceptance,
                                         second.mean_corrected_fidelity)


@pytest.mark.parametrize("levels, occ", [
    ((AtomLevel.G, AtomLevel.ALPHA), {}),
    ((AtomLevel.G, AtomLevel.G), {PhotonMode(7, "H"): 1}),
], ids=["ancilla-end", "photon"])
def test_fusion_refuses_chains_it_cannot_fuse_on_every_call(levels, occ):
    # an end atom outside the qubit pair has no photon to become, and a
    # chain's own photon would be dropped from the fused labels
    odd = ChainState((0, 1), SparseHybridState(2, frozenset({7}),
                                               {BasisLabel.make(levels, occ): 1.0}))
    for _ in range(2):
        with pytest.raises(StateError, match="qubit end levels and chains without photons"):
            fuse(odd, build_four_qubit_target())


def network_fused_target(chain_a, chain_b):
    """The fused target as the ideal parity check heralds it: the end qubits
    mapped to untagged photons, their atoms removed, the ideal network run and
    its accepted all-D branch, normalized."""
    end_a = chain_a.length - 1
    joint = tensor(chain_a.state, chain_b.state)
    joint = end_qubit_to_photon(end_qubit_to_photon(joint, end_a, 1, None), end_a, 2, None)
    all_d = next(e for e in run_network(joint, parity_check_network())
                 if e.accepted and all(r.outcome == "D" for r in e.pattern))
    return all_d.post_state.branches[0][1].normalized()


def random_qubit_chain(seed, n):
    """A seeded random state of ``n`` atoms in the qubit levels, complex amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    levels = [tuple(AtomLevel.E if (bits >> (n - 1 - i)) & 1 else AtomLevel.G
                    for i in range(n)) for bits in range(2 ** n)]
    terms = {BasisLabel.make(lv): complex(a) for lv, a in zip(levels, amps)}
    return ChainState(tuple(range(n)), SparseHybridState(n, frozenset(), terms))


FUSION_INPUTS = [
    pytest.param(lambda: (build_four_qubit_target(),) * 2, id="4+4"),
    pytest.param(lambda: (build_fused_six_state(), build_four_qubit_target()), id="6+4"),
    pytest.param(lambda: (build_linear_cluster(4),) * 2, id="linear-cluster-4+4"),
    pytest.param(lambda: (hadamard_ends(build_four_qubit_target()),) * 2,
                 id="hadamard-ends-4+4"),
] + [pytest.param(lambda seed=seed, na=na, nb=nb: (random_qubit_chain(seed, na),
                                                   random_qubit_chain(seed + 100, nb)),
                  id=f"random-{na}+{nb}-seed-{seed}")
     for seed, (na, nb) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)])]


@pytest.mark.parametrize("chains", FUSION_INPUTS)
def test_fused_target_is_the_bell_projection_the_network_heralds(chains):
    chain_a, chain_b = chains()
    got = fuse(chain_a, chain_b).target.state.terms
    want = network_fused_target(chain_a, chain_b).terms
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-15


def sparse_fusion_record(chain_a, chain_b, model):
    """``reference_tables.table_record`` of the sparse fusion path: both end
    qubits mapped to photons in the chains' joint state, the network run on
    all of its terms, and the target projected from them term by term."""
    overlaps = model.overlaps(2)
    src_a, src_b = (None, None) if overlaps is None else (0, 1)
    end_a, first_b = chain_a.length - 1, chain_a.length
    joint = tensor(chain_a.state, chain_b.state)
    photons = end_qubit_to_photon(end_qubit_to_photon(joint, end_a, 1, src_a), end_a, 2, src_b)
    entries = run_network(photons, pr.fusion_network(model), overlaps=overlaps)
    projected = {}
    for label, amp in joint.terms.items():
        if label.atoms[end_a] is label.atoms[first_b]:
            key = BasisLabel(label.atoms[:end_a] + label.atoms[first_b + 1:], label.occ)
            projected[key] = projected.get(key, 0.0) + amp
    target = SparseHybridState(joint.n_atoms - 2, joint.rails, projected, prune_eps=0.0)
    acceptance, mean_fid = correction_table(entries, target.normalized())
    return reference_tables.table_record(entries, acceptance, mean_fid)


H_X12 = (RB_PARAMS, PhysicalParams(RB_PARAMS.h * 1.2, RB_PARAMS.kappa, RB_PARAMS.gamma),
         RB_PARAMS, RB_PARAMS)
FUSION_MODELS = {
    "ideal": IDEAL_MODEL,
    "rb": RB_MODEL,
    "rb-100hz": ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, dark_rate_hz=100.0),
    "loss-dark-100hz": ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, rail_transmission=0.9,
                                         detector_efficiency=0.9, dark_rate_hz=100.0),
    "cavity-1-h-x1.2": ImperfectionModel(cavity_params=H_X12),
    "cavity-1-h-x1.2-loss-dark-10khz": ImperfectionModel(
        cavity_params=H_X12, rail_transmission=0.9, detector_efficiency=0.8, dark_rate_hz=1e4),
}


@pytest.mark.parametrize("model", list(FUSION_MODELS.values()), ids=list(FUSION_MODELS))
@pytest.mark.parametrize("chains", FUSION_INPUTS)
def test_fusion_instrument_matches_the_sparse_network_run(chains, model):
    # the instrument multiplies each joint amplitude by the product of the
    # plates' factors, where the joint run multiplied them one plate at a
    # time: chains of four-qubit targets keep every bit, others stay within
    # the reference tables' tolerances
    chain_a, chain_b = chains()
    result = fuse(chain_a, chain_b, model)
    got = reference_tables.table_record(result.entries, result.acceptance,
                                        result.mean_corrected_fidelity)
    want = sparse_fusion_record(chain_a, chain_b, model)
    if chain_b.state.terms == build_four_qubit_target().state.terms:
        assert got == want
    scalar_dev, rho_dev = reference_tables.deviations(got, want)
    assert scalar_dev <= reference_tables.SCALAR_TOL and rho_dev <= reference_tables.RHO_TOL


def test_bell_pair_is_the_parity_check_target():
    pair = pr.build_bell_pair()
    assert pair.atom_ids == (0, 1)
    assert {"".join(a.value for a in label.atoms): a
            for label, a in pair.state.terms.items()} == {"gg": 1 / math.sqrt(2),
                                                          "ee": 1 / math.sqrt(2)}


def test_round_sampler_matches_exact_acceptance():
    sampler = RoundSampler(IDEAL_MODEL)
    rng = np.random.default_rng(42)
    acc = sampler.sample_acceptances(rng, 40000)
    freq = acc.mean()
    sigma = np.sqrt((1 / 8) * (7 / 8) / acc.size)
    assert abs(freq - 1 / 8) < 4 * sigma


def test_sample_acceptances_draw_one_uniform_per_round():
    sampler = RoundSampler(RB_MODEL)
    for seed, n in ((5, 5000), (6, 1), (7, 0)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampler.sample_acceptances(rng, n)
        assert got.dtype == bool
        assert np.array_equal(got, ref.random(n) < sampler.table.acceptance)
        # the generator is left exactly n uniforms along
        assert rng.random() == ref.random()


@pytest.mark.parametrize("acceptance", [float("nan"), -0.5, 1.5])
def test_round_sampler_checks_its_acceptance_once(monkeypatch, acceptance):
    monkeypatch.setattr(pr, "run_generation_round",
                        lambda model: SimpleNamespace(acceptance=acceptance))
    with pytest.raises(ValueError, match=re.escape(
            f"round acceptance {acceptance} is NaN or outside [0, 1]")):
        RoundSampler(IDEAL_MODEL)


def test_grow_chain_reaches_target():
    rng = np.random.default_rng(31)
    stats = grow_chain(8, 1 / 8, 0.5, rng)
    assert stats.fusion_attempts >= 1
    assert stats.generation_rounds >= stats.fusion_attempts
    # two fusions of fresh blocks take a four-chain to length 8
    block = build_four_qubit_target()
    result = fuse(fuse(block, block).target, block)
    assert result.fused_length == 8
    assert result.target.length == 8


def test_grow_chain_block_rounds_are_geometric():
    # a length-4 target is one heralded block: rounds ~ Geometric(p_gen)
    p_gen, trials = 0.2, 4000
    rng = np.random.default_rng(77)
    rounds = [grow_chain(4, p_gen, 0.0, rng).generation_rounds
              for _ in range(trials)]
    sigma = np.sqrt((1 - p_gen) / trials) / p_gen
    assert abs(np.mean(rounds) - 1 / p_gen) < 4 * sigma


def scalar_grow_chain(target_n, p_gen, p_fuse, rng):
    """Reference: the growth chain with one ``rng.random()`` per generation
    round and per fusion attempt."""
    rounds = fusions = restarts = 0

    def make_block():
        nonlocal rounds
        rounds += 1
        while rng.random() >= p_gen:
            rounds += 1

    make_block()
    length = 4
    while length < target_n:
        make_block()
        fusions += 1
        if rng.random() < p_fuse:
            length += 2
        else:
            length -= 1
            if length < 2:
                restarts += 1
                make_block()
                length = 4
    return pr.GrowthStats(target_n, rounds, fusions, restarts)


class CountingRng:
    """A generator that counts its ``geometric`` and ``random`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {"geometric": 0, "random": 0}

    def geometric(self, p):
        self.calls["geometric"] += 1
        return self.rng.geometric(p)

    def random(self):
        self.calls["random"] += 1
        return self.rng.random()


def test_grow_chain_draws_once_per_block_and_once_per_attempt():
    rng = CountingRng(5)
    for args in [(4, 0.3, 0.5), (6, 0.2, 1.0), (10, 0.05, 0.4), (12, 0.5, 0.2)]:
        before = dict(rng.calls)
        got = grow_chain(*args, rng)
        assert all(type(v) is int for v in vars(got).values())
        blocks = 1 + got.fusion_attempts + got.chain_restarts
        assert rng.calls["geometric"] - before["geometric"] == blocks
        assert rng.calls["random"] - before["random"] == got.fusion_attempts
        assert got.generation_rounds >= blocks


@pytest.mark.parametrize("target_n, p_gen, p_fuse", [(6, 0.3, 0.7), (10, 0.1, 0.5),
                                                     (12, 0.4, 0.3)])
def test_grow_chain_matches_the_one_uniform_per_round_reference(target_n, p_gen, p_fuse):
    # two independent samples of the same chain: the geometric block draw
    # and the scalar loop agree in mean rounds and attempts within 4 sigma
    trials = 2000
    fast, ref = np.random.default_rng(61), np.random.default_rng(62)
    got = np.array([[s.generation_rounds, s.fusion_attempts] for s in
                    (grow_chain(target_n, p_gen, p_fuse, fast) for _ in range(trials))])
    want = np.array([[s.generation_rounds, s.fusion_attempts] for s in
                     (scalar_grow_chain(target_n, p_gen, p_fuse, ref)
                      for _ in range(trials))])
    sigma = np.sqrt((got.var(axis=0, ddof=1) + want.var(axis=0, ddof=1)) / trials)
    assert np.all(np.abs(got.mean(axis=0) - want.mean(axis=0)) < 4 * sigma)


def test_grow_chain_refuses_a_p_gen_below_its_floor():
    # numpy's geometric saturates at 2^63 - 1 below about 4e-18
    rng = np.random.default_rng(3)
    for p_gen in (1e-16, 1e-20):
        with pytest.raises(ValueError, match="floor"):
            grow_chain(4, p_gen, 0.5, rng)
        with pytest.raises(ValueError, match="floor"):
            check_growth(6, p_gen, 0.5)
    rounds = grow_chain(4, 1e-15, 0.5, rng).generation_rounds
    assert 1e12 < rounds < 2 ** 62


def test_grow_chain_rejects_a_zero_stage():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        grow_chain(4, 0.0, 0.5, rng)
    with pytest.raises(ValueError):
        grow_chain(6, 0.5, 0.0, rng)
    with pytest.raises(ValueError):
        grow_chain(4, float("nan"), 0.5, rng)
    with pytest.raises(ValueError):
        grow_chain(6, 0.5, float("nan"), rng)
    assert grow_chain(4, 0.5, 0.0, rng).fusion_attempts == 0


def test_grow_chain_certain_fusion_fuses_once():
    rng = np.random.default_rng(78)
    for _ in range(200):
        stats = grow_chain(6, 0.3, 1.0, rng)
        assert stats.fusion_attempts == 1
        assert stats.chain_restarts == 0
        assert stats.generation_rounds >= 2


def dense_growth_counts(target_n, p_fuse):
    """Reference: the growth chain's linear system over lengths 0 ... target_n + 1
    (row 0 unused), solved densely for blocks and attempts at once."""
    size = target_n + 2
    a = np.eye(size)
    rhs = np.zeros((size, 2))
    a[1, 4] -= 1.0  # a restart builds a block and starts again at length 4
    rhs[1] = 1.0, 0.0
    for length in range(2, target_n):
        a[length, length + 2] -= p_fuse
        a[length, length - 1] -= 1.0 - p_fuse
        rhs[length] = 1.0, 1.0
    return np.linalg.solve(a, rhs)[1]


# (target, p_gen, p_fuse, expected rounds plus attempts)
GROWTH_CASES = [(10, 0.01, 0.5, 1234.47), (10, 0.2, 0.3, 261.11), (12, 0.05, 0.25, 3316.73)]


@pytest.mark.parametrize("target_n, p_gen, p_fuse, mean", GROWTH_CASES)
def test_expected_growth_counts_match_sampled_means(target_n, p_gen, p_fuse, mean):
    blocks, attempts = expected_growth_counts(target_n, p_fuse)
    # by Wald's identity a trial's expected rounds are blocks / p_gen
    assert blocks / p_gen + attempts == pytest.approx(mean, abs=0.005)
    assert [blocks, attempts] == pytest.approx(dense_growth_counts(target_n, p_fuse),
                                               rel=1e-12)
    rng = np.random.default_rng(target_n)
    got = np.array([[s.generation_rounds, s.fusion_attempts]
                    for s in (grow_chain(target_n, p_gen, p_fuse, rng)
                              for _ in range(1000))])
    sigma = got.std(axis=0, ddof=1) / np.sqrt(len(got))
    assert np.all(np.abs(got.mean(axis=0) - [blocks / p_gen, attempts]) < 4 * sigma)


def test_expected_growth_counts_edge_cases():
    # a length-4 target is one block; a certain fusion never fails
    assert expected_growth_counts(4, 0.0) == (1.0, 0.0)
    assert expected_growth_counts(8, 1.0) == (3.0, 2.0)
    # p_fuse < 1/3 makes the cost grow exponentially with length
    assert sum(expected_growth_counts(20, 0.125)) == pytest.approx(4.288e6, rel=1e-3)
    for bad in ((6, 0.0), (5, 0.5), (6, float("nan")), (2, 0.5)):
        with pytest.raises(ValueError):
            expected_growth_counts(*bad)


def rational_growth_counts(target_n, p_fuse):
    """Reference: the top-down elimination in exact rationals, V(L) = a + b V(L - 1)."""
    p = Fraction(p_fuse)
    rows = {}
    a1 = a2 = b1 = b2 = Fraction(0)
    for length in range(target_n - 1, 1, -1):
        d = 1 - p * b2 * b1
        a, b = (1 + p * (a2 + b2 * a1)) / d, (1 - p) / d
        rows[length] = a, b
        a1, b1, a2, b2 = a, b, a1, b1
    (a4, b4), (a3, b3), (a2, b2) = rows[4], rows[3], rows[2]
    steps = a4 + b4 * a3 + b4 * b3 * a2
    den = 1 - b4 * b3 * b2
    return (1 + steps) / den, steps / den


@pytest.mark.parametrize("target_n, p_fuse", [(40, 0.125), (80, 0.125), (80, 0.18)])
def test_expected_growth_counts_stay_accurate_down_long_chains(target_n, p_fuse):
    # in floats the reduced coefficients b_L round to exactly 1 by length 80:
    # the solve must neither divide by zero nor lose the cost to cancellation
    counts = expected_growth_counts(target_n, p_fuse)
    assert sum(counts) > 1e13
    want = [float(x) for x in rational_growth_counts(target_n, p_fuse)]
    assert list(counts) == pytest.approx(want, rel=1e-12)


def test_expected_growth_counts_beyond_the_float_range_are_inf():
    assert expected_growth_counts(2000, 0.125) == (math.inf, math.inf)


def test_loss_scaling_comparison():
    out = loss_scaling_comparison(0.1, 5)
    assert out["this_scheme"] == pytest.approx(0.9 ** 5, abs=1e-15)
    assert out["cascade_scheme"] == pytest.approx(0.9 ** 10, abs=1e-15)
    ratio = out["this_scheme"] / out["cascade_scheme"]
    assert ratio == pytest.approx(0.9 ** -5, rel=1e-12)


@pytest.mark.parametrize("params", [RB_PARAMS, ION_PARAMS], ids=["rb", "ion"])
def test_window_truncation_of_the_joint_leak_stays_below_half_a_percent(params):
    # the table heralds with the stationary leak, while dark counts are
    # integrated over the 3/kappa window: photons that leave after the window
    # are the gap (0.447% for Rb, 0.114% for the ion parameters)
    model = ImperfectionModel(cavity_params=(params,) * 4)
    in_window = math.prod(event_probabilities(p, model.window_us())[0]
                          for p in model.cavity_params)
    gap = 1.0 - in_window / math.prod(model.leak_probabilities(4))
    assert 0.0 < gap < 0.005


def false_herald_share(dark_rate_hz):
    """Heralded probability of the rounds with exactly one silent cavity,
    relative to the table's acceptance.  A silent cavity k (probability
    1 - L_k) leaves its atom parked in ALPHA and sends no photon, so only a
    dark click can complete an accepted pattern; ``run_generation_rounds``
    sends only the all-emitted branch and leaves these heralds out."""
    model = ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, dark_rate_hz=dark_rate_hz)
    table = run_generation_round(model)
    leaks = table.per_cavity_leak
    parked = SparseHybridState(1, frozenset(), {BasisLabel.make([AtomLevel.ALPHA]): 1.0})
    missing = 0.0
    for k in range(4):
        psi = tensor_all([parked if rail == k + 1 else emitted_pair_state(rail)
                          for rail in (1, 2, 3, 4)])
        heralded = sum(e.probability for e in run_network(psi, pr.round_network(model))
                       if e.accepted)
        weight = (1.0 - leaks[k]) * math.prod(leaks[j] for j in range(4) if j != k)
        missing += weight * heralded
    return missing / table.acceptance


def test_false_heralds_of_a_silent_cavity_are_bounded_and_grow_with_the_dark_rate():
    # 3.61e-4 at the built-in 100 Hz, 3.58% at 10^4 Hz and 33.6% at 10^5 Hz
    shares = [false_herald_share(rate) for rate in (100.0, 1e4, 1e5)]
    assert shares[0] < 1e-3
    assert shares[0] < shares[1] < shares[2]


def spoiled_shares(dark_rates_hz):
    """Share of each table's acceptance that a per-channel dark-count model
    would reject and the fill-only model keeps (``optics.click_entries``).

    Under the per-channel model each channel dark-clicks on its own with
    q = p_dark / 2, and a detector reads the union of its real and dark
    clicks.  The real clicks are the patterns of the dark-free table."""
    models = [ImperfectionModel(cavity_params=(RB_PARAMS,) * 4, dark_rate_hz=rate)
              for rate in (0.0, *dark_rates_hz)]
    dark_free, *tables = run_generation_rounds(models)
    labels = pr.round_network(models[0]).detectors[0].labels
    shares = []
    for model, table in zip(models[1:], tables):
        q = model.dark_probability() / 2.0
        per_channel = 0.0
        for entry in dark_free.entries:
            real = [{"none": set(), "both": set(labels)}.get(r.outcome, {r.outcome})
                    for r in entry.pattern]
            for darks in product((False, True), repeat=2 * len(real)):
                clicks = [clicked | {lab for lab, d in zip(labels, darks[2 * i:2 * i + 2]) if d}
                          for i, clicked in enumerate(real)]
                if all(len(c) == 1 for c in clicks):
                    per_channel += entry.probability * math.prod(q if d else 1.0 - q
                                                                 for d in darks)
        shares.append((1.0 - per_channel / table.network_acceptance, q))
    return shares


def test_dark_clicks_that_would_spoil_a_pattern_are_bounded_and_grow_with_the_dark_rate():
    # a dark click in the other channel of any of the four clicked detectors:
    # 1 - (1 - q)^4, 3.98e-5 at the built-in 100 Hz, 0.40% at 10^4 Hz and
    # 3.9% at 10^5 Hz
    shares = spoiled_shares((100.0, 1e4, 1e5))
    for share, q in shares:
        assert share == pytest.approx(1.0 - (1.0 - q) ** 4, rel=1e-6)
    assert shares[0][0] < 4e-5
    assert shares[0][0] < shares[1][0] < shares[2][0]


def test_dark_probability_conversion():
    kappa = 2 * np.pi * 2.4
    model = ImperfectionModel(dark_rate_hz=100.0, window=3.0 / kappa)
    # 100 Hz over a 0.199 us window
    assert model.dark_probability() == pytest.approx(1.98943678865e-05, rel=1e-9)
