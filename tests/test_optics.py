"""Tests for wave plates, beam splitters, loss channels and detectors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycluster import optics
from cavitycluster.hilbert import (
    LEVEL_ORDER,
    BasisLabel,
    MixedEnsemble,
    PhotonMode,
    SparseHybridState,
    StateError,
    fidelity,
    inner_product,
    tensor,
)
from cavitycluster.optics import (
    Detector,
    DetectionRecord,
    HWP,
    NetworkConfig,
    NetworkError,
    OutcomeTableEntry,
    PBS,
    QWP,
    _correction_candidates,
    apply_correction,
    apply_hwp,
    apply_loss,
    apply_pbs,
    apply_qwp,
    correction_table,
    default_four_atom_network,
    detect_all,
    hwp_jones,
    network_from_json,
    network_to_json,
    parity_check_network,
    run_network,
)
from cavitycluster.protocol import _atom_state, build_four_qubit_target, emitted_pair_state


def single_photon(rail, pol, n_atoms=1, atoms=("g",)):
    return SparseHybridState(
        n_atoms, frozenset({rail}),
        {BasisLabel.make(atoms, {PhotonMode(rail, pol): 1}): 1.0},
    )


def four_source_state():
    state = emitted_pair_state(1, None)
    for rail in (2, 3, 4):
        state = tensor(state, emitted_pair_state(rail, None))
    return state


def test_qwp_relabels_circular_to_linear():
    out = apply_qwp(single_photon(1, "L"), 1)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(1, "H"): 1}
    out = apply_qwp(single_photon(1, "R"), 1)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(1, "V"): 1}


def test_qwp_rejects_linear_input():
    with pytest.raises(StateError):
        apply_qwp(single_photon(1, "H"), 1)


def test_hwp_jones_matrix():
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.allclose(hwp_jones(22.5), had, atol=1e-12)
    assert np.allclose(hwp_jones(45.0), np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_hwp_is_unitary_involution():
    s = single_photon(1, "H")
    twice = apply_hwp(apply_hwp(s, 1, 22.5), 1, 22.5)
    assert fidelity(twice, s) == pytest.approx(1.0, abs=1e-12)


def test_pbs_routing():
    # H transmits (a -> 1), V reflects (a -> 2)
    out = apply_pbs(single_photon(1, "H", 2, ("g", "g")).add(
        single_photon(1, "V", 2, ("g", "g")).scaled(0.0)), 1, 2, 3, 4)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(3, "H"): 1}
    out = apply_pbs(single_photon(1, "V", 2, ("g", "g")), 1, 2, 3, 4)
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(4, "V"): 1}


def test_pbs_preserves_norm_on_superposition():
    s = single_photon(1, "H", 2, ("g", "g")).scaled(1 / np.sqrt(2)).add(
        single_photon(1, "V", 2, ("g", "g")).scaled(1j / np.sqrt(2)))
    out = apply_pbs(s, 1, 2, 3, 4)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def test_loss_channel_branch_probabilities():
    ens = apply_loss(single_photon(1, "H"), 1, 0.75)
    probs = sorted(w * b.norm2() for w, b in ens.branches)
    assert probs == pytest.approx([0.25, 0.75])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_loss_two_photons_binomial():
    s = SparseHybridState(
        2, frozenset({1}),
        {BasisLabel.make(("g", "g"), {PhotonMode(1, "H"): 2}): 1.0})
    ens = apply_loss(s, 1, 0.6)
    probs = sorted(w * b.norm2() for w, b in ens.branches)
    assert probs == pytest.approx(sorted([0.36, 2 * 0.6 * 0.4, 0.16]), abs=1e-12)


def test_loss_commutes_with_hwp():
    # polarization rotation commutes with polarization-blind loss
    s = single_photon(1, "H")
    a = apply_loss(apply_hwp(s, 1, 17.0), 1, 0.6)
    b = apply_loss(s, 1, 0.6).map_states(lambda st: apply_hwp(st, 1, 17.0))

    def kept_prob(ens):
        return sum(w * st.norm2() for w, st in ens.branches
                   if any(l.photon_count() for l in st.terms))

    def total_prob(ens):
        return sum(w * st.norm2() for w, st in ens.branches)

    assert kept_prob(a) == pytest.approx(kept_prob(b), abs=1e-12)
    assert total_prob(a) == pytest.approx(total_prob(b), abs=1e-12)


def detector_net(**kwargs):
    return NetworkConfig((Detector(rail=1, id="D", **kwargs),))


def test_detection_completeness_single_photon():
    s = single_photon(1, "H").scaled(1 / np.sqrt(2)).add(
        single_photon(1, "V").scaled(1 / np.sqrt(2)))
    entries = detect_all(s, detector_net())
    assert sum(e.probability for e in entries) == pytest.approx(1.0, abs=1e-12)
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert outcomes == pytest.approx({"H": 0.5, "V": 0.5})


def test_detection_with_inefficiency():
    entries = detect_all(single_photon(1, "H"), detector_net(efficiency=0.8))
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert outcomes["H"] == pytest.approx(0.8, abs=1e-12)
    assert outcomes["none"] == pytest.approx(0.2, abs=1e-12)


def test_dark_counts_upgrade_empty_detector():
    vac = SparseHybridState(1, frozenset({1}), {BasisLabel.make(("g",)): 1.0})
    p_dc = 1e-3
    entries = detect_all(vac, detector_net(dark_probability=p_dc))
    outcomes = {e.pattern[0].outcome: e.probability for e in entries}
    assert sum(outcomes.values()) == pytest.approx(1.0, abs=1e-12)
    assert outcomes["none"] == pytest.approx(1.0 - p_dc, abs=1e-12)
    assert outcomes["H"] == pytest.approx(p_dc / 2, rel=1e-6)
    assert outcomes["V"] == pytest.approx(p_dc / 2, rel=1e-6)


def test_network_validation():
    with pytest.raises(NetworkError):
        # PBS output collides with its own input
        NetworkConfig((PBS(in_a=1, in_b=2, out_1=1, out_2=3),))
    with pytest.raises(NetworkError):
        NetworkConfig((Detector(rail=1, id="D"), Detector(rail=2, id="D")))
    with pytest.raises(NetworkError):
        NetworkConfig((Detector(rail=1, id="D", efficiency=1.5),))


def test_default_network_round_trips_through_json():
    net = default_four_atom_network()
    assert network_from_json(network_to_json(net)) == net


def test_network_from_json_reports_bad_element():
    doc = json.loads(network_to_json(default_four_atom_network()))
    doc["elements"][3]["type"] = "mystery"
    with pytest.raises(NetworkError, match="3"):
        network_from_json(json.dumps(doc))


def test_default_network_acceptance():
    entries = run_network(four_source_state(), default_four_atom_network())
    assert sum(e.probability for e in entries) == pytest.approx(1.0, abs=1e-12)
    accepted = [e for e in entries if e.accepted]
    assert len(accepted) == 16
    for e in accepted:
        assert e.probability == pytest.approx(1.0 / 128.0, abs=1e-12)


def test_default_network_corrections_are_z_only():
    entries = run_network(four_source_state(), default_four_atom_network())
    target = build_four_qubit_target().state
    correction_table([e for e in entries if e.accepted], target)
    for e in entries:
        if not e.accepted:
            continue
        assert e.correctable
        assert e.corrected_fidelity == pytest.approx(1.0, abs=1e-12)
        assert all(name == "Z" for _, name in e.correction)


def test_all_plus_pattern_needs_no_correction():
    entries = run_network(four_source_state(), default_four_atom_network())
    target = build_four_qubit_target().state
    correction_table([e for e in entries if e.accepted], target)
    for e in entries:
        if e.accepted and all(r.outcome == "D" for r in e.pattern):
            assert e.correction == []


def test_parity_check_network_topology():
    net = parity_check_network()
    assert len(net.detectors) == 2
    assert {d.id for d in net.detectors} == {"DI", "DII"}
    assert all(d.labels == ("D", "A") for d in net.detectors)


def reference_correction(entry, target, threshold=1.0 - 1e-9):
    """The plain search: correct every branch, then take the ensemble fidelity."""
    best_ops, best_fid = [], -1.0
    for ops in _correction_candidates(target.n_atoms):
        corrected = entry.post_state.map_states(lambda s: apply_correction(s, ops))
        fid = fidelity(corrected, target)
        if fid > best_fid + 1e-15:
            best_ops, best_fid = ops, fid
        if best_fid >= threshold:
            break
    return best_ops, best_fid


def assert_matches_reference(entries, target):
    expected = [reference_correction(e, target) for e in entries if e.accepted]
    correction_table(entries, target)
    got = [(e.correction, e.corrected_fidelity) for e in entries if e.accepted]
    assert [ops for ops, _ in got] == [ops for ops, _ in expected]
    for (_, fid), (_, ref) in zip(got, expected):
        assert abs(fid - ref) <= 1e-15


def random_atom_state(rng, n_atoms, n_terms, p_qubit=0.8):
    """Random atoms-only state; a level is G/E with probability ``p_qubit``,
    otherwise one of the four levels the Pauli corrections leave alone."""
    terms = {}
    for _ in range(n_terms):
        atoms = tuple(
            LEVEL_ORDER[rng.integers(2)] if rng.random() < p_qubit
            else LEVEL_ORDER[2 + rng.integers(4)] for _ in range(n_atoms))
        terms[BasisLabel(atoms, ())] = complex(rng.normal(), rng.normal())
    return SparseHybridState(n_atoms, frozenset(), terms).normalized()


def random_ops(rng, n_atoms):
    """X then Z on atom 0, and a random X/Z/XZ/identity on each other atom."""
    ops = [(0, "X"), (0, "Z")]
    for i in range(1, n_atoms):
        ops += [(i, ch) for ch in "XZ" if rng.random() < 0.5]
    return ops


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_correction_table_matches_branchwise_search(seed):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    target = random_atom_state(rng, n_atoms, 2 ** n_atoms, p_qubit=1.0)
    entries = []
    for k in range(int(rng.integers(1, 4))):
        ens = MixedEnsemble()
        if rng.random() < 0.3:
            # exactly correctable: the search stops at fidelity 1
            ens.add(1.0, apply_correction(target, random_ops(rng, n_atoms)))
        else:
            for _ in range(int(rng.integers(1, 4))):
                branch = random_atom_state(rng, n_atoms, int(rng.integers(1, 7)))
                ens.add(rng.uniform(0.1, 1.0), branch.scaled(rng.uniform(0.5, 2.0)))
        entries.append(OutcomeTableEntry((DetectionRecord("D", str(k)),), 1.0, ens,
                                         accepted=True))
    assert_matches_reference(entries, target)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_corrected_target_overlap_identity(seed):
    # <t|P_k..P_1 s> = <P_1..P_k t|s> as complex numbers: the ops act on the
    # target in reverse order (XZ and ZX on one atom differ by a sign)
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 4))
    t = random_atom_state(rng, n_atoms, 4)
    s = random_atom_state(rng, n_atoms, 4)
    ops = random_ops(rng, n_atoms)
    lhs = inner_product(t, apply_correction(s, ops))
    rhs = inner_product(apply_correction(t, reversed(ops)), s)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dark_count_correction_table_matches_branchwise_search():
    psi = tensor(emitted_pair_state(1), emitted_pair_state(2))
    entries = run_network(psi, parity_check_network(dark_probability=0.05))
    bell = _atom_state({"gg": 1 / math.sqrt(2), "ee": 1 / math.sqrt(2)})
    assert any(len(e.post_state.branches) > 1 for e in entries if e.accepted)
    assert_matches_reference(entries, bell)
    # dark-count mixtures are not correctable, so every candidate was tried
    assert not any(e.correctable for e in entries if e.accepted)


def test_z_only_exit_builds_only_the_targets_it_tries(monkeypatch):
    # every ideal pattern is fixed by a Z product, so the lazy search must
    # stop inside the 2^4 Z-only prefix instead of building all 4^4 targets
    built = []

    def counting(state, ops):
        built.append(tuple(ops))
        return apply_correction(state, built[-1])

    monkeypatch.setattr(optics, "apply_correction", counting)
    entries = run_network(four_source_state(), default_four_atom_network())
    correction_table(entries, build_four_qubit_target().state)
    assert 0 < len(built) <= 16
    assert len(set(built)) == len(built)
