"""Staged generation rounds against a from-scratch round per point.

``protocol.run_generation_rounds`` takes a round's grouped states, click
layout and class scores from per-process memos keyed by their inputs, and
fills and scores W at each point.  Here every sweep parameter is checked
against ``reference_round``, which builds each point alone with
``run_network`` and ``correction_table`` the way a single-point run always
has, down to the last bit of every entry, and the stage calls of a sweep are
counted.
"""

import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
import reference_tables
from cavitycluster import cli, optics, protocol
from cavitycluster.dynamics import RB_PARAMS
from cavitycluster.hilbert import tensor_all
from cavitycluster.optics import correction_table, default_four_atom_network, run_network
from cavitycluster.protocol import (
    ImperfectionModel,
    build_four_qubit_target,
    emitted_pair_state,
    run_generation_rounds,
)

RB4 = (RB_PARAMS,) * 4
MHZ = 2.0 * math.pi


def reference_round(model: ImperfectionModel) -> SimpleNamespace:
    """One round built from scratch: its own network, photons and search, with
    the fields of a ``GenerationTable``.

    The network is the folded one the rounds build: rail transmission times
    detector efficiency, and no loss element."""
    network = default_four_atom_network(model.rail_transmission * model.detector_efficiency,
                                        model.dark_probability())
    overlaps = model.overlaps(4)
    tagged = overlaps is not None
    psi = tensor_all([emitted_pair_state(rail, rail - 1 if tagged else None)
                      for rail in (1, 2, 3, 4)])
    entries = run_network(psi, network, overlaps=overlaps)
    target = build_four_qubit_target()
    correction_table(entries, target.state)
    accepted = [e for e in entries if e.accepted]
    network_acceptance = sum(e.probability for e in accepted)
    leaks = model.leak_probabilities(4)
    joint = math.prod(leaks)
    mean_fid = (sum(e.probability * e.corrected_fidelity for e in accepted)
                / network_acceptance if network_acceptance > 0 else 0.0)
    return SimpleNamespace(entries=entries, network_acceptance=network_acceptance,
                           emission_joint=joint, acceptance=joint * network_acceptance,
                           mean_corrected_fidelity=mean_fid, per_cavity_leak=leaks, target=target)


def sweep_models(base: ImperfectionModel, param: str, values) -> list[ImperfectionModel]:
    if param in ("gamma", "h", "kappa"):
        return [replace(base, cavity_params=tuple(replace(p, **{param: v})
                                                  for p in base.cavity_params))
                for v in values]
    return [replace(base, **{param: v}) for v in values]


def hexed(x):
    return x.hex() if isinstance(x, float) else x


def table_record(table):
    """Every number of a table, floats as exact hex, terms in their order."""
    row = {k: hexed(v) for k, v in cli._table_row("p", table).items()}
    states = {}  # id -> record, since branches of many patterns share a state

    def state_record(s):
        if id(s) not in states:
            states[id(s)] = (s.n_atoms, sorted(s.rails), [
                (label, a.real.hex(), a.imag.hex()) for label, a in s.terms.items()])
        return states[id(s)]

    entries = []
    for e in table.entries:
        branches = [(w.hex(), state_record(s)) for w, s in e.post_state.branches]
        entries.append((e.pattern, e.probability.hex(), e.accepted, e.correction,
                        hexed(e.corrected_fidelity), e.correctable, branches))
    return row, entries


SWEEPS = {
    "gamma": (2 * MHZ, 6 * MHZ),
    "h": (20 * MHZ, 27 * MHZ),
    "kappa": (2.0 * MHZ, 2.4 * MHZ),
    "rail_transmission": (0.85, 1.0),
    "detector_efficiency": (0.6, 1.0),
    "dark_rate_hz": (0.0, 100.0),
}
BASES = {
    "clean": ImperfectionModel(cavity_params=RB4),
    "rail_loss": ImperfectionModel(cavity_params=RB4, rail_transmission=0.9,
                                   detector_efficiency=0.9),
    "dark": ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0),
    "rail_loss_dark": ImperfectionModel(cavity_params=RB4, rail_transmission=0.9,
                                        detector_efficiency=0.9, dark_rate_hz=100.0),
}
# photons of distinct sources: the tagged Gram/eigh path of the grouping stage
MISMATCHED = ImperfectionModel(
    cavity_params=(replace(RB_PARAMS, kappa=3.0 * MHZ),) + RB4[1:], detector_efficiency=0.8)
# a loss + dark table takes most of a second from scratch, so rail loss meets
# dark counts only in the sweeps of the two detector knobs
CASES = [(b, p) for b in BASES for p in SWEEPS
         if (b, p) != ("rail_loss", "dark_rate_hz")
         and (b != "rail_loss_dark" or p in ("detector_efficiency", "dark_rate_hz"))]


@pytest.mark.parametrize("base,param", CASES)
def test_staged_sweep_matches_rounds_built_from_scratch(base, param):
    models = sweep_models(BASES[base], param, SWEEPS[param])
    for model, table in zip(models, run_generation_rounds(models)):
        assert table_record(table) == table_record(reference_round(model))


@pytest.mark.parametrize("param", ["h", "detector_efficiency"])
def test_staged_sweep_matches_from_scratch_with_mismatched_cavities(param):
    models = sweep_models(MISMATCHED, param, SWEEPS[param])
    assert all(m.overlaps(4) is not None for m in models)
    for model, table in zip(models, run_generation_rounds(models)):
        assert table_record(table) == table_record(reference_round(model))


def clear_stage_memos():
    for memo in (protocol._round_groups, protocol._round_layout,
                 protocol._fusion_instrument, protocol._fusion_layout):
        memo.cache_clear()


def count_stages(monkeypatch):
    """Count calls of each stage a staged round runs, from empty memos: the
    photon stages, and the ``ClickLayout`` methods that fill W and score it."""
    clear_stage_memos()
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("propagate", "group_states"):
        counted(optics, name)
    for name in ("fill", "score"):
        counted(optics.ClickLayout, name)
    return calls


def test_efficiency_sweep_groups_once(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4, rail_transmission=0.9)
    tables = list(run_generation_rounds(sweep_models(base, "detector_efficiency", (0.5, 0.7, 0.9))))
    assert calls == {"propagate": 1, "group_states": 1, "fill": 3, "score": 3}
    assert len({id(t.layout) for t in tables}) == len(tables[0].layout.class_scores) == 1


def test_dark_rate_sweep_groups_once(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4)
    list(run_generation_rounds(sweep_models(base, "dark_rate_hz", (0.0, 50.0, 100.0))))
    assert calls["group_states"] == 1 and calls["fill"] == 3
    # with and without a dark step: two click layouts over one grouping
    assert protocol._round_layout.cache_info().misses == 2


def test_equal_cavity_rate_sweep_builds_one_table(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4)
    values = [(20 + k) * MHZ for k in range(10)]
    tables = list(run_generation_rounds(sweep_models(base, "h", values)))
    assert calls == {"propagate": 1, "group_states": 1, "fill": 1, "score": 1}
    assert len({t.emission_joint for t in tables}) == 10


def test_rail_transmission_sweep_groups_once(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4)
    tables = run_generation_rounds(sweep_models(base, "rail_transmission", (0.8, 0.9, 1.0)))
    # tables come one at a time, so a long sweep holds one point's stages
    next(tables)
    assert calls == {"propagate": 1, "group_states": 1, "fill": 1, "score": 1}
    # the transmission is folded into the detectors, so the points share
    # their propagation and grouping
    list(tables)
    assert calls == {"propagate": 1, "group_states": 1, "fill": 3, "score": 3}
    # t = 1 leaves no photon a miss: a second click layout
    assert protocol._round_layout.cache_info().misses == 2


def test_later_points_leave_earlier_tables_unchanged(monkeypatch):
    base = ImperfectionModel(cavity_params=RB4, rail_transmission=0.9)
    models = sweep_models(base, "detector_efficiency", (0.7, 1.0, 0.7))
    alone = table_record(protocol.run_generation_round(models[0]))
    calls = count_stages(monkeypatch)
    tables = list(run_generation_rounds(models))
    assert table_record(tables[0]) == alone == table_record(tables[2])
    # the points share their groups and layout (rail loss keeps every
    # efficiency below 1), and each builds its own outcome table
    assert calls["group_states"] == 1 and calls["fill"] == 3
    assert protocol._round_layout.cache_info().misses == 1
    assert len({id(t.entries[0].post_state.layout) for t in tables}) == 1
    assert tables[0].entries is not tables[2].entries


def test_separate_rounds_of_one_key_group_and_lay_out_once(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4, rail_transmission=0.9, dark_rate_hz=100.0)
    first = protocol.run_generation_round(base)
    second = protocol.run_generation_round(replace(base, dark_rate_hz=50.0))
    assert calls == {"propagate": 1, "group_states": 1, "fill": 2, "score": 2}
    assert protocol._round_layout.cache_info().misses == 1
    assert first.entries[0].post_state.layout is second.entries[0].post_state.layout
    assert table_record(first) != table_record(second)


def test_stage_memos_stay_within_their_bound():
    # each h of the second cavity gives the photons their own overlaps, and
    # so the round its own key; the first key is evicted and built again
    clear_stage_memos()
    bound = protocol._STAGE_CACHE_SIZE
    cavities = [(MISMATCHED.cavity_params[0], replace(RB_PARAMS, h=(20 + k) * MHZ), *RB4[2:])
                for k in range(bound + 2)]
    models = [replace(MISMATCHED, cavity_params=c) for c in cavities]
    assert len({m.overlaps(4).tobytes() for m in models}) == bound + 2
    first = table_record(protocol.run_generation_round(models[0]))
    for model in models[1:]:
        protocol.run_generation_round(model)
    for memo in (protocol._round_groups, protocol._round_layout):
        assert memo.cache_info().currsize <= bound
        assert memo.cache_info().misses == bound + 2
    assert table_record(protocol.run_generation_round(models[0])) == first
    assert protocol._round_groups.cache_info().misses == bound + 3


def test_fusion_memos_stay_within_their_bound():
    # each h of the second cavity gives the two photons their own overlap,
    # and so the fusion its own instrument and layout key; the first key is
    # evicted and built again
    clear_stage_memos()
    bound = protocol._STAGE_CACHE_SIZE
    chain = build_four_qubit_target()
    models = [ImperfectionModel(cavity_params=(RB_PARAMS, replace(RB_PARAMS, h=(20 + k) * MHZ),
                                               *RB4[2:]), detector_efficiency=0.8)
              for k in range(bound + 2)]
    assert len({m.overlaps(2).tobytes() for m in models}) == bound + 2

    def record(model):
        result = protocol.fuse(chain, chain, model)
        return reference_tables.table_record(result.entries, result.acceptance,
                                             result.mean_corrected_fidelity)

    first = record(models[0])
    for model in models[1:]:
        record(model)
    for memo in (protocol._fusion_instrument, protocol._fusion_layout):
        assert memo.cache_info().currsize <= bound
        assert memo.cache_info().misses == bound + 2
    assert record(models[0]) == first
    assert protocol._fusion_instrument.cache_info().misses == bound + 3


def test_consecutive_equal_points_share_their_entries(monkeypatch):
    calls = count_stages(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4, rail_transmission=0.9)
    models = sweep_models(base, "detector_efficiency", (0.7, 0.7, 1.0))
    tables = list(run_generation_rounds(models))
    assert calls["fill"] == calls["score"] == 2
    # tables with one key share W and its scores, and each builds its own
    # entries from them, equal to the bit
    assert tables[0].w is tables[1].w and tables[0].fids is tables[1].fids
    assert tables[0].entries is not tables[1].entries
    assert table_record(tables[0]) == table_record(tables[1])


def test_models_are_drawn_one_at_a_time():
    drawn = []

    def models():
        for value in (0.7, 0.8, 0.9):
            drawn.append(value)
            yield ImperfectionModel(cavity_params=RB4, detector_efficiency=value)

    tables = run_generation_rounds(models())
    next(tables)
    assert drawn == [0.7]
    assert len(list(tables)) == 2 and drawn == [0.7, 0.8, 0.9]


@pytest.mark.parametrize("base, param, values", [
    (ImperfectionModel(cavity_params=RB4, rail_transmission=0.9),
     "detector_efficiency", (0.7, 1.0, 0.7)),
    (ImperfectionModel(cavity_params=RB4), "dark_rate_hz", (100.0, 0.0, 100.0)),
], ids=["detector_efficiency", "dark_rate_hz"])
def test_values_repeated_after_another_match_rounds_built_from_scratch(base, param, values):
    models = sweep_models(base, param, values)
    for model, table in zip(models, run_generation_rounds(models)):
        assert table_record(table) == table_record(reference_round(model))


# points whose edge values change which groups reach which patterns (eta = 0:
# every accepted pattern is dark clicks; eta = 1: no photon misses; q = 0: no
# dark step), in sweeps that leave such a value and come back to it, with
# runs of points between them that share one click layout
EDGE_SWEEPS = {
    "detector_efficiency": (BASES["rail_loss_dark"], (0.0, 0.3, 0.5, 1.0, 0.7, 0.5, 0.0)),
    "rail_transmission": (BASES["rail_loss_dark"], (1.0, 0.0, 0.7, 0.8, 1.0, 0.0)),
    "dark_rate_hz": (BASES["rail_loss"], (0.0, 1000.0, 100.0, 0.0, 50.0, 1000.0)),
    "mismatched": (replace(MISMATCHED, rail_transmission=0.9, dark_rate_hz=100.0),
                   (1.0, 0.6, 0.8, 1.0)),
}


@pytest.mark.parametrize("case", list(EDGE_SWEEPS))
def test_a_sweep_gives_each_point_what_it_gives_alone(case):
    # the sweep shares click layouts among its points, and each point alone
    # builds its own from empty memos: probabilities as hex, patterns,
    # corrections, fidelities and post-state branches must agree bit for bit
    base, values = EDGE_SWEEPS[case]
    models = sweep_models(base, "detector_efficiency" if case == "mismatched" else case, values)
    clear_stage_memos()
    tables = list(run_generation_rounds(models))
    alone = []
    for m in models:
        clear_stage_memos()
        alone.append(table_record(protocol.run_generation_round(m)))
    assert [table_record(t) for t in tables] == alone
    layouts = {id(t.entries[0].post_state.layout) for t in tables}
    assert len(layouts) <= len(tables) - 2


def test_a_click_layout_serves_only_detectors_of_its_key():
    # a layout built without dark counts has no dark step to fill, so a
    # network whose detectors fire dark is refused, not read with q = 0
    bare = default_four_atom_network(0.9, 0.0)
    psi = tensor_all([emitted_pair_state(rail, None) for rail in (1, 2, 3, 4)])
    groups = optics.group_states(optics.propagate(psi, bare), bare)
    layout = optics.ClickLayout(groups, optics.ClickLayout.key_of(bare))
    assert len(optics.click_entries(layout, default_four_atom_network(0.7, 0.0))) > 0
    with pytest.raises(optics.NetworkError, match="other detectors"):
        optics.click_entries(layout, default_four_atom_network(0.9, 1e-5))


LOSS_DARK = BASES["rail_loss_dark"]
LOSSY_LAYOUT = Path(__file__).parent / "data" / "lossy_four_atom_network.json"


@pytest.mark.parametrize("table", [
    pytest.param(lambda: protocol.run_generation_round(LOSS_DARK).entries, id="round"),
    pytest.param(lambda: protocol.fuse(build_four_qubit_target(), build_four_qubit_target(),
                                       LOSS_DARK).entries, id="fuse-4-4"),
    pytest.param(lambda: run_network(tensor_all([emitted_pair_state(r) for r in (1, 2, 3, 4)]),
                                     optics.network_from_json(LOSSY_LAYOUT.read_bytes())),
                 id="lossy-layout-file"),
])
def test_every_product_table_is_the_rows_of_one_click_layout(table):
    # correction_table scores a table as rows of one W and refuses any other
    posts = [e.post_state for e in table()]
    assert all(r.w is posts[0].w and r.layout is posts[0].layout for r in posts)
    assert posts[0].w.shape == (len(posts[0].layout.states), len(posts[0].layout.patterns))
    assert len({r.k for r in posts}) == len(posts)


# ----------------------------------------------------------------------
# class scores: O[g, c] = |S_g P_c conj(t)|^2, kept per layout and target
# ----------------------------------------------------------------------
def count_images(monkeypatch):
    """Count ``optics._pauli_image`` calls: one per class score column built."""
    calls = []
    image = optics._pauli_image

    def counting(vec, a, b):
        calls.append((a, b))
        return image(vec, a, b)

    monkeypatch.setattr(optics, "_pauli_image", counting)
    return calls


def entry_record(entries):
    return [(e.pattern, e.probability.hex(), e.accepted, e.correction,
             hexed(e.corrected_fidelity), e.correctable) for e in entries]


ARRAY_GRID = [replace(base, rail_transmission=t, detector_efficiency=eta, dark_rate_hz=rate)
              for base in (BASES["clean"], MISMATCHED)
              for t in (0.5, 1.0) for eta in (0.0, 0.7, 1.0) for rate in (0.0, 100.0, 1e4)]


@pytest.mark.parametrize("model", ARRAY_GRID,
                         ids=[f"{'mismatched' if m.overlaps(4) is not None else 'rb'}-t"
                              f"{m.rail_transmission}-eta{m.detector_efficiency}-q{m.dark_rate_hz}"
                              for m in ARRAY_GRID])
def test_the_array_path_is_correction_table_on_click_entries(model):
    # a round scores W's columns and annotates its entries when they are
    # read; correction_table scores click_entries of the same layout
    table = protocol.run_generation_round(model)
    net = protocol.round_network(model)
    layout = protocol._round_layout(protocol._stage_key(net, model.overlaps(4)),
                                    optics.ClickLayout.key_of(net))
    entries = optics.click_entries(layout, net)
    acceptance, fid = correction_table(entries, table.target.state)
    assert (table.network_acceptance.hex(), table.mean_corrected_fidelity.hex()) == (
        acceptance.hex(), fid.hex())
    assert entry_record(table.entries) == entry_record(entries)
    assert sum(table.probs.tolist()) == sum(e.probability for e in entries)


def test_class_scores_are_built_on_the_first_point_only(monkeypatch):
    # no dark-count pattern is correctable, so the first point builds every
    # class's column; the later points read them
    clear_stage_memos()
    calls = count_images(monkeypatch)
    base = ImperfectionModel(cavity_params=RB4, rail_transmission=0.9, dark_rate_hz=100.0)
    tables = run_generation_rounds(sweep_models(base, "detector_efficiency", (0.7, 0.8, 0.9)))
    layout = next(tables).layout
    assert len(calls) == len(set(calls)) == 16
    assert len(list(tables)) == 2 and len(calls) == 16
    assert list(layout.class_scores) == [(optics._qubit_amplitudes(
        build_four_qubit_target().state)[0].tobytes(), 4)]


def test_class_score_columns_are_the_row_products_to_the_bit():
    model = replace(BASES["rail_loss_dark"], cavity_params=MISMATCHED.cavity_params)
    net = protocol.round_network(model)
    layout = protocol._round_layout(protocol._stage_key(net, model.overlaps(4)),
                                    optics.ClickLayout.key_of(net))
    t = optics._qubit_amplitudes(build_four_qubit_target().state)[0]
    _, dense, _ = layout.registers
    w, probs = layout.fill(net.detectors)
    ks = np.flatnonzero((probs != 0.0) & layout.accepted)
    layout.score(w, ks, probs[ks], build_four_qubit_target().state)  # no class closes early
    rows = np.flatnonzero(w[:, ks].any(axis=1))  # the groups a point's columns read
    subsets = [rows, rows[:1], rows[::3], np.arange(len(dense))]
    masks, columns = layout.class_scores[t.tobytes(), 4]
    assert len(masks) == len(columns) == 16
    for mask, column in zip(masks, columns):
        v = optics._pauli_image(np.conj(t), mask & 15, mask >> 4)
        for cols in subsets:
            assert np.array_equal(column[cols], np.abs(dense[cols] @ v) ** 2)


def round_table(model):
    table = protocol.run_generation_round(model)
    return table.entries, table.target.state


def fused_table(model):
    result = protocol.fuse(build_four_qubit_target(), build_four_qubit_target(), model)
    return result.entries, result.target.state


@pytest.mark.parametrize("build, model", [
    (round_table, ImperfectionModel()), (round_table, BASES["clean"]),
    (round_table, BASES["rail_loss"]), (fused_table, ImperfectionModel()),
    (fused_table, BASES["rail_loss"])],
    ids=["round-ideal", "round-rb", "round-rb-rail-loss", "fuse-ideal", "fuse-rb-rail-loss"])
def test_a_correctable_table_fills_only_the_columns_its_walk_reaches(monkeypatch, build, model):
    # the walk stops when every accepted entry is correctable: it reaches the
    # class of the last entry's Pauli, and no column past it is built
    clear_stage_memos()
    calls = count_images(monkeypatch)
    entries, target = build(model)
    accepted = [e for e in entries if e.accepted]
    assert accepted and all(e.correctable for e in accepted)
    n, t = target.n_atoms, optics._qubit_amplitudes(target)[0]
    walk = list(optics._correction_candidates(n, optics._stabilizers(t.tobytes(), n)[1]))
    masks = {sum(1 << (i + n * (name == "Z")) for i, name in e.correction) for e in accepted}
    assert len(calls) == 1 + max(walk.index(m) for m in masks) < len(walk)


def test_class_scores_live_and_die_with_their_layout():
    # a hand-built table is its own click layout, which keeps the scores its
    # search built and is freed with the table: no memo holds it
    bell = protocol.build_bell_pair().state
    table = conftest.one_table([[(1.0, bell)], [(0.5, bell)]])
    first = correction_table(table, bell)
    layout = weakref.ref(table[0].post_state.layout)
    assert list(layout().class_scores) == [(optics._qubit_amplitudes(bell)[0].tobytes(), 2)]
    assert correction_table(table, bell) == first
    del table
    gc.collect()
    assert layout() is None


def test_round_class_scores_follow_the_layout_memo_bound():
    # a round's scores leave with its click layout, when the layout memo
    # drops it: here five detector layouts pass through a memo of four
    clear_stage_memos()
    bound = protocol._round_layout.cache_info().maxsize
    layouts = []
    for eta, rate in [(1.0, 0.0), (0.5, 0.0), (1.0, 100.0), (0.5, 100.0), (0.0, 100.0)]:
        model = ImperfectionModel(cavity_params=RB4, detector_efficiency=eta, dark_rate_hz=rate)
        layout = protocol.run_generation_round(model).layout
        assert len(layout.class_scores) == 1
        layouts.append(weakref.ref(layout))
    del layout
    gc.collect()
    assert bound == 4 and protocol._round_layout.cache_info().currsize == bound
    assert [r() is None for r in layouts] == [True] + [False] * bound
