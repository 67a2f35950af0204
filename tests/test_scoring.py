"""``ClickLayout.score`` against the class-by-class walk it replaced.

``score`` computes every (entry, class) fidelity of the classes whose O
column is built in one array pass over the groups each accepted column
reaches, then walks them on Python floats.  ``class_loop`` is the walk it
replaced: one class at a time, its own O column each, over the groups the
columns' nonzero cells read, summed row by row.  Both must give the same
masks, fidelities, acceptance and mean fidelity to the bit, on the layouts
of real rounds and fusions with W drawn over the cells each layout can fill.
"""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
from cavitycluster import optics, protocol
from cavitycluster.dynamics import RB_PARAMS
from cavitycluster.optics import CORRECTABLE_FIDELITY, correction_table
from cavitycluster.protocol import ImperfectionModel, build_four_qubit_target
from test_stages import count_images

RB4 = (RB_PARAMS,) * 4
MODELS = {
    "round-dark": ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0),
    "round-lossy": ImperfectionModel(cavity_params=RB4, rail_transmission=0.9,
                                     detector_efficiency=0.9),
    "round-loss-dark": ImperfectionModel(cavity_params=RB4, rail_transmission=0.9,
                                         detector_efficiency=0.9, dark_rate_hz=100.0),
    "fuse-dark": ImperfectionModel(cavity_params=RB4, dark_rate_hz=100.0),
    "fuse-loss-dark": ImperfectionModel(cavity_params=RB4, rail_transmission=0.9,
                                        detector_efficiency=0.9, dark_rate_hz=1e4),
}
#: what the draws must reach: a later class within the 1e-15 margin above an
#: entry's best (a near tie, which a running max would take), exact-zero W cells among the groups a scored column reaches,
#: one scored column with a one-class block over at least 8 groups (a
#: contiguous 1-D sum, which numpy would add pairwise), and a second call that
#: extends the columns an earlier call built
CASES = {"margin", "zero-cells", "one-column-block", "extends"}


@functools.cache
def fresh_layout(name: str) -> tuple:
    """A layout of ``name`` and its target, built outside the stage memos so
    that clearing its class scores touches no other test's layout."""
    model = MODELS[name]
    if name.startswith("round"):
        net = protocol.round_network(model)
        key = protocol._stage_key(net, model.overlaps(4))
        layout = protocol._round_layout.__wrapped__(key, optics.ClickLayout.key_of(net))
        return layout, build_four_qubit_target().state
    chain = build_four_qubit_target()
    net = protocol.fusion_network(model)
    terms = tuple(chain.state.terms.items())
    return protocol._fusion_layout.__wrapped__(protocol._stage_key(net, model.overlaps(2)),
                                                terms, terms, optics.ClickLayout.key_of(net))


def in_order_sums(a: np.ndarray) -> np.ndarray:
    """Column sums that add the rows one at a time, first to last."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def class_loop(layout, w, ks, p, target) -> tuple:
    """The class-by-class walk: ((masks, fidelities, acceptance, mean
    fidelity), whether a later class came within the 1e-15 margin above an
    entry's best of more than 1e-3 and was passed over)."""
    n, t = target.n_atoms, optics._qubit_amplitudes(target)[0]
    _, dense, norm2 = layout.registers
    cols = np.flatnonzero(w[:, ks].any(axis=1))  # the groups the columns read
    branch = w[np.ix_(cols, ks)] / p
    weight, coeff = in_order_sums(branch), branch / norm2[cols, None]
    best_fid, best_mask = np.full(len(ks), -1.0), np.zeros(len(ks), dtype=np.int64)
    margin = False
    for mask in optics._correction_candidates(n, optics._stabilizers(t.tobytes(), n)[1]):
        image = optics._pauli_image(np.conj(t), mask & (t.size - 1), mask >> n)
        fid = in_order_sums(coeff * (np.abs(dense @ image) ** 2)[cols][:, None]) / weight
        open_ = best_fid < CORRECTABLE_FIDELITY
        better = (fid > best_fid + 1e-15) & open_
        margin |= bool((open_ & ~better & (fid > best_fid) & (best_fid > 1e-3)).any())
        best_fid[better] = fid[better]
        best_mask[better] = mask
        if best_fid.min() >= CORRECTABLE_FIDELITY:
            break
    p, fids = p.tolist(), best_fid.tolist()
    acceptance, fid = sum(p, 0.0), sum((a * f for a, f in zip(p, fids)), 0.0)
    return (best_mask.tolist(), fids, acceptance, fid / acceptance), margin


def hexed(result: tuple) -> tuple:
    masks, fids, acceptance, fid = result
    return masks, [f.hex() for f in fids], acceptance.hex(), fid.hex()


def drawn_w(layout, rng: np.random.Generator, zeros: float, ties: bool) -> np.ndarray:
    """W over the cells the layout can fill: uniform values over twelve
    decades, or a few equal values with ``ties``; a share ``zeros`` of them 0."""
    cells = np.flatnonzero(layout.reach)
    values = (rng.choice([1.0, 0.5, 0.25], cells.size) if ties
              else rng.random(cells.size) * 10.0 ** -rng.integers(0, 12, cells.size))
    values[rng.random(cells.size) < zeros] = 0.0
    w = np.zeros(layout.reach.shape)
    w.flat[cells] = values
    return w


def drawn_columns(layout, w, rng: np.random.Generator, size: int) -> list[int]:
    """Up to ``size`` accepted columns of nonzero probability, in column order."""
    live = np.flatnonzero((w.sum(axis=0) > 0.0) & layout.accepted)
    return sorted(rng.choice(live, min(size, live.size), replace=False).tolist())


def score_twice(name, seed, zeros, ties, sizes, fresh) -> set:
    """Score two drawn W's of one layout (class scores cleared first when
    ``fresh``), each against ``class_loop``; return the cases they reach."""
    layout, target = fresh_layout(name)
    if fresh:
        layout.class_scores.clear()
        layout.gathers.clear()
    rng, reached = np.random.default_rng(seed), set()
    for call, size in enumerate(sizes):
        w = drawn_w(layout, rng, zeros, ties)
        ks = drawn_columns(layout, w, rng, size)
        if not ks:
            continue
        p = w.sum(axis=0)[ks]
        key = (optics._qubit_amplitudes(target)[0].tobytes(), target.n_atoms)
        before = len(layout.class_scores.get(key, ((), ()))[1])
        got = layout.score(w, ks, p, target)
        want, margin = class_loop(layout, w, ks, p, target)
        assert hexed(got) == hexed(want)
        built = len(layout.class_scores[key][1])
        rows = layout.gathers[tuple(ks)][1]
        if margin:
            reached.add("margin")
        if (w.take(layout.gathers[tuple(ks)][0]) == 0.0).any():
            reached.add("zero-cells")
        if len(ks) == 1 and built > before and len(rows) >= 8:
            reached.add("one-column-block")
        if call and 0 < before < built:
            reached.add("extends")
    return reached


#: draws that reach every case in ``CASES`` (``test_the_examples_reach_every_case``)
EXAMPLES = [
    ("round-dark", 0, 0.3, True, (1, 16), True),  # margin, one-column-block, zero-cells
    ("fuse-dark", 2, 0.9, False, (1, 16), True),  # extends
    ("round-lossy", 0, 0.0, False, (1, 16), True),  # extends
]


def with_examples(test):
    for args in EXAMPLES:
        test = example(*args)(test)
    return test


@with_examples
@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 0.9]), ties=st.booleans(),
       sizes=st.tuples(st.integers(1, 16), st.integers(1, 16)), fresh=st.booleans())
def test_score_is_the_class_loop_to_the_bit(name, seed, zeros, ties, sizes, fresh):
    score_twice(name, seed, zeros, ties, sizes, fresh)


def test_the_examples_reach_every_case():
    reached = set().union(*(score_twice(*args) for args in EXAMPLES))
    assert reached == CASES


def count_gathers(monkeypatch):
    """Count ``ClickLayout._gather`` calls: one per gather built."""
    calls = []
    gather = optics.ClickLayout._gather

    def counting(self, ks, norm2):
        calls.append(ks)
        return gather(self, ks, norm2)

    monkeypatch.setattr(optics.ClickLayout, "_gather", counting)
    return calls


@pytest.mark.parametrize("name", ["round-dark", "fuse-loss-dark"])
def test_a_second_score_of_the_same_columns_builds_no_gather_and_no_column(monkeypatch, name):
    layout, target = fresh_layout(name)
    layout.class_scores.clear()
    layout.gathers.clear()
    gathers, images = count_gathers(monkeypatch), count_images(monkeypatch)
    w = drawn_w(layout, np.random.default_rng(3), 0.0, False)
    ks = drawn_columns(layout, w, np.random.default_rng(4), 16)
    p = w.sum(axis=0)[ks]
    first = layout.score(w, ks, p, target)
    assert len(gathers) == 1 and len(images) > 0
    built = len(images)
    w2 = drawn_w(layout, np.random.default_rng(5), 0.3, False)
    w2[:, ks] += w[:, ks]  # every scored column keeps a nonzero probability
    assert layout.score(w, ks, p, target) == first
    layout.score(w2, ks, w2.sum(axis=0)[ks], target)
    assert len(gathers) == 1 and len(images) == built


def test_gathers_live_and_die_with_their_layout():
    # a hand-built table's layout keeps the gathers its search built and
    # frees them with the table: no memo holds them
    bell = protocol.build_bell_pair().state
    table = conftest.one_table([[(1.0, bell)], [(0.5, bell)]])
    first = correction_table(table, bell)
    layout = weakref.ref(table[0].post_state.layout)
    assert list(layout().gathers) == [(0, 1)]
    gather = weakref.ref(layout().gathers[0, 1][0])
    assert correction_table(table, bell) == first
    del table
    gc.collect()
    assert layout() is None and gather() is None
