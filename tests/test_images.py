"""Photonic ops against per-term reference loops.

Each photonic op maps a term's occupation to its images.  The references
below redo that mapping for every term, with the modes as a dict; outputs
must agree term by term, in order, with bit-equal amplitudes.  The loss
reference moves the lost photons to the sink rail.  The click stage is held
to the channel-combination enumeration and the dark-count merge it replaced,
and the occupation check in ``SparseHybridState`` to its refusals.
"""

import math
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycluster import optics
from cavitycluster.hilbert import (
    MAX_OCCUPATION,
    AtomLevel,
    BasisLabel,
    PhotonMode,
    SparseHybridState,
    StateError,
    _canonical_occ,
    _pair_images,
    apply_rail_jones,
    move_modes,
    relabel_rail_pols,
)
from cavitycluster.optics import (
    Detector,
    NetworkConfig,
    NetworkError,
    apply_loss,
    apply_qwp,
    detect_all,
)

RAILS = (1, 2)
SOURCES = (0, 1)
SINK = 3


# ----------------------------------------------------------------------
# per-term references
# ----------------------------------------------------------------------
def reference_relabel_rail_pols(state, rail, mapping):
    out = {}
    for label, amp in state.terms.items():
        occ = []
        for mode, count in label.occ:
            if mode.rail == rail and mode.pol in mapping:
                mode = PhotonMode(rail, mapping[mode.pol], mode.src)
            occ.append((mode, count))
        key = BasisLabel(label.atoms, _canonical_occ(occ))
        out[key] = out.get(key, 0.0) + amp
    return SparseHybridState(state.n_atoms, state.rails, out)


def reference_move_modes(state, routing, new_rails=()):
    rails = state.rails | frozenset(new_rails)
    out = {}
    for label, amp in state.terms.items():
        merged = {}
        for mode, count in label.occ:
            tgt = routing.get((mode.rail, mode.pol))
            if tgt is not None:
                mode = PhotonMode(tgt[0], tgt[1], mode.src)
            merged[mode] = merged.get(mode, 0) + count
        key = BasisLabel(label.atoms, _canonical_occ(merged))
        out[key] = out.get(key, 0.0) + amp
    return SparseHybridState(state.n_atoms, rails, out)


def reference_apply_rail_jones(state, rail, u, pols=("H", "V")):
    u = np.asarray(u, dtype=complex)
    p0, p1 = pols
    out = {}
    for label, amp in state.terms.items():
        srcs = sorted({m.src for m, _ in label.occ if m.rail == rail},
                      key=lambda s: -1 if s is None else s)
        expansions = [(label, amp)]
        for src in srcs:
            nxt = []
            for lab, a in expansions:
                occ = lab.occ_map()
                n0 = occ.pop(PhotonMode(rail, p0, src), 0)
                n1 = occ.pop(PhotonMode(rail, p1, src), 0)
                if n0 + n1 == 0:
                    nxt.append((lab, a))
                    continue
                for m0, m1, coeff in _pair_images(n0, n1, u):
                    new_occ = dict(occ)
                    if m0:
                        new_occ[PhotonMode(rail, p0, src)] = m0
                    if m1:
                        new_occ[PhotonMode(rail, p1, src)] = m1
                    nxt.append((BasisLabel(lab.atoms, _canonical_occ(new_occ)), a * coeff))
            expansions = nxt
        for lab, a in expansions:
            out[lab] = out.get(lab, 0.0) + a
    return SparseHybridState(state.n_atoms, state.rails, out)


def reference_loss_records(label, rail):
    modes = [(m, c) for m, c in label.occ if m.rail == rail]
    for losses in iter_product(*[range(c + 1) for _, c in modes]):
        yield tuple((m, k) for (m, _c), k in zip(modes, losses))


def reference_apply_loss(state, rail, eta, sink):
    out = {}
    for label, amp in state.terms.items():
        for record in reference_loss_records(label, rail):
            factor = 1.0
            occ = label.occ_map()
            for mode, lost in record:
                n = occ[mode]
                kept = n - lost
                factor *= math.sqrt(math.comb(n, lost)) \
                    * eta ** (kept / 2.0) * (1.0 - eta) ** (lost / 2.0)
                if kept:
                    occ[mode] = kept
                else:
                    del occ[mode]
                if lost:
                    occ[PhotonMode(sink, mode.pol, mode.src)] = lost
            if factor == 0.0:
                continue
            new_label = BasisLabel(label.atoms, _canonical_occ(occ))
            out[new_label] = out.get(new_label, 0.0) + amp * factor
    return SparseHybridState(state.n_atoms, state.rails | {sink}, out, prune_eps=0.0)


def reference_group_terms(state, detectors, sinks):
    """``detect_all``'s grouping: config -> sigma -> atom label -> amplitude;
    a photon on a loss sink adds its (mode, count) to the config, after the
    detector channels, and no source tag to sigma."""
    det_by_rail = {d.rail: d for d in detectors}
    by_config = {}
    for label, amp in state.terms.items():
        untagged = {}
        tagged = {}
        lost = []
        for mode, count in label.occ:
            if mode.rail in sinks:
                lost.append((mode, count))
                continue
            det = det_by_rail.get(mode.rail)
            if det is None:
                raise NetworkError(f"photon amplitude on unterminated rail {mode.rail}")
            key = (det.id, mode.pol)
            untagged[key] = untagged.get(key, 0) + count
            tagged.setdefault(key, []).extend([mode.src] * count)
        config = tuple(sorted(untagged.items()))
        sigma = tuple(tuple(sorted(tagged[k], key=lambda s: -1 if s is None else s))
                      for k, _ in config)
        atom_label = BasisLabel(label.atoms, ())
        dst = by_config.setdefault(config + tuple(lost), {}).setdefault(sigma, {})
        dst[atom_label] = dst.get(atom_label, 0.0) + amp
    return by_config


def reference_click_patterns(config, detectors):
    """Every combination of channel outcomes, first channel slowest, merged
    by the pattern it reads."""
    index = {d.id: i for i, d in enumerate(detectors)}
    options = []
    for (did, pol), n in config:
        i = index[did]
        p_miss = (1.0 - detectors[i].efficiency) ** n
        label = detectors[i].labels["HV".index(pol)]
        options.append([o for o in ((i, label, 1.0 - p_miss), (None, label, p_miss))
                        if o[2] > 0.0])
    merged = {}
    for combo in iter_product(*options):
        p_click = 1.0
        outcomes = [None] * len(detectors)
        for i, label, p in combo:
            p_click *= p
            if i is not None:  # this channel clicked
                outcomes[i] = label if outcomes[i] is None else "both"
        pattern = tuple("none" if o is None else o for o in outcomes)
        merged[pattern] = merged.get(pattern, 0.0) + p_click
    return list(merged.items())


def reference_dark_counts(patterns, detectors):
    """(pattern, probability) pairs with dark clicks added, every combination
    expanded, first detector slowest, and nothing pruned: an empty detector
    stays empty (1 - p_dark) or fires one channel (p_dark / 2 each), and one
    that clicked keeps its outcome.  Patterns of probability 0 are left out."""
    merged = {}
    for outcomes, prob in patterns:
        options = []
        for d, outcome in zip(detectors, outcomes):
            pd = d.dark_probability
            if outcome != "none" or pd == 0.0:
                options.append([(outcome, 1.0)])
            else:
                options.append([(outcome, 1.0 - pd), (d.labels[0], pd / 2.0),
                                (d.labels[1], pd / 2.0)])
        for combo in iter_product(*options):
            weight = 1.0
            for _, wgt in combo:
                weight *= wgt
            pattern = tuple(o for o, _ in combo)
            merged[pattern] = merged.get(pattern, 0.0) + prob * weight
    return {pattern: p for pattern, p in merged.items() if p > 0.0}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def exact_terms(terms):
    """Terms in order, amplitudes as exact hex."""
    return [(label, complex(a).real.hex(), complex(a).imag.hex()) for label, a in terms.items()]


def assert_same_state(got, expected):
    assert got.n_atoms == expected.n_atoms
    assert got.rails == expected.rails
    assert exact_terms(got.terms) == exact_terms(expected.terms)


# ----------------------------------------------------------------------
# random states: two source tags, up to two photons per mode
# ----------------------------------------------------------------------
finite = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def photonic_states(draw, pols=("H", "V")):
    n_atoms = draw(st.integers(2, 4))
    modes = [PhotonMode(r, p, s) for r in RAILS for p in pols for s in SOURCES]
    terms = {}
    for _ in range(draw(st.integers(1, 10))):
        atoms = tuple(draw(st.lists(st.sampled_from(list(AtomLevel)),
                                    min_size=n_atoms, max_size=n_atoms)))
        occ = {}
        for mode in draw(st.lists(st.sampled_from(modes), max_size=3, unique=True)):
            room = n_atoms - sum(occ.values())
            if room:
                occ[mode] = draw(st.integers(1, min(2, room)))
        label = BasisLabel.make(atoms, occ)
        terms[label] = complex(draw(finite), draw(finite)) + 0.5
    return SparseHybridState(n_atoms, frozenset(RAILS), terms)


@st.composite
def unitaries(draw):
    th, phi, psi = (draw(st.floats(0.0, 2 * math.pi)) for _ in range(3))
    c, s = math.cos(th), math.sin(th)
    return np.array([[c * np.exp(1j * phi), -s * np.exp(-1j * psi)],
                     [s * np.exp(1j * psi), c * np.exp(-1j * phi)]])


@settings(max_examples=60, deadline=None)
@given(photonic_states(pols=("L", "R")), st.sampled_from(RAILS))
def test_relabel_rail_pols_matches_per_term_loop(state, rail):
    mapping = {"L": "H", "R": "V"}
    assert_same_state(relabel_rail_pols(state, rail, mapping),
                      reference_relabel_rail_pols(state, rail, mapping))


@settings(max_examples=60, deadline=None)
@given(photonic_states())
def test_move_modes_matches_per_term_loop(state):
    routing = {(1, "H"): (3, "H"), (1, "V"): (4, "V"), (2, "H"): (4, "H"), (2, "V"): (3, "V")}
    assert_same_state(move_modes(state, routing, (3, 4)),
                      reference_move_modes(state, routing, (3, 4)))


@settings(max_examples=60, deadline=None)
@given(photonic_states(), st.sampled_from(RAILS), unitaries())
def test_apply_rail_jones_matches_per_term_loop(state, rail, u):
    assert_same_state(apply_rail_jones(state, rail, u),
                      reference_apply_rail_jones(state, rail, u))


@settings(max_examples=60, deadline=None)
@given(photonic_states(), st.sampled_from(RAILS), st.floats(0.0, 0.999))
def test_apply_loss_matches_per_term_loop(state, rail, eta):
    got = apply_loss(state, rail, eta, SINK)
    assert_same_state(got, reference_apply_loss(state, rail, eta, SINK))
    # the loss is an isometry onto the rails and the sink
    assert abs(got.norm2() - state.norm2()) <= 1e-12 * state.norm2()


@settings(max_examples=60, deadline=None)
@given(photonic_states(), st.booleans())
def test_detection_grouping_matches_per_term_loop(state, sink):
    # rail 2 ends in a detector, or is a loss sink that nobody detects
    detectors = (Detector(1, "D1"),) if sink else (Detector(2, "D2"), Detector(1, "D1"))
    sinks = frozenset({2} if sink else ())
    got = optics._group_terms(state, tuple((d.rail, d.id) for d in detectors), sinks)
    expected = reference_group_terms(state, detectors, sinks)
    assert list(got) == list(expected)
    for config in expected:
        assert list(got[config]) == list(expected[config])
        for sigma in expected[config]:
            assert exact_terms(got[config][sigma]) == exact_terms(expected[config][sigma])


@st.composite
def click_configs(draw):
    """(config, detectors): 1-4 detectors in any order, each with efficiency
    0, 1 or uniform, dark probability 0 or uniform up to 0.2, and 1-4
    photons on each channel the config holds."""
    n = draw(st.integers(1, 4))
    detectors = [Detector(i + 1, f"D{i + 1}",
                          efficiency=draw(st.one_of(st.just(0.0), st.just(1.0),
                                                    st.floats(0.0, 1.0))),
                          dark_probability=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))),
                          labels=draw(st.sampled_from([("H", "V"), ("V", "H"), ("+", "-")])))
                 for i in range(n)]
    detectors = draw(st.permutations(detectors))
    channels = draw(st.lists(st.sampled_from([(d.id, pol) for d in detectors for pol in "HV"]),
                             unique=True))
    config = tuple(sorted((channel, draw(st.integers(1, 4))) for channel in channels))
    return config, tuple(detectors)


@settings(max_examples=200, deadline=None)
@given(click_configs())
def test_click_pattern_fold_matches_channel_combinations(case):
    # one group of weight 1, so each entry's probability is its click factor
    config, detectors = case
    atoms = SparseHybridState(1, frozenset(), {BasisLabel.make("g"): 1.0})
    net = NetworkConfig(detectors)
    layout = optics.ClickLayout(((config, 1.0, atoms),), optics.ClickLayout.key_of(net))
    entries = optics.click_entries(layout, net)
    got = {tuple(r.outcome for r in e.pattern): e.probability for e in entries}
    expected = reference_dark_counts(reference_click_patterns(config, detectors), detectors)
    assert sorted(got) == sorted(expected)
    if all(d.dark_probability == 0.0 for d in detectors):
        assert {k: p.hex() for k, p in got.items()} == {k: p.hex() for k, p in expected.items()}
    assert all(abs(got[k] - expected[k]) <= 1e-15 for k in expected)
    assert all(p > 0.0 for p in got.values())
    assert [e.pattern for e in entries] == sorted((e.pattern for e in entries),
                                                  key=lambda pattern: [r.outcome for r in pattern])


# ----------------------------------------------------------------------
# refusals repeat
# ----------------------------------------------------------------------
def test_a_checked_occupation_is_refused_where_it_does_not_fit():
    occ = _canonical_occ({PhotonMode(1, "H"): 1, PhotonMode(2, "V"): 1})
    g = AtomLevel.G
    SparseHybridState(2, frozenset({1, 2}), {BasisLabel((g, g), occ): 1.0})
    cases = (
        (2, frozenset({1}), (g, g), "mode on unregistered rail 2"),
        (1, frozenset({1, 2}), (g,), "photon number exceeds atom count"),
        # the atom count is checked first, though the photons outnumber the atom too
        (1, frozenset({1, 2}), (g, g), "label has 2 atoms, expected 1"),
    )
    for n_atoms, rails, atoms, message in cases:
        for _ in range(2):
            with pytest.raises(StateError, match=f"^{message}$"):
                SparseHybridState(n_atoms, rails, {BasisLabel(atoms, occ): 1.0})
    assert SparseHybridState(2, frozenset({1, 2}), {BasisLabel((g, g), occ): 1.0}).terms


def test_occupation_above_the_cap_is_refused_every_time():
    # five photons on one rail: mixing can pile all of them onto one mode
    occ = {PhotonMode(1, "H"): 3, PhotonMode(1, "V"): 2}
    state = SparseHybridState(5, frozenset({1}), {BasisLabel.make("ggggg", occ): 1.0})
    assert sum(occ.values()) > MAX_OCCUPATION
    for _ in range(2):
        with pytest.raises(StateError, match="above the cap"):
            apply_rail_jones(state, 1, optics.hwp_jones(22.5))


def test_unterminated_rail_is_refused_every_time():
    state = SparseHybridState(1, frozenset({7}),
                              {BasisLabel.make("g", {PhotonMode(7, "H"): 1}): 1.0})
    network = NetworkConfig((Detector(1, "D1"),))
    for _ in range(2):
        with pytest.raises(NetworkError, match="unterminated rail 7"):
            detect_all(state, network)


def test_qwp_on_a_linear_rail_is_refused_every_time():
    state = SparseHybridState(1, frozenset({1}),
                              {BasisLabel.make("g", {PhotonMode(1, "H"): 1}): 1.0})
    for _ in range(2):
        with pytest.raises(StateError, match="already linear-polarized"):
            apply_qwp(state, 1)
