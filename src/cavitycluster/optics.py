"""Polarization linear optics on sparse hybrid states.

Elements: quarter-wave plate (circular -> linear relabeling), half-wave plate
(Jones rotation), polarizing beam splitter (transmit H, reflect V, no
reflection phase), per-rail loss, and polarization-resolving detectors with
efficiency and dark counts.  Each is a frozen dataclass, and its fields are
also its JSON layout record, whose ``type`` is the class name lowercased
(``network_to_json``, ``network_from_json``).  ``run_network`` enumerates
every click pattern exactly, including rejected ones, so the pattern
probabilities always sum to 1.  It runs three pure stages: ``propagate``
(the passive elements, in order), ``group_states`` (the atom state of each
photon-number configuration at the detectors, normalized) and
``click_entries`` (the click POVM as one pattern-by-group matrix W, dark
counts, the sorted outcome table); ``detect_all`` is the last two.  All of
the click stage but W's values is a ``ClickLayout``, built once for a
sweep over the detectors' (eta, q); each entry's post-state is its row of
W, its branches built when read.  ``correction_table`` is the tail of every
heralded table, a round's, a fusion's or ``network``'s: each group is a state
on the atoms the herald keeps, and it scores W's accepted rows against the
groups' register rows and returns the acceptance and mean fidelity.

A ``Loss`` is a beam splitter onto an empty mode nobody detects: ``apply_loss``
moves each lost photon to the loss's own sink rail (``NetworkConfig.sinks``), so
one pure state passes every layout.  A sink's photons join their group's config
with no click factor, so groups that lost different photons stay incoherent:
the sinks are traced out exactly.  The built-in networks have no ``Loss``.  A
channel holding n photons clicks with probability 1 - (1 - eta)^n, which scales
each photon-number configuration, not its conditional atom state.

Photons carrying distinct source tags are treated as distinct modes; at
detection, coherence between source assignments of the detected photons is
weighted by the supplied overlap matrix (partial-distinguishability model): the
Hermitian Gram matrix of the sources' temporal envelopes, ``overlaps[a, b]``
for the photons tagged a and b (``ImperfectionModel.overlaps``).  Two-photon
modes use sorted pairwise overlap matching, and click factors multiply the
decomposition of every photon that reaches a detector, so with tagged photons
and eta < 1 the probabilities keep their eta = 1 sum (ROADMAP item 3).
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import product as iter_product

import numpy as np

from .hilbert import (
    BasisLabel,
    PhotonMode,
    SparseHybridState,
    StateError,
    _QUBIT_INDEX,
    _canonical_occ,
    apply_rail_jones,
    move_modes,
    relabel_rail_pols,
)

HADAMARD_HWP_DEG = 22.5
#: Relative slack in |<t|P|t>| = <t|t> when collecting a target's stabilizers.
STABILIZER_TOL = 1e-12
#: Corrected fidelity at which a pattern counts as correctable and the
#: correction search stops.
CORRECTABLE_FIDELITY = 1.0 - 1e-9


class NetworkError(ValueError):
    """Raised for ill-formed network configurations."""


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QWP:
    rail: int


@dataclass(frozen=True)
class HWP:
    rail: int
    angle_deg: float


@dataclass(frozen=True)
class PBS:
    in_a: int
    in_b: int
    out_1: int
    out_2: int


@dataclass(frozen=True)
class Loss:
    rail: int
    transmission: float


@dataclass(frozen=True)
class Detector:
    rail: int
    id: str
    efficiency: float = 1.0
    dark_probability: float = 0.0
    labels: tuple[str, str] = ("H", "V")  # display names of the (H, V) channels


Element = QWP | HWP | PBS | Loss | Detector


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered element list; acceptance is one click per declared detector."""

    elements: tuple[Element, ...]

    def __post_init__(self):
        consumed: set[int] = set()
        live: set[int] = set()
        for el in self.elements:
            if isinstance(el, (QWP, HWP, Loss)):
                if el.rail in consumed:
                    raise NetworkError(f"element {el} uses consumed rail {el.rail}")
                live.add(el.rail)
                if isinstance(el, Loss) and not 0.0 <= el.transmission <= 1.0:
                    raise NetworkError("transmission must be in [0, 1]")
                if isinstance(el, HWP) and not 0.0 <= el.angle_deg < 180.0:
                    raise NetworkError("HWP angle must be in [0, 180)")
            elif isinstance(el, PBS):
                for r in (el.in_a, el.in_b):
                    if r in consumed:
                        raise NetworkError(f"PBS input rail {r} already consumed")
                    consumed.add(r)
                for r in (el.out_1, el.out_2):
                    if r in consumed or r in live:
                        raise NetworkError(f"PBS output rail {r} is not fresh")
                    live.add(r)
            elif isinstance(el, Detector):
                if el.rail in consumed:
                    raise NetworkError(f"detector rail {el.rail} already consumed")
                consumed.add(el.rail)
                if not 0.0 <= el.efficiency <= 1.0 or not 0.0 <= el.dark_probability <= 1.0:
                    raise NetworkError("detector efficiency/dark probability out of range")
                if len(el.labels) != 2:
                    raise NetworkError(f"detector {el.id} has {len(el.labels)} channel labels, not 2")
                # a click outcome is a label, "none" or "both": each must read one way
                if el.labels[0] == el.labels[1] or {"none", "both"} & set(el.labels):
                    raise NetworkError(f"detector {el.id} has colliding channel labels "
                                       f"{list(el.labels)}")
            else:
                raise NetworkError(f"unknown element {el!r}")
        ids = [el.id for el in self.elements if isinstance(el, Detector)]
        if len(ids) != len(set(ids)):
            raise NetworkError("duplicate detector ids")

    @property
    def detectors(self) -> tuple[Detector, ...]:
        return tuple(el for el in self.elements if isinstance(el, Detector))

    @property
    def sinks(self) -> tuple[int, ...]:
        """The undetected rail of each ``Loss``, in order, past every rail named."""
        first = 1 + max((max(el.in_a, el.in_b, el.out_1, el.out_2) if isinstance(el, PBS)
                         else el.rail for el in self.elements), default=0)
        return tuple(range(first, first + sum(isinstance(el, Loss) for el in self.elements)))


# ----------------------------------------------------------------------
# element actions
# ----------------------------------------------------------------------
def _rail_pols(state: SparseHybridState, rail: int) -> set[str]:
    return {m.pol for label in state.terms for m, _ in label.occ if m.rail == rail}


def apply_qwp(state: SparseHybridState, rail: int) -> SparseHybridState:
    """Relabel circular to linear polarization on one rail: L -> H, R -> V."""
    if _rail_pols(state, rail) & {"H", "V"}:
        raise StateError(f"QWP on rail {rail}: rail already linear-polarized")
    return relabel_rail_pols(state, rail, {"L": "H", "R": "V"})


def hwp_jones(angle_deg: float) -> np.ndarray:
    th = math.radians(angle_deg)
    c, s = math.cos(2 * th), math.sin(2 * th)
    return np.array([[c, s], [s, -c]], dtype=complex)


def apply_hwp(state: SparseHybridState, rail: int, angle_deg: float) -> SparseHybridState:
    """Half-wave plate: H -> cos2t H + sin2t V, V -> sin2t H - cos2t V."""
    if _rail_pols(state, rail) & {"L", "R"}:
        raise StateError(f"HWP on rail {rail}: rail still circular-polarized")
    return apply_rail_jones(state, rail, hwp_jones(angle_deg))


def apply_pbs(state: SparseHybridState, in_a: int, in_b: int,
              out_1: int, out_2: int) -> SparseHybridState:
    """Transmit H, reflect V: H_a -> H_1, V_a -> V_2, H_b -> H_2, V_b -> V_1."""
    if (_rail_pols(state, in_a) | _rail_pols(state, in_b)) & {"L", "R"}:
        raise StateError("PBS inputs must be linear-polarized")
    routing = {
        (in_a, "H"): (out_1, "H"),
        (in_a, "V"): (out_2, "V"),
        (in_b, "H"): (out_2, "H"),
        (in_b, "V"): (out_1, "V"),
    }
    return move_modes(state, routing, new_rails=(out_1, out_2))


def apply_loss(state: SparseHybridState, rail: int, transmission: float,
               sink: int) -> SparseHybridState:
    """Per-photon beam-splitter loss on one rail: each lost photon moves to
    the same polarization and source tag on the undetected rail ``sink``,
    which the state must not hold yet.  The state stays pure: its rails gain
    ``sink``, and each lost count is a term of its own."""
    if not 0.0 <= transmission <= 1.0:
        raise StateError("transmission must be in [0, 1]")
    if sink in state.rails:
        raise StateError(f"loss sink rail {sink} already holds modes")
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        for occ, factor in _loss_images(label.occ, rail, transmission, sink):
            key = BasisLabel(label.atoms, occ)
            out[key] = out.get(key, 0.0) + amp * factor
    return SparseHybridState(state.n_atoms, state.rails | {sink}, out, prune_eps=0.0)


def _loss_images(occ, rail: int, eta: float, sink: int):
    """[(occupation, amplitude factor), ...] of ``occ``: one record per lost count
    k of the n photons of each mode on ``rail``, the last mode varying fastest, its
    factor sqrt(C(n, k)) eta^((n - k)/2) (1 - eta)^(k/2) per mode; factor 0 left out."""
    modes = [(m, c) for m, c in occ if m.rail == rail]
    images = []
    for losses in iter_product(*[range(c + 1) for _, c in modes]):
        factor = 1.0
        moved = dict(occ)
        for (mode, n), lost in zip(modes, losses):
            factor *= math.sqrt(math.comb(n, lost)) \
                * eta ** ((n - lost) / 2.0) * (1.0 - eta) ** (lost / 2.0)
            if lost:
                moved[mode] = n - lost  # a count of 0 leaves the occupation
                moved[PhotonMode(sink, mode.pol, mode.src)] = lost
        if factor != 0.0:
            images.append((_canonical_occ(moved) if any(losses) else occ, factor))
    return images


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectionRecord:
    detector_id: str
    outcome: str  # channel label, "none", or "both"


OutcomePattern = tuple[DetectionRecord, ...]


@dataclass
class OutcomeTableEntry:
    pattern: OutcomePattern
    probability: float
    post_state: _Row  # states normalized, weights sum to 1
    accepted: bool
    correction: list[tuple[int, str]] | None = None
    corrected_fidelity: float | None = None
    correctable: bool | None = None


def _sigma_gram(sigmas, overlaps: np.ndarray) -> np.ndarray:
    """Gram matrix of temporal-mode overlap factors between source assignments.

    ``sigmas[i]`` is a tuple over untagged modes of sorted source tuples, and
    ``overlaps[a, b]`` the overlap of the photons tagged a and b.
    """
    n = len(sigmas)
    g = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            f = 1.0 + 0.0j
            for srcs_i, srcs_j in zip(sigmas[i], sigmas[j]):
                for a, b in zip(srcs_i, srcs_j):
                    f *= overlaps[a, b]
            g[i, j] = f
            g[j, i] = np.conj(f)
    return g


def detect_all(state, network: NetworkConfig, overlaps=None) -> list[OutcomeTableEntry]:
    """Enumerate all polarization-resolved click patterns with exact probabilities.

    The input must have every photon on a detector rail or a loss sink.
    """
    layout = ClickLayout(group_states(state, network, overlaps), ClickLayout.key_of(network))
    return click_entries(layout, network)


def group_states(state: SparseHybridState, network: NetworkConfig, overlaps=None) -> tuple:
    """((config, weight, normalized atom state), ...) per config and
    eigen-component of the config's source-assignment overlap Gram matrix, in
    that loop order; zero weights are left out.  Reads no detector's
    efficiency or dark probability.  Photons with source tags need the
    ``overlaps`` matrix their tags index; untagged ones have one source
    assignment per config and read none."""
    if not network.detectors:
        raise NetworkError("network declares no detectors")
    det_rails = tuple((d.rail, d.id) for d in network.detectors)
    return tuple(config_groups(_group_terms(state, det_rails, frozenset(network.sinks)),
                               state.n_atoms, overlaps))


def config_groups(by_config: dict, n_atoms: int, overlaps) -> list:
    """``group_states``' records from a config -> sigma -> atom label ->
    amplitude map (``_group_terms``)."""
    groups = []
    for config, sigma_groups in by_config.items():
        sigmas = list(sigma_groups)
        vecs = [sigma_groups[s] for s in sigmas]
        if len(sigmas) == 1:
            sub = [(1.0, vecs[0])]
        else:
            g = _sigma_gram(sigmas, overlaps)
            evals, evecs = np.linalg.eigh(g)
            sub = []
            for m in range(len(sigmas)):
                lam = float(evals[m])
                if lam <= 1e-14:
                    continue
                terms: dict[BasisLabel, complex] = {}
                for s_idx in range(len(sigmas)):
                    coeff = evecs[s_idx, m]
                    if coeff == 0.0:
                        continue
                    for lab, a in vecs[s_idx].items():
                        terms[lab] = terms.get(lab, 0.0) + coeff * a
                sub.append((lam, terms))
        for lam, terms in sub:
            s_atoms = SparseHybridState(n_atoms, frozenset(), terms, prune_eps=0.0)
            p_sub = lam * s_atoms.norm2()
            if p_sub > 0.0:
                groups.append((config, p_sub, s_atoms.normalized()))
    return groups


def click_entries(layout: ClickLayout, network: NetworkConfig) -> list[OutcomeTableEntry]:
    """Fresh outcome table of a ``ClickLayout`` at the detectors of
    ``network``, which must have the layout's ``key_of``, sorted by pattern.

    The click POVM factorizes over detectors: the stage is one matrix W over
    the patterns and the groups, W[k, g] = p_g prod_d P_d(k_d | n_gd).  A
    pattern is the set of channels that clicked, bit 2i + j for channel j
    (H, V) of detector i; digit i reads "none", label 0, label 1 or "both".
    Each group's factors are folded over its config's channels from 1.0 (n
    photons miss with (1 - eta)^n), and p_g multiplies last.  Dark counts
    then act detector by detector: an empty detector fires either channel
    with probability p_dark / 2.  A dark click in a clicked detector's other
    channel is left out: 1 - (1 - p_dark / 2)^4 = 4e-5 of the Rb acceptance
    at 100 Hz (ROADMAP item 22, a test bounds it).  Entry k has probability
    p_k, its row of W summed in group order, and the row as its post-state,
    whose branches (W[k, g] / p_k, s_g) are built when first read.  Rows of
    probability 0 drop.
    """
    if layout.key != ClickLayout.key_of(network):
        raise NetworkError("the click layout was built for other detectors")
    return layout.entries(*layout.fill(network.detectors))


class ClickLayout:
    """The click stage of one group set for the detectors of one ``key_of``,
    which no (eta, q) of theirs changes: the states W's columns weigh, each
    fold's W cell and the factor slots of its channels' clicks and misses,
    the patterns each dark step empties and fills, the sorted patterns, and
    which cells of W any (eta, q) can fill (``reach``).  ``fill`` fills W,
    which ``entries`` and ``score`` read; ``class_scores`` keeps the class
    scores ``score`` built, per target (bytes of t, n), and ``gathers`` the
    groups each accepted column reaches, per tuple of accepted columns."""

    def __init__(self, groups, key: tuple):
        self.states = [s for _, _, s in groups]
        self.key = key
        self.class_scores: dict[tuple, tuple[list[int], np.ndarray]] = {}
        self.gathers: dict[tuple, tuple] = {}
        options = {(did, pol): [(1 << 2 * i + j, 0)] * hit + [(0, 1)] * miss  # (bit, slot offset)
                   for i, (did, _, hit, miss, _) in enumerate(key) for j, pol in enumerate("HV")}
        self.slots: dict[tuple, int] = {}  # (channel, photons) -> click slot; miss is next
        folds = []  # (code, group, factor slots)
        for g, (config, _, _) in enumerate(groups):
            fold = [(0, ())]
            for channel, n in config:
                if channel not in options:  # a loss sink's photons: no factor
                    continue
                s = self.slots.setdefault((channel, n), 2 * len(self.slots))
                fold = [(code | b, f + (s + m,)) for code, f in fold for b, m in options[channel]]
            folds += [(code, g, f) for code, f in fold]
        codes, cols, picks = zip(*folds) if folds else ((), (), ())
        self.weights = np.array([p for _, p, _ in groups])[list(cols)]
        width = max(map(len, picks), default=0)  # short folds end on the slot of 1.0
        self.picks = np.array([f + (2 * len(self.slots),) * (width - len(f)) for f in picks],
                              dtype=np.intp).reshape(len(picks), width).T.copy()
        table, steps = set(codes), []  # (detector, empty codes, codes each label fills)
        for i in (i for i, (*_, dark) in enumerate(key) if dark):
            empty = [c for c in table if c >> 2 * i & 3 == 0]
            steps.append((i, empty, *([c | label << 2 * i for c in empty] for label in (1, 2))))
            table.update(*steps[-1][2:])
        records = [[DetectionRecord(did, o) for o in ("none", *labels, "both")]
                   for did, labels, *_ in key]
        pattern = {c: tuple(records[i][c >> 2 * i & 3] for i in range(len(key)))
                   for c in table}
        order = sorted(table, key=lambda c: [r.outcome for r in pattern[c]])
        self.patterns = [pattern[c] for c in order]
        self.accepted = [all(r.outcome not in ("none", "both") for r in p) for p in self.patterns]
        row, size = dict(zip(order, range(len(order)))), len(order)
        self.cells = np.array(cols, dtype=np.intp) * size + [row[c] for c in codes]  # of W.flat
        self.reach = reach = np.zeros((len(groups), size), dtype=bool)  # W is groups x patterns
        reach.flat[self.cells] = True
        self.dark = []  # (detector, the cells it empties, the cells each label fills)
        for i, *parts in steps:
            empty, *fills = ([row[c] for c in part] for part in parts)
            g, k = np.nonzero(reach[:, empty])
            self.dark.append((i, *(g * size + np.array(rows, dtype=np.intp)[k]
                                   for rows in (empty, *fills))))
            for rows in fills:
                reach[:, rows] |= reach[:, empty]

    @functools.cached_property
    def registers(self) -> tuple[set, np.ndarray, np.ndarray]:
        """The states' atom counts, register rows S and squared norms, built
        when a correction search first reads them."""
        counts = {s.n_atoms for s in self.states}
        rows = [_qubit_amplitudes(s)[0] for s in self.states] if len(counts) == 1 else []
        return counts, np.array(rows), np.array([s.norm2() for s in self.states])

    @staticmethod
    def key_of(network: NetworkConfig) -> tuple:
        """(id, labels, can click, can miss, fires dark) of each detector."""
        return tuple((d.id, d.labels, d.efficiency > 0.0, d.efficiency < 1.0,
                      d.dark_probability > 0.0) for d in network.detectors)

    def fill(self, detectors) -> tuple[np.ndarray, np.ndarray]:
        """W at the detectors' (eta, q) and its column sums (the probabilities)."""
        factors = np.ones(2 * len(self.slots) + 1)
        eta = {d.id: d.efficiency for d in detectors}
        for ((did, _), n), s in self.slots.items():
            miss = (1.0 - eta[did]) ** n
            factors[s], factors[s + 1] = 1.0 - miss, miss
        w = np.zeros((len(self.states), len(self.patterns)))
        cells = w.ravel()  # the channels multiply in fold order: axis 0 reduces in order
        cells[self.cells] = factors[self.picks].prod(axis=0) * self.weights
        for i, empty, *fills in self.dark:  # a step's cells are distinct
            q = detectors[i].dark_probability
            dark = cells[empty] * (q / 2.0)
            cells[empty] *= 1.0 - q
            for filled in fills:
                cells[filled] += dark
        return w, _column_sums(w)

    def entries(self, w: np.ndarray, probs: np.ndarray) -> list[OutcomeTableEntry]:
        """The outcome table of a ``fill``'s W and column sums."""
        live = np.flatnonzero(probs)
        return [OutcomeTableEntry(self.patterns[k], p, _Row(self, w, k, p), self.accepted[k])
                for k, p in zip(live.tolist(), probs[live].tolist())]

    def score(self, w: np.ndarray, ks, p: np.ndarray, target: SparseHybridState) -> tuple:
        """Best Pauli masks and fidelities of W's columns ``ks``, of probabilities ``p``,
        then the total probability and mean fidelity, each a Python sum in order.

        Every (entry, class) fidelity of the classes whose O column is built
        is one array pass (``_class_fidelities``) over the groups each column
        reaches (``gathers``); the first-better rule then walks them class by
        class on Python floats.  A walk that needs a class past them builds
        its column and scores it alone, so a walk builds the columns it
        reaches and no more."""
        n, (t, on_register) = target.n_atoms, _qubit_amplitudes(target)
        if not on_register:
            raise StateError("correction target holds a photon or a level outside (G, E)")
        counts, dense, norm2 = self.registers
        if counts != {n}:
            raise StateError("correction target and branch differ in atom count")
        ks = tuple(ks)
        if ks not in self.gathers:
            self.gathers[ks] = self._gather(ks, norm2)
        flat, rows, pad, row_norm2 = self.gathers[ks]
        branch = w.take(flat) / p  # the columns' branch weights, 0 past each column's groups
        branch[pad] = 0.0
        weight, coeff = _column_sums(branch), branch / row_norm2
        key = (t.tobytes(), n)  # the classes' first masks in walk order, and O's columns
        if key not in self.class_scores:  # as rows: a view of O, groups x classes in C order
            self.class_scores[key] = (list(_correction_candidates(n, _stabilizers(*key)[1])),
                                      np.empty((0, len(dense))))
        masks, columns = self.class_scores[key]
        best = [(-1.0, 0)] * len(ks)  # (fidelity, mask) of each entry
        if ks and len(columns):
            fids = _class_fidelities(coeff, columns.T.take(rows, axis=0), weight).tolist()
            best = [_first_better(entry, row, masks) for entry, row in zip(best, fids)]
        built, conj_t = [], np.conj(t)  # Z and X are real, so they commute with conj
        for mask in masks[len(columns):] if ks else ():
            if all(f >= CORRECTABLE_FIDELITY for f, _ in best):
                break
            image = _pauli_image(conj_t, mask & (t.size - 1), mask >> n)
            built.append(np.abs(dense @ image) ** 2)
            fids = _class_fidelities(coeff, built[-1][rows][:, :, None], weight).tolist()
            best = [_first_better(entry, row, [mask]) for entry, row in zip(best, fids)]
        if built:
            self.class_scores[key] = masks, np.column_stack([columns.T, *built]).T
        fids, best_mask = [f for f, _ in best], [m for _, m in best]
        p = p.tolist()
        acceptance, fid = sum(p, 0.0), sum((a * f for a, f in zip(p, fids)), 0.0)
        return best_mask, fids, acceptance, fid / acceptance if acceptance > 0 else 0.0

    def _gather(self, ks: tuple, norm2: np.ndarray) -> tuple:
        """The groups each column of ``ks`` reaches, in group order, one array
        column each, padded at the end with group 0: their W.flat indices and
        groups, the padding's positions, and the groups' squared norms."""
        reached = [np.flatnonzero(self.reach[:, k]) for k in ks]
        rows = np.zeros((max(map(len, reached), default=0), len(ks)), dtype=np.intp)
        pad = np.ones(rows.shape, dtype=bool)
        for j, groups in enumerate(reached):
            rows[:len(groups), j], pad[:len(groups), j] = groups, False
        flat = rows * len(self.patterns) + np.array(ks, dtype=np.intp)
        return flat, rows, np.nonzero(pad), norm2[rows]


def _class_fidelities(coeff: np.ndarray, block: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Fidelity of each (entry, class): sum_g coeff[g, j] block[g, j, c], the
    groups added in order, over the entry's weight.  ``block`` is overwritten."""
    rows, entries, classes = block.shape
    np.multiply(block, coeff[:, :, None], out=block)  # no second array of the block's size
    sums = _column_sums(block.reshape(rows, entries * classes))
    return sums.reshape(entries, classes) / weight[:, None]


def _first_better(best: tuple, fids: list, masks: list) -> tuple:
    """An entry's (fidelity, mask) after a walk over ``fids`` of the classes
    of ``masks``: a class replaces the best when it beats it by 1e-15, and
    the entry closes at ``CORRECTABLE_FIDELITY``."""
    fid, mask = best
    if fid < CORRECTABLE_FIDELITY:
        for f, m in zip(fids, masks):
            if f > fid + 1e-15:
                fid, mask = f, m
                if fid >= CORRECTABLE_FIDELITY:
                    break
    return fid, mask


class _Row:
    """Row k of its ``layout``'s W as a post-state: branches (W[k, g] / p_k,
    s_g) over its nonzero columns, in group order, built when first read."""

    def __init__(self, layout: ClickLayout, w: np.ndarray, k: int, p: float):
        self.layout, self.w, self.k, self.p = layout, w, k, p

    @functools.cached_property
    def branches(self):
        row = self.w[:, self.k]
        cols = np.flatnonzero(row)
        return list(zip((row[cols] / self.p).tolist(), [self.layout.states[g] for g in cols]))


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Column sums that add each column's rows in order, as Python's ``sum``:
    numpy adds in order along an axis that is not the fast one in memory,
    but pairwise along the fast one, as a single column's axis 0 is."""
    return np.cumsum(a, axis=0)[-1] if a.shape[1] == 1 and len(a) else a.sum(axis=0)


def _group_terms(state: SparseHybridState, det_rails: tuple, sinks: frozenset):
    """config -> sigma -> atom label -> summed amplitude, over the terms of
    ``state`` in order (see ``_detection_image``)."""
    # one flat dict keyed by (config, sigma), nested afterwards: each group
    # keeps its order of first appearance
    by_image: dict[tuple, dict[BasisLabel, complex]] = {}
    for label, amp in state.terms.items():
        image = _detection_image(label.occ, det_rails, sinks)
        dst = by_image.get(image)
        if dst is None:
            dst = by_image[image] = {}
        atom_label = BasisLabel(label.atoms, ())
        dst[atom_label] = dst.get(atom_label, 0.0) + amp
    by_config: dict[tuple, dict[tuple, dict[BasisLabel, complex]]] = {}
    for (config, sigma), dst in by_image.items():
        by_config.setdefault(config, {})[sigma] = dst
    return by_config


def _detection_image(occ, det_rails: tuple[tuple[int, str], ...], sinks=frozenset()):
    """(config, sigma) of ``occ`` at the detectors with (rail, id) ``det_rails``.

    ``config`` is the sorted ((detector id, pol), photon count) pairs, then
    the (mode, count) pairs on the loss ``sinks`` in occupation order, and
    ``sigma`` the sorted source tags of each detector channel, in order.
    """
    id_by_rail = dict(det_rails)
    untagged: dict[tuple[str, str], int] = {}
    tagged: dict[tuple[str, str], list] = {}
    lost = []
    for mode, count in occ:
        if mode.rail in sinks:
            lost.append((mode, count))
            continue
        did = id_by_rail.get(mode.rail)
        if did is None:
            raise NetworkError(f"photon amplitude on unterminated rail {mode.rail}")
        if mode.pol not in ("H", "V"):
            raise NetworkError(f"{mode.pol}-polarized photon at the detector on rail {mode.rail}")
        key = (did, mode.pol)
        untagged[key] = untagged.get(key, 0) + count
        tagged.setdefault(key, []).extend([mode.src] * count)
    config = tuple(sorted(untagged.items()))
    sigma = tuple(tuple(sorted(tagged[k], key=lambda s: -1 if s is None else s))
                  for k, _ in config)
    return config + tuple(lost), sigma


def propagate(state: SparseHybridState, network: NetworkConfig) -> SparseHybridState:
    """Apply the passive elements (plates, beam splitters, loss) in order."""
    sinks = iter(network.sinks)
    for el in network.elements:
        if isinstance(el, QWP):
            state = apply_qwp(state, el.rail)
        elif isinstance(el, HWP):
            state = apply_hwp(state, el.rail, el.angle_deg)
        elif isinstance(el, PBS):
            state = apply_pbs(state, el.in_a, el.in_b, el.out_1, el.out_2)
        elif isinstance(el, Loss):
            state = apply_loss(state, el.rail, el.transmission, next(sinks))
    return state


def run_network(state, network: NetworkConfig, overlaps=None) -> list[OutcomeTableEntry]:
    """Apply all passive elements in order, then enumerate detector outcomes."""
    return detect_all(propagate(state, network), network, overlaps=overlaps)


# ----------------------------------------------------------------------
# corrections
# ----------------------------------------------------------------------
def _correction_candidates(n_atoms: int, basis: dict[int, int]):
    """The first Pauli of each coset class of ``basis``'s span, as its mask
    a | b << n_atoms (X^a Z^b, bit i on atom i), in the order of the walk.

    The walk takes I/Z products first (cheap and usually sufficient), then
    I < Z < X < XZ on every atom, atom 0 most significant.  Each pass yields
    the first mask of each class in walk order, skipping the classes the
    first pass yielded; it is computed once per (n, basis).
    """
    for width in (2, 4):
        yield from _pass_firsts(n_atoms, tuple(basis.items()), width)


@functools.lru_cache(maxsize=16)
def _pass_firsts(n_atoms: int, basis: tuple, width: int) -> list[int]:
    """One pass of the walk over the first ``width`` of I, Z, X, XZ on every
    atom: one array of masks, keyed by ``_reduce`` at once."""
    choices = np.array([0, 1 << n_atoms, 1, 1 | 1 << n_atoms], dtype=np.int64)[:width]
    masks = np.zeros(1, dtype=np.int64)
    for i in range(n_atoms):
        masks = (masks[:, None] | choices << i).ravel()
    keys = _reduce(masks, dict(basis))
    seen = keys[masks & ((1 << n_atoms) - 1) == 0] if width == 4 else keys[:0]  # the I/Z pass
    # first index of each key with the seen keys ahead: a seen key's is negative
    first = np.unique(np.concatenate([seen, keys]), return_index=True)[1] - seen.size
    return masks[np.sort(first[first >= 0])].tolist()


def _qubit_amplitudes(state: SparseHybridState) -> tuple[np.ndarray, bool]:
    """The projection of ``state`` on the (G, E) register, atom i as bit i
    (E = 1), and whether every term lies on it: a term holding a photon or a
    level outside the qubit pair is left out of the projection."""
    size = 1 << state.n_atoms
    vec = np.zeros(size, dtype=complex)
    on_register = True
    for label, amp in state.terms.items():
        index = 0
        for i, level in enumerate(label.atoms):
            index |= _QUBIT_INDEX.get(level, size) << i  # another level: past the end
        if label.occ or index >= size:
            on_register = False
        else:
            vec[index] = amp
    return vec, on_register


def _pauli_image(vec: np.ndarray, a: int, b: int) -> np.ndarray:
    """X^a Z^b ``vec`` on the register: (-1)^popcount(b & (y ^ a)) vec[y ^ a]."""
    z = np.arange(vec.size) ^ a
    return np.where(np.bitwise_count(z & b) & 1, -vec[z], vec[z])


def _walsh_hadamard(f: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of each row (length 2^n):
    out[r, b] = sum_y (-1)^popcount(b & y) f[r, y]."""
    rows, size = f.shape
    f = f.copy()
    h = 1
    while h < size:
        pairs = f.reshape(rows, size // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return f


def stabilizer_group(state: SparseHybridState) -> list[tuple[int, int]]:
    """The Paulis X^a Z^b that fix ``state`` up to a phase, as (a, b) bit masks.

    Bit i of ``a`` (``b``) puts X (Z) on atom i.  A Pauli belongs when
    |<t|X^a Z^b|t>| >= (1 - STABILIZER_TOL) <t|t>.  The expectations over
    every shift a and every b are one Walsh-Hadamard transform of the rows
    conj(t(y ^ a)) t(y): O(n 4^n) array work on 4^n entries (16 MiB at 10
    atoms).  A state that is not qubit-only, or whose members do not form a
    group, gets the trivial group [(0, 0)].
    """
    t, on_register = _qubit_amplitudes(state)
    return list(_stabilizers(t.tobytes(), state.n_atoms)[0]) if on_register else [(0, 0)]


@functools.lru_cache(maxsize=16)
def _stabilizers(t_bytes: bytes, n_atoms: int) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The stabilizer group of the register vector with bytes ``t_bytes`` and
    its ``_echelon_basis``, once per vector (the caller copies neither)."""
    t = np.frombuffer(t_bytes, dtype=complex)
    norm2 = float(np.vdot(t, t).real)
    y = np.arange(t.size)
    expect = _walsh_hadamard(np.conj(t[y[:, None] ^ y[None, :]]) * t[None, :])
    a_idx, b_idx = np.nonzero(np.abs(expect) >= (1.0 - STABILIZER_TOL) * norm2)
    members = [(int(a), int(b)) for a, b in zip(a_idx, b_idx)]
    basis = _echelon_basis(members, n_atoms)
    if 1 << len(basis) != len(members):
        return [(0, 0)], {}
    return members, basis


def _echelon_basis(paulis, n_atoms: int) -> dict[int, int]:
    """GF(2) row-echelon basis of (a, b) masks packed as a | b << n_atoms,
    keyed by each vector's highest set bit."""
    basis: dict[int, int] = {}
    for a, b in paulis:
        v = _reduce(a | b << n_atoms, basis)
        if v:
            basis[v.bit_length() - 1] = v
            basis = dict(sorted(basis.items(), reverse=True))
    return basis


def _reduce(v, basis: dict[int, int]):
    """``v`` with every pivot bit of ``basis`` (pivots descending) cleared:
    one key per coset of its span.  Branch-free, so ``v`` is an int or an
    integer array, reduced elementwise."""
    for pivot, row in basis.items():
        v = v ^ (v >> pivot & 1) * row
    return v


def correction_table(entries: list[OutcomeTableEntry],
                     target: SparseHybridState) -> tuple[float, float]:
    """Search single-atom Z/X products maximizing corrected fidelity to ``target``.

    Rejected entries are skipped.  With an entry accepted, a target off the
    (G, E) register or of another atom count than the branches is a
    StateError, and so are accepted entries of more than one table.

    Paulis are Hermitian, so |<t|P_k..P_1 s>|^2 = |<P_1..P_k t|s>|^2: a
    candidate acts on the target (ops reversed), not on every branch.  Up to
    a sign, which no score sees, it is X^a Z^b (bit i of a or b for an odd
    count of X or Z on atom i): on the 2^n register, an index permutation
    and a sign (``_pauli_image``).  Candidates whose product fixes the target
    up to a phase score alike, so they fall into cosets of
    ``stabilizer_group(target)``: 2^n classes for an n-atom stabilizer state.

    The layout's ``score`` reads W's accepted columns, all of one
    ``click_entries`` call, and S, the layout's register rows; a term off
    the register adds only to a row's norm.  ``_correction_candidates``
    yields each class c once, as the (a, b) mask of its first member, and
    O[g, c] = |S_g P_c conj(t)|^2 (``class_scores``) scores it for every
    entry: sum_g W[k, g] / p_k O[g, c] / <s_g|s_g>, over the entry's weight,
    1 to rounding, the sum over the groups column k can reach (``gathers``)
    in group order.  The classes whose O column an earlier walk built are
    scored in one array pass, the rest one at a time as the walk reaches
    them.  Later members agree
    with the first to rounding, inside the 1e-15 margin a candidate needs to
    beat an entry's best, a rule applied class by class on Python floats.
    An entry closes at ``CORRECTABLE_FIDELITY``; the
    walk ends when all are closed or every class is scored.  Each entry gets
    the Pauli of its own full 4^n walk, as ops (atom, "X" or "Z") in atom
    order, X before Z on one atom.  Annotates the accepted entries in place
    and returns their total probability and probability-weighted mean
    corrected fidelity, ``(0.0, 0.0)`` when none is accepted.
    """
    accepted = [e for e in entries if e.accepted]
    if not accepted:
        return 0.0, 0.0
    posts = [e.post_state for e in accepted]
    if any(r.w is not posts[0].w for r in posts):
        raise StateError("correction entries come from more than one table")
    ks, p = [r.k for r in posts], np.array([r.p for r in posts])
    masks, fids, acceptance, fid = posts[0].layout.score(posts[0].w, ks, p, target)
    annotate(accepted, masks, fids, target.n_atoms)
    return acceptance, fid


def annotate(entries: list[OutcomeTableEntry], masks, fids, n: int) -> list[OutcomeTableEntry]:
    """Give the accepted entries, in order, their Pauli masks' ops and fidelities."""
    for entry, mask, fid in zip((e for e in entries if e.accepted), masks, fids):
        entry.correction = [(i, name) for i in range(n)
                            for name, bit in (("X", i), ("Z", n + i)) if mask >> bit & 1]
        entry.corrected_fidelity = fid
        entry.correctable = fid >= CORRECTABLE_FIDELITY
    return entries


# ----------------------------------------------------------------------
# canned networks
# ----------------------------------------------------------------------
def default_four_atom_network(detector_efficiency: float = 1.0,
                              dark_probability: float = 0.0) -> NetworkConfig:
    """Four-cavity network: QWPs, three PBS stages, diagonal-basis detectors.

    Rails 1-4 are the cavity outputs; 5-10 are internal (PBS1 -> 5, 6;
    PBS2 -> 7, 8; PBS3 -> 9, 10).  Each PBS stage halves the acceptance, so
    the total heralded probability is 1/8.
    """
    return NetworkConfig((
        QWP(1), QWP(2), QWP(3), QWP(4),
        PBS(1, 2, 5, 6),
        PBS(3, 4, 7, 8),
        HWP(5, HADAMARD_HWP_DEG),
        HWP(6, HADAMARD_HWP_DEG),
        HWP(8, HADAMARD_HWP_DEG),
        PBS(6, 7, 9, 10),
        HWP(9, HADAMARD_HWP_DEG),
        HWP(10, HADAMARD_HWP_DEG),
        Detector(5, "D1", detector_efficiency, dark_probability, ("D", "A")),
        Detector(9, "D2", detector_efficiency, dark_probability, ("D", "A")),
        Detector(10, "D3", detector_efficiency, dark_probability, ("D", "A")),
        Detector(8, "D4", detector_efficiency, dark_probability, ("D", "A")),
    ))


def parity_check_network(detector_efficiency: float = 1.0,
                         dark_probability: float = 0.0) -> NetworkConfig:
    """Single PBS with two diagonal-basis detectors: the two-photon parity
    check / fusion stage, rails 1 and 2 into 3 and 4."""
    return NetworkConfig((
        QWP(1), QWP(2),
        PBS(1, 2, 3, 4),
        HWP(3, HADAMARD_HWP_DEG),
        HWP(4, HADAMARD_HWP_DEG),
        Detector(3, "DI", detector_efficiency, dark_probability, ("D", "A")),
        Detector(4, "DII", detector_efficiency, dark_probability, ("D", "A")),
    ))


# ----------------------------------------------------------------------
# serialization (order-significant structured text)
# ----------------------------------------------------------------------
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
               "integer": int, "null": type(None)}


def _is_type(x, name: str) -> bool:
    """JSON Schema's type test: a bool is no number, an integral float is an integer."""
    if name == "integer" and isinstance(x, float):
        return x.is_integer()
    return isinstance(x, _JSON_TYPES[name]) and not isinstance(x, bool)


def _schema_errors(doc, schema: dict, path: tuple = ()):
    """``(path, message)`` of each error, worded and ordered as the reference
    Python JSON Schema validator gives them, for the keywords ``cli``'s
    ``CONFIG_SCHEMA`` and the layout schemas use.  An integral float in an
    integer field is stored back as an ``int``."""
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [])
    num, obj, arr = _is_type(doc, "number"), isinstance(doc, dict), isinstance(doc, list)
    for key, want in schema.items():
        errors = []
        if key == "type" and not any(_is_type(doc, t) for t in types):
            errors = [f"{doc!r} is not of type {', '.join(map(repr, types))}"]
        elif key == "enum" and doc not in want:
            errors = [f"{doc!r} is not one of {want!r}"]
        elif key == "minimum" and num and doc < want:
            errors = [f"{doc!r} is less than the minimum of {want!r}"]
        elif key == "maximum" and num and doc > want:
            errors = [f"{doc!r} is greater than the maximum of {want!r}"]
        elif key == "exclusiveMinimum" and num and doc <= want:
            errors = [f"{doc!r} is less than or equal to the minimum of {want!r}"]
        elif key == "required" and obj:
            errors = [f"{name!r} is a required property" for name in want if name not in doc]
        elif key == "additionalProperties" and obj and want is False:
            extra = sorted(k for k in doc if k not in schema.get("properties", {}))
            errors = [f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                      f"{'was' if len(extra) == 1 else 'were'} unexpected)"] if extra else []
        elif key == "minItems" and arr and len(doc) < want:
            errors = [f"{doc!r} {'should be non-empty' if want == 1 else 'is too short'}"]
        elif key == "maxItems" and arr and len(doc) > want:
            errors = [f"{doc!r} {'is expected to be empty' if want == 0 else 'is too long'}"]
        elif key == "items" and arr:
            for i, item in enumerate(doc):
                yield from _schema_errors(item, want, path + (i,))
        elif key == "properties" and obj:
            for name, sub in want.items():
                if name in doc:
                    yield from _schema_errors(doc[name], sub, path + (name,))
                    # "integer" is in a type list, or in no type name but its own
                    if "integer" in sub.get("type", ()) and _is_type(doc[name], "integer"):
                        doc[name] = int(doc[name])
        for message in errors:
            yield path, message


def schema_error(doc, schema: dict, path: tuple = ()) -> str | None:
    """``"<path>: <message>"`` of the reference validator's best match, or ``None``:
    the shallowest error, then the last path, then the first.  Its type-misfit
    tie-break never decides: errors at one path meet one subschema and agree on it."""
    best = max(_schema_errors(doc, schema, path), default=None,
               key=lambda e: (-len(e[0]), e[0]))
    return None if best is None else f"{'/'.join(map(str, best[0])) or '<root>'}: {best[1]}"


#: JSON Schema of an element field, by its annotation.
_FIELD_SCHEMAS = {"int": {"type": "integer"}, "float": {"type": "number"}, "str": {"type": "string"},
                  "tuple[str, str]": {"type": "array", "items": {"type": "string"}}}
#: JSON ``type`` (the class name lowercased) -> (element class, JSON Schema of
#: its record), built at import: a field type with no schema fails here.
_ELEMENT_TYPES = {cls.__name__.lower(): (cls, {
    "type": "object",
    "properties": {"type": {"enum": [cls.__name__.lower()]},
                   **{f.name: _FIELD_SCHEMAS[f.type] for f in fields(cls)}},
    "required": ["type", *(f.name for f in fields(cls) if f.default is MISSING)],
    "additionalProperties": False}) for cls in typing.get_args(Element)}
_RECORD_SCHEMA = {"type": "object", "properties": {"type": {"enum": list(_ELEMENT_TYPES)}},
                  "required": ["type"]}
_LAYOUT_SCHEMA = {"type": "object", "properties": {"elements": {"type": "array"}},
                  "required": ["elements"]}


def _check_layout(doc, schema: dict, path: tuple = ()) -> None:
    error = schema_error(doc, schema, path)
    if error is not None:
        raise NetworkError(f"layout field {error}")


def _element_from_dict(doc, index: int) -> Element:
    _check_layout(doc, _RECORD_SCHEMA, ("elements", index))
    cls, schema = _ELEMENT_TYPES[doc["type"]]
    _check_layout(doc, schema, ("elements", index))
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in doc.items() if name != "type"})


def _finite_float(text: str) -> float:
    """``json``'s hook for NaN, Infinity and -Infinity and for every literal
    with a fraction or exponent, of which one beyond the float range
    (``1e400``) reads as infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def bounded_int(text: str) -> int:
    """``json``'s hook for integer literals: one of more than 4,300 digits is
    refused before ``int`` meets Python's conversion limit, whose own error
    advises an interpreter call that a command-line user cannot make."""
    digits = len(text.lstrip("-"))
    if digits > 4300:
        raise ValueError(f"integer literal of {digits} digits is too long")
    return int(text)


def network_to_json(net: NetworkConfig) -> str:
    return json.dumps({"elements": [{"type": type(el).__name__.lower(), **asdict(el)}
                                    for el in net.elements]}, indent=2, sort_keys=True)


def network_from_json(text: str | bytes) -> NetworkConfig:
    """The layout a JSON document (text, or UTF-8 bytes) spells; a document
    that does not spell one as written (undecodable, non-finite numbers, an
    overlong integer, an unknown field, a value of the wrong type) is a
    ``NetworkError``."""
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float,
                         parse_int=bounded_int)
    except ValueError as exc:
        raise NetworkError(f"malformed network document: {exc}") from exc
    _check_layout(doc, _LAYOUT_SCHEMA)
    return NetworkConfig(tuple(_element_from_dict(d, i) for i, d in enumerate(doc["elements"])))
