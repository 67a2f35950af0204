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
``click_entries`` (the click POVM as one pattern-by-group matrix, dark
counts, the sorted outcome table); ``detect_all`` is the last two.  So a
caller that changes only the detectors can reuse the grouped states.
``correction_table`` is the tail of every heralded table: it corrects each
accepted pattern, with any measured atoms dropped, and returns the
acceptance and mean fidelity.

A layout's ``Loss`` branches the state (``apply_loss``); the built-in networks
have none (``protocol.round_network``).  Detector efficiency does not: a
channel holding n photons clicks with probability 1 - (1 - eta)^n, which
scales each photon-number configuration, not its conditional atom state.

Photons carrying distinct source tags are treated as distinct modes; at
detection, coherence between source assignments is weighted by the supplied
overlap matrix (partial-distinguishability model): the Hermitian Gram matrix
of the sources' temporal envelopes, ``ImperfectionModel.overlaps``, read as
``overlaps[a, b]`` for the photons tagged a and b.  Two-photon modes use
sorted pairwise overlap matching, an approximation that ROADMAP item 3
describes.  Click factors multiply that decomposition as it stands before any
photon is lost (a layout's ``Loss`` acts before it), so with tagged photons
and eta < 1 the pattern probabilities keep their eta = 1 sum.

Loss and detection act on a term's photon occupation alone, and a round's
state holds many terms that share one.  So each distinct occupation is mapped
once by a cached pure helper (``_loss_images``, ``_detection_image``, bounded
by ``hilbert._IMAGE_CACHE_SIZE``) into tuples, and the ops multiply the same
factors in the same order and insert in term order, as a per-term loop would.
A refused input (an unterminated rail) raises on every call.
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
    MixedEnsemble,
    SparseHybridState,
    StateError,
    _IMAGE_CACHE_SIZE,
    _QUBIT_INDEX,
    _canonical_occ,
    apply_rail_jones,
    as_ensemble,
    drop_atoms,
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


def apply_loss(obj, rail: int, transmission: float) -> MixedEnsemble:
    """Per-photon beamsplitter loss on one rail, branching into a mixture.

    Branch states are unnormalized: each branch's probability is its weight
    times its squared norm, so coherences within a branch are preserved.
    Transmission 1 leaves each input branch one branch with the same terms.
    """
    if not 0.0 <= transmission <= 1.0:
        raise StateError("transmission must be in [0, 1]")
    eta = transmission
    out = MixedEnsemble()
    for w, state in as_ensemble(obj).branches:
        branches: dict[tuple, dict[BasisLabel, complex]] = {}
        for label, amp in state.terms.items():
            for key, occ, factor in _loss_images(label.occ, rail, eta):
                dst = branches.setdefault(key, {})
                new_label = BasisLabel(label.atoms, occ)
                dst[new_label] = dst.get(new_label, 0.0) + amp * factor
        for terms in branches.values():
            out.add(w, SparseHybridState(state.n_atoms, state.rails, terms, prune_eps=0.0))
    return out


@functools.lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def _loss_images(occ, rail: int, eta: float):
    """((branch key, kept occupation, amplitude factor), ...) of ``occ``: one
    record per choice of lost count for each mode on ``rail``, the last mode
    varying fastest, with records of factor 0 left out.  The branch key lists
    the (mode sort key, lost count) pairs with a loss."""
    modes = [(m, c) for m, c in occ if m.rail == rail]
    images = []
    for losses in iter_product(*[range(c + 1) for _, c in modes]):
        factor = 1.0
        kept_occ = dict(occ)
        for (mode, _), lost in zip(modes, losses):
            n = kept_occ[mode]
            kept = n - lost
            factor *= math.sqrt(math.comb(n, lost)) \
                * eta ** (kept / 2.0) * (1.0 - eta) ** (lost / 2.0)
            if kept:
                kept_occ[mode] = kept
            else:
                del kept_occ[mode]
        if factor == 0.0:
            continue
        key = tuple(sorted((m.sort_key(), k) for (m, _), k in zip(modes, losses) if k))
        images.append((key, _canonical_occ(kept_occ), factor))
    return tuple(images)


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
    post_state: MixedEnsemble  # states normalized, weights sum to 1
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


def detect_all(obj, network: NetworkConfig, overlaps=None) -> list[OutcomeTableEntry]:
    """Enumerate all polarization-resolved click patterns with exact probabilities.

    The input must have every surviving photon on a detector rail.
    """
    return click_entries(group_states(obj, network, overlaps), network)


def group_states(obj, network: NetworkConfig, overlaps=None) -> tuple:
    """((config, weight, normalized atom state), ...) per branch, config and
    eigen-component of the config's source-assignment overlap Gram matrix, in
    that loop order; zero weights are left out.  Reads no detector's
    efficiency or dark probability.  Photons with source tags need the
    ``overlaps`` matrix their tags index; untagged ones have one source
    assignment per config and read none."""
    if not network.detectors:
        raise NetworkError("network declares no detectors")
    det_rails = tuple((d.rail, d.id) for d in network.detectors)
    groups = []
    for w, state in as_ensemble(obj).branches:
        for config, sigma_groups in _group_terms(state, det_rails).items():
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
                s_atoms = SparseHybridState(state.n_atoms, frozenset(), terms,
                                            prune_eps=0.0)
                p_sub = w * lam * s_atoms.norm2()
                if p_sub > 0.0:
                    groups.append((config, p_sub, s_atoms.normalized()))
    return tuple(groups)


def click_entries(groups, network: NetworkConfig) -> list[OutcomeTableEntry]:
    """Fresh outcome table of ``group_states`` records, sorted by pattern.

    The click POVM factorizes over detectors: the stage is one matrix W over
    the reachable patterns and the groups, W[k, g] = p_g prod_d P_d(k_d | n_gd).
    A pattern is the set of channels that clicked, bit 2i + j for channel j
    (H, V) of detector i; digit i reads "none", label 0, label 1 or "both",
    which ``NetworkConfig`` keeps distinct.  Each group's factors are folded
    over its config's channels from 1.0 (n photons miss with (1 - eta)^n, a
    zero factor drops the branch), and p_g multiplies last.  Dark counts then
    act on W's rows detector by detector: an empty detector fires either
    channel with probability p_dark / 2, and rows that land on one pattern
    are summed.  A dark click in a clicked detector's other channel, which
    would read "both" and reject the pattern, is left out: 1 - (1 - p_dark /
    2)^4 = 4e-5 of the Rb acceptance at 100 Hz (ROADMAP item 22, a test
    bounds it).  Entry k has probability p_k, its row summed in group order,
    and the ensemble (W[k, g] / p_k, s_g) over the row's nonzero columns.
    """
    detectors = network.detectors
    channel = {(d.id, pol): (1 << 2 * i + j, d.efficiency)
               for i, d in enumerate(detectors) for j, pol in enumerate("HV")}
    codes, cols, vals = [], [], []
    for g, (config, p_g, _) in enumerate(groups):
        fold = [(0, 1.0)]  # (code, click factor)
        for key, n in config:
            bit, eta = channel[key]
            miss = (1.0 - eta) ** n
            fold = [(code | b, p * f) for code, p in fold
                    for b, f in ((bit, 1.0 - miss), (0, miss)) if f > 0.0]
        for code, p in fold:
            codes.append(code)
            cols.append(g)
            vals.append(p * p_g)
    row_of: dict[int, int] = {}  # code -> row of W
    rows = [row_of.setdefault(code, len(row_of)) for code in codes]
    # two bits per detector: past 31 detectors the codes are Python ints
    codes = np.array(list(row_of), dtype=np.int64 if len(detectors) < 32 else object)
    w = np.zeros((codes.size, len(groups)))
    w[rows, cols] = vals
    for i, q in enumerate(d.dark_probability for d in detectors):
        if q > 0.0:
            empty = (codes >> 2 * i & 3) == 0
            dark = w[empty] * (q / 2.0)
            w[empty] *= 1.0 - q
            parts = [(codes, w)] + [(codes[empty] | label << 2 * i, dark) for label in (1, 2)]
            codes = np.unique(np.concatenate([part for part, _ in parts]))
            w = np.zeros((codes.size, len(groups)))
            for part, part_rows in parts:  # a part's codes are distinct
                w[np.searchsorted(codes, part)] += part_rows

    records = [[DetectionRecord(d.id, o) for o in ("none", *d.labels, "both")] for d in detectors]
    patterns = [tuple(records[i][code >> 2 * i & 3] for i in range(len(detectors)))
                for code in codes.tolist()]
    order = sorted(range(codes.size), key=lambda k: [r.outcome for r in patterns[k]])
    w = w[order]
    rows, cols = np.nonzero(w)  # row by row, each in group order
    vals = w[rows, cols]
    ends = np.cumsum(np.count_nonzero(w, axis=1)).tolist()
    flat = vals.tolist()
    probs = [sum(flat[a:b]) for a, b in zip([0] + ends, ends)]
    weights = (vals / np.array(probs)[rows]).tolist()
    states = [groups[g][2] for g in cols.tolist()]
    return [OutcomeTableEntry(patterns[k], p, MixedEnsemble(list(zip(weights[a:b], states[a:b]))),
                              accepted=all(r.outcome not in ("none", "both") for r in patterns[k]))
            for k, p, a, b in zip(order, probs, [0] + ends, ends) if b > a]  # all-zero rows drop


def _group_terms(state: SparseHybridState, det_rails: tuple[tuple[int, str], ...]):
    """config -> sigma -> atom label -> summed amplitude, over the terms of
    ``state`` in order (see ``_detection_image``)."""
    # one flat dict keyed by (config, sigma), nested afterwards: each group
    # keeps its order of first appearance
    by_image: dict[tuple, dict[BasisLabel, complex]] = {}
    for label, amp in state.terms.items():
        image = _detection_image(label.occ, det_rails)
        dst = by_image.get(image)
        if dst is None:
            dst = by_image[image] = {}
        atom_label = BasisLabel(label.atoms, ())
        dst[atom_label] = dst.get(atom_label, 0.0) + amp
    by_config: dict[tuple, dict[tuple, dict[BasisLabel, complex]]] = {}
    for (config, sigma), dst in by_image.items():
        by_config.setdefault(config, {})[sigma] = dst
    return by_config


@functools.lru_cache(maxsize=_IMAGE_CACHE_SIZE)
def _detection_image(occ, det_rails: tuple[tuple[int, str], ...]):
    """(config, sigma) of ``occ`` at the detectors with (rail, id) ``det_rails``.

    ``config`` is the sorted ((detector id, pol), photon count) pairs and
    ``sigma`` the sorted source tags of each of its channels, in order.
    """
    id_by_rail = dict(det_rails)
    untagged: dict[tuple[str, str], int] = {}
    tagged: dict[tuple[str, str], list] = {}
    for mode, count in occ:
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
    return config, sigma


def propagate(obj, network: NetworkConfig) -> MixedEnsemble:
    """Apply the passive elements (plates, beam splitters, loss) in order."""
    ens = as_ensemble(obj)
    for el in network.elements:
        if isinstance(el, QWP):
            ens = ens.map_states(lambda s, el=el: apply_qwp(s, el.rail))
        elif isinstance(el, HWP):
            ens = ens.map_states(lambda s, el=el: apply_hwp(s, el.rail, el.angle_deg))
        elif isinstance(el, PBS):
            ens = ens.map_states(
                lambda s, el=el: apply_pbs(s, el.in_a, el.in_b, el.out_1, el.out_2))
        elif isinstance(el, Loss):
            ens = apply_loss(ens, el.rail, el.transmission)
    return ens


def run_network(obj, network: NetworkConfig, overlaps=None) -> list[OutcomeTableEntry]:
    """Apply all passive elements in order, then enumerate detector outcomes."""
    return detect_all(propagate(obj, network), network, overlaps=overlaps)


# ----------------------------------------------------------------------
# corrections
# ----------------------------------------------------------------------
def _correction_candidates(n_atoms: int, basis: dict[int, int]):
    """The first Pauli of each coset class of ``basis``'s span, as its mask
    a | b << n_atoms (X^a Z^b, bit i on atom i), in the order of the walk.

    The walk takes I/Z products first (cheap and usually sufficient), then
    I < Z < X < XZ on every atom, atom 0 most significant.  Each pass is one
    array of masks, keyed by ``_reduce`` at once; a pass yields the first mask
    of each key in walk order, skipping the keys the first pass yielded.
    """
    choices = np.array([0, 1 << n_atoms, 1, 1 | 1 << n_atoms], dtype=np.int64)  # I, Z, X, XZ
    seen = np.empty(0, dtype=np.int64)
    for width in (2, 4):
        masks = np.zeros(1, dtype=np.int64)
        for i in range(n_atoms):
            masks = (masks[:, None] | choices[:width] << i).ravel()
        keys = _reduce(masks, basis)
        # first index of each key with the seen keys ahead: a seen key's is negative
        first = np.unique(np.concatenate([seen, keys]), return_index=True)[1] - seen.size
        yield from masks[np.sort(first[first >= 0])].tolist()
        seen = keys


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
    return _stabilizers(t, state.n_atoms)[0] if on_register else [(0, 0)]


def _stabilizers(t: np.ndarray, n_atoms: int) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The stabilizer group of the register vector ``t`` and its ``_echelon_basis``."""
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


def correction_table(entries: list[OutcomeTableEntry], target: SparseHybridState,
                     drop: tuple[int, ...] = ()) -> tuple[float, float]:
    """Search single-atom Z/X products maximizing corrected fidelity to ``target``.

    Each accepted entry is searched with the atoms at ``drop`` removed from
    every branch (``drop_atoms``, then renormalized): a fusion's measured
    atoms, which sit in one definite level.  Rejected entries are skipped.
    With an entry accepted, a target off the (G, E) register is a StateError.

    Paulis are Hermitian, so |<t|P_k..P_1 s>|^2 = |<P_1..P_k t|s>|^2: a
    candidate acts on the target (ops reversed), not on every branch.  Up to
    a sign, which no score sees, it is X^a Z^b (bit i of a or b for an odd
    count of X or Z on atom i): on the 2^n register, an index permutation
    and a sign (``_pauli_image``).  Two candidates whose product fixes the
    target up to a phase give the same corrected target up to that phase,
    hence the same fidelity; so the candidates fall into cosets of
    ``stabilizer_group(target)``, 2^n classes for an n-atom stabilizer state
    instead of 4^n Paulis.

    The whole table is scored in one walk over the classes.  Every distinct
    branch state (after the drop) becomes one row of its register
    amplitudes, once even when several patterns share it; a term off the
    register adds only to its norm.  ``_correction_candidates`` yields each
    class once, as the (a, b) mask of its first member in candidate order,
    for all entries.  The mask builds the class's corrected target t, and
    one product of the rows with conj(t) scores the class for every entry:
    sum_b w_b |<t|s_b>|^2 / <s_b|s_b> over the entry's branches, divided by
    the entry's total weight, which is 1 to rounding.  Later
    members of a class agree with its first to rounding, far inside the
    1e-15 margin a candidate needs to beat an entry's running best, so none
    is scored.  An entry is closed once it reaches ``CORRECTABLE_FIDELITY``,
    and the walk ends when every entry is closed or every class has been
    scored.  Each entry gets the Pauli of its own full 4^n walk, as ops
    (atom, "X" or "Z") in atom order, X before Z on one atom, and its
    fidelity to rounding.  Annotates the accepted entries in place and
    returns their total probability and probability-weighted mean corrected
    fidelity, ``(0.0, 0.0)`` when none is accepted.
    """
    accepted = [e for e in entries if e.accepted]
    if not accepted:
        return 0.0, 0.0
    n = target.n_atoms
    t, on_register = _qubit_amplitudes(target)
    if not on_register:
        raise StateError("correction target holds a photon or a level outside (G, E)")
    rows: dict[SparseHybridState, tuple[int, float]] = {}  # branch state -> (row, norm^2)
    amplitudes, row_of, coeff, owner, weight = [], [], [], [], []
    for k, entry in enumerate(accepted):
        for w, s in entry.post_state.branches:
            row = rows.get(s)
            if row is None:
                kept = drop_atoms(s, drop).normalized() if drop else s
                if kept.n_atoms != n:
                    raise StateError("correction target and branch differ in atom count")
                row = rows[s] = (len(rows), kept.norm2())
                amplitudes.append(_qubit_amplitudes(kept)[0])
            row_of.append(row[0])
            coeff.append(w / row[1])
            owner.append(k)
        weight.append(sum(w for w, _ in entry.post_state.branches) or 1.0)  # empty scores 0
    dense = np.array(amplitudes).reshape(len(rows), t.size)
    row_of = np.array(row_of, dtype=np.intp)
    coeff = np.array(coeff)
    owner = np.array(owner, dtype=np.intp)
    weight = np.array(weight)

    conj_t = np.conj(t)  # Z and X are real, so they commute with conj
    best_fid = np.full(len(accepted), -1.0)
    best_mask = np.zeros(len(accepted), dtype=np.int64)
    for mask in _correction_candidates(n, _stabilizers(t, n)[1]):
        overlap2 = np.abs(dense @ _pauli_image(conj_t, mask & (t.size - 1), mask >> n)) ** 2
        fid = np.bincount(owner, coeff * overlap2[row_of], len(accepted)) / weight
        better = (fid > best_fid + 1e-15) & (best_fid < CORRECTABLE_FIDELITY)
        best_fid[better] = fid[better]
        best_mask[better] = mask
        if best_fid.min() >= CORRECTABLE_FIDELITY:
            break
    for entry, mask, fid in zip(accepted, best_mask.tolist(), best_fid.tolist()):
        entry.correction = [(i, name) for i in range(n)
                            for name, bit in (("X", i), ("Z", n + i)) if mask >> bit & 1]
        entry.corrected_fidelity = fid
        entry.correctable = fid >= CORRECTABLE_FIDELITY
    acceptance = sum((e.probability for e in accepted), 0.0)
    fid = sum((e.probability * e.corrected_fidelity for e in accepted), 0.0)
    return acceptance, fid / acceptance if acceptance > 0 else 0.0


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
