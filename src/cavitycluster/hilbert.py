"""Sparse complex state vectors over hybrid atom/photon basis labels.

A basis label is an ordered tuple of atomic levels together with a map from
photonic modes (spatial rail + polarization, optionally a source tag used by
the partial-distinguishability model) to occupation numbers.  States are
dictionaries basis label -> complex amplitude.  Single-atom matrices are 2x2:
they act on the (G, E) qubit pair and leave the other four levels alone.
Everything here is pure: operations return new states and never mutate their
inputs.

Photonic ops act on the occupation alone and carry the atom levels along:
each maps a term's occupation to its images (``move_modes`` routes modes,
``_jones_images`` mixes a rail's two polarizations), rescales the amplitude
and inserts the labels in term order.  A network's loss is one more such op
(``optics.apply_loss``): its lost photons move to an undetected rail, so a
state stays pure through every element.  A new state checks each term's atom
count, rails and photon number.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from enum import Enum
from typing import NamedTuple

import numpy as np

PRUNE_EPS = 1e-15
UNITARY_TOL = 1e-12
# Four emitted photons can pile onto a single mode in rejected branches of the
# three-stage network, so the hard cap is the system photon number, not 2.
MAX_OCCUPATION = 4


class AtomLevel(Enum):
    """Six-level atom: qubit pair (G, E), primed pair, and the two ancillas."""

    G = "g"
    E = "e"
    GP = "g'"
    EP = "e'"
    ALPHA = "a"
    ALPHAP = "a'"

    # members are singletons compared by identity, so the C-level identity
    # hash agrees with equality; Enum's own hashes the name in Python
    __hash__ = object.__hash__


_QUBIT_INDEX = {AtomLevel.G: 0, AtomLevel.E: 1}

CIRCULAR_POLS = ("L", "R")
LINEAR_POLS = ("H", "V")
ALL_POLS = CIRCULAR_POLS + LINEAR_POLS


class PhotonMode(NamedTuple):
    """A single photonic mode: spatial rail, polarization label, source tag.

    ``src`` identifies the emitting cavity when temporal-envelope
    distinguishability matters; ``None`` means fully indistinguishable.
    """

    rail: int
    pol: str
    src: int | None = None

    def sort_key(self):
        return (self.rail, self.pol, -1 if self.src is None else self.src)


class StateError(ValueError):
    """Raised for malformed states or invalid operations on them."""


def _canonical_occ(occ) -> tuple[tuple[PhotonMode, int], ...]:
    items = []
    for mode, count in (occ.items() if isinstance(occ, Mapping) else occ):
        if count == 0:
            continue
        if count < 0 or count > MAX_OCCUPATION:
            raise StateError(f"occupation {count} out of range for mode {mode}")
        if mode.pol not in ALL_POLS:
            raise StateError(f"unknown polarization {mode.pol!r}")
        items.append((mode, int(count)))
    items.sort(key=lambda mc: mc[0].sort_key())
    return tuple(items)


class BasisLabel(NamedTuple):
    atoms: tuple[AtomLevel, ...]
    occ: tuple[tuple[PhotonMode, int], ...]

    @staticmethod
    def make(atoms: Iterable[AtomLevel], occ=()) -> "BasisLabel":
        levels = tuple(a if isinstance(a, AtomLevel) else AtomLevel(a) for a in atoms)
        return BasisLabel(levels, _canonical_occ(dict(occ) if not isinstance(occ, Mapping) else occ))

    def occ_map(self) -> dict[PhotonMode, int]:
        return dict(self.occ)


class SparseHybridState:
    """Sparse complex amplitude map over :class:`BasisLabel`.

    Immutable by convention: all operations return new instances.
    """

    __slots__ = ("n_atoms", "rails", "terms")

    def __init__(self, n_atoms: int, rails: frozenset[int], terms: Mapping[BasisLabel, complex],
                 prune_eps: float = PRUNE_EPS):
        self.n_atoms = int(n_atoms)
        self.rails = frozenset(rails)
        clean: dict[BasisLabel, complex] = {}
        for label, amp in terms.items():
            if abs(amp) <= prune_eps:
                continue
            if len(label.atoms) != self.n_atoms:
                raise StateError(f"label has {len(label.atoms)} atoms, expected {self.n_atoms}")
            photons = 0
            for mode, count in label.occ:
                if mode.rail not in self.rails:
                    raise StateError(f"mode on unregistered rail {mode.rail}")
                photons += count
            if photons > self.n_atoms:
                raise StateError("photon number exceeds atom count")
            clean[label] = complex(amp)
        self.terms = clean

    # ------------------------------------------------------------------
    # basic linear algebra
    # ------------------------------------------------------------------
    def norm2(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def scaled(self, factor: complex) -> "SparseHybridState":
        return SparseHybridState(self.n_atoms, self.rails,
                                 {l: a * factor for l, a in self.terms.items()})

    def normalized(self) -> "SparseHybridState":
        n = self.norm()
        if n == 0.0:
            raise StateError("cannot normalize the zero state")
        return self.scaled(1.0 / n)


def tensor(a: SparseHybridState, b: SparseHybridState) -> SparseHybridState:
    """Tensor product; ``b``'s atoms are appended after ``a``'s.

    Rail registries must be disjoint (photonic modes keep their rail ids).
    """
    if a.rails & b.rails:
        raise StateError(f"overlapping rail ids {sorted(a.rails & b.rails)} in tensor product")
    terms: dict[BasisLabel, complex] = {}
    for la, aa in a.terms.items():
        for lb, ab in b.terms.items():
            label = BasisLabel(la.atoms + lb.atoms, _canonical_occ(la.occ + lb.occ))
            terms[label] = aa * ab
    return SparseHybridState(a.n_atoms + b.n_atoms, a.rails | b.rails, terms)


def tensor_all(states: Iterable[SparseHybridState]) -> SparseHybridState:
    states = list(states)
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def inner_product(a: SparseHybridState, b: SparseHybridState) -> complex:
    """<a|b>, conjugate-linear in ``a``.  Requires identical system shape."""
    if a.n_atoms != b.n_atoms:
        raise StateError("inner product between states of different atom count")
    if len(a.terms) > len(b.terms):
        return inner_product(b, a).conjugate()
    total = 0.0 + 0.0j
    for label, amp in a.terms.items():
        other = b.terms.get(label)
        if other is not None:
            total += amp.conjugate() * other
    return complex(total)


def _is_unitary(u: np.ndarray) -> bool:
    """Whether the square complex matrix ``u`` is unitary within ``UNITARY_TOL``.

    The same few wave-plate and Hadamard matrices are checked over and over,
    so each distinct matrix is checked once; refusals are remembered too.
    """
    return _is_unitary_bytes(u.tobytes(), u.shape[0])


@functools.lru_cache(maxsize=256)
def _is_unitary_bytes(raw: bytes, n: int) -> bool:
    u = np.frombuffer(raw, dtype=complex).reshape(n, n)
    return bool(np.allclose(u.conj().T @ u, np.eye(n), atol=UNITARY_TOL, rtol=0))


def apply_local_unitary(state: SparseHybridState, target, u) -> SparseHybridState:
    """Apply a 2x2 single-qubit matrix to one atom.

    ``target`` is an atom index.  The matrix acts on the (G, E) subspace and
    leaves other levels untouched (block identity), which keeps it unitary.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise StateError(f"atom matrix must be 2x2, got {u.shape}")
    if not _is_unitary(u):
        raise StateError("matrix is not unitary within tolerance")
    idx = int(target)
    if not 0 <= idx < state.n_atoms:
        raise StateError(f"atom index {idx} out of range")
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        col = _QUBIT_INDEX.get(label.atoms[idx])
        if col is None:
            out[label] = out.get(label, 0.0) + amp
            continue
        for new_lvl, coeff in ((AtomLevel.G, u[0, col]), (AtomLevel.E, u[1, col])):
            if coeff == 0.0:
                continue
            new_atoms = label.atoms[:idx] + (new_lvl,) + label.atoms[idx + 1:]
            key = BasisLabel(new_atoms, label.occ)
            out[key] = out.get(key, 0.0) + amp * coeff
    return SparseHybridState(state.n_atoms, state.rails, out)


def relabel_rail_pols(state: SparseHybridState, rail: int,
                      mapping: Mapping[str, str]) -> SparseHybridState:
    """Relabel polarizations on one rail (e.g. the QWP map L->H, R->V): a
    routing within the rail, whose targets must not already hold photons."""
    return move_modes(state, {(rail, a): (rail, b) for a, b in mapping.items()})


def move_modes(state: SparseHybridState, routing: Mapping[tuple[int, str], tuple[int, str]],
               new_rails: Iterable[int] = ()) -> SparseHybridState:
    """Relabel (rail, pol) pairs per ``routing`` (a mode permutation, e.g. PBS)."""
    rails = state.rails | frozenset(new_rails)
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        merged: dict[PhotonMode, int] = {}
        for mode, count in label.occ:
            tgt = routing.get((mode.rail, mode.pol))
            if tgt is not None:
                mode = PhotonMode(tgt[0], tgt[1], mode.src)
            merged[mode] = merged.get(mode, 0) + count
        key = BasisLabel(label.atoms, _canonical_occ(merged))
        out[key] = out.get(key, 0.0) + amp
    return SparseHybridState(state.n_atoms, rails, out)


def _pair_images(n1: int, n2: int, u: np.ndarray):
    """Expand (b1^+)^n1 (b2^+)^n2 / sqrt(n1! n2!) after b_i^+ -> sum_j u[j,i] c_j^+.

    Returns [(m1, m2, coeff)] with bosonic normalization folded in.
    """
    if n1 + n2 == 0:
        return [(0, 0, 1.0 + 0.0j)]
    # polynomial in (c1^+, c2^+): coefficients poly[(m1, m2)]
    poly = {(0, 0): 1.0 + 0.0j}
    for col, reps in ((0, n1), (1, n2)):
        for _ in range(reps):
            nxt: dict[tuple[int, int], complex] = {}
            for (m1, m2), c in poly.items():
                for row, dm in ((0, (1, 0)), (1, (0, 1))):
                    if u[row, col] == 0.0:
                        continue
                    key = (m1 + dm[0], m2 + dm[1])
                    nxt[key] = nxt.get(key, 0.0) + c * u[row, col]
            poly = nxt
    norm_in = math.sqrt(math.factorial(n1) * math.factorial(n2))
    out = []
    for (m1, m2), c in poly.items():
        if m1 > MAX_OCCUPATION or m2 > MAX_OCCUPATION:
            raise StateError("mode mixing produced occupation above the cap")
        c *= math.sqrt(math.factorial(m1) * math.factorial(m2)) / norm_in
        if c != 0.0:
            out.append((m1, m2, c))
    return out


def apply_rail_jones(state: SparseHybridState, rail: int, u: np.ndarray) -> SparseHybridState:
    """Two-mode mixing of the (H, V) pair on one rail.

    Acts independently on every source tag present (tagged photons are
    distinct modes sharing the same Jones matrix).  Handles occupations up to
    ``MAX_OCCUPATION`` with correct bosonic factors.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise StateError("Jones matrix must be 2x2")
    if not _is_unitary(u):
        raise StateError("Jones matrix is not unitary within tolerance")
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        for occ, coeffs in _jones_images(label.occ, rail, u):
            a = amp
            for coeff in coeffs:
                a = a * coeff
            key = BasisLabel(label.atoms, occ)
            out[key] = out.get(key, 0.0) + a
    return SparseHybridState(state.n_atoms, state.rails, out)


def _jones_images(occ, rail: int, u: np.ndarray):
    """[(image occupation, (c1, c2, ...)), ...] of ``occ`` under the Jones matrix
    ``u``: one coefficient per source tag on ``rail`` that holds photons in H or V,
    in tag order, to be multiplied into the amplitude one at a time."""
    p0, p1 = LINEAR_POLS
    srcs = sorted({m.src for m, _ in occ if m.rail == rail},
                  key=lambda s: -1 if s is None else s)
    images = [(occ, ())]
    for src in srcs:
        nxt = []
        for img, coeffs in images:
            modes = dict(img)
            n0 = modes.pop(PhotonMode(rail, p0, src), 0)
            n1 = modes.pop(PhotonMode(rail, p1, src), 0)
            if n0 + n1 == 0:
                nxt.append((img, coeffs))
                continue
            for m0, m1, coeff in _pair_images(n0, n1, u):
                new_modes = dict(modes)
                if m0:
                    new_modes[PhotonMode(rail, p0, src)] = m0
                if m1:
                    new_modes[PhotonMode(rail, p1, src)] = m1
                nxt.append((_canonical_occ(new_modes), coeffs + (coeff,)))
        images = nxt
    return images


def drop_atoms(state: SparseHybridState, indices: Iterable[int]) -> SparseHybridState:
    """Remove atoms at ``indices``; they must be in a definite product level."""
    drop = sorted(set(indices), reverse=True)
    levels = {i: None for i in drop}
    out: dict[BasisLabel, complex] = {}
    for label, amp in state.terms.items():
        atoms = list(label.atoms)
        for i in drop:
            if levels[i] is None:
                levels[i] = atoms[i]
            elif levels[i] != atoms[i]:
                raise StateError(f"atom {i} is entangled; cannot drop it")
            del atoms[i]
        key = BasisLabel(tuple(atoms), label.occ)
        out[key] = out.get(key, 0.0) + amp
    return SparseHybridState(state.n_atoms - len(drop), state.rails, out, prune_eps=0.0)


# ----------------------------------------------------------------------
# common single-qubit matrices
# ----------------------------------------------------------------------
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

