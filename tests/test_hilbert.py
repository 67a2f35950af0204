"""Tests for the sparse hybrid atom/photon state container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Ensemble, debug_text, fidelity

from cavitycluster import hilbert as hb
from cavitycluster.hilbert import (
    AtomLevel,
    BasisLabel,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PhotonMode,
    SparseHybridState,
    StateError,
    apply_local_unitary,
    apply_rail_jones,
    drop_atoms,
    inner_product,
    relabel_rail_pols,
    tensor,
)


def atom_state(*levels, amp=1.0):
    return SparseHybridState(
        len(levels), frozenset(), {BasisLabel.make(levels): amp}
    )


def qubit_state(g_amp, e_amp):
    """One atom in g_amp |g> + e_amp |e>."""
    return SparseHybridState(
        1, frozenset(), {BasisLabel.make(("g",)): g_amp, BasisLabel.make(("e",)): e_amp}
    )


def photon_state(n_atoms, levels, occ, rails):
    return SparseHybridState(
        n_atoms, frozenset(rails), {BasisLabel.make(levels, occ): 1.0}
    )


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_basis_label_canonical_order():
    m1 = PhotonMode(2, "H")
    m2 = PhotonMode(1, "V")
    a = BasisLabel.make(("g",), {m1: 1, m2: 1})
    b = BasisLabel.make(("g",), {m2: 1, m1: 1})
    assert a == b
    assert hash(a) == hash(b)


def test_norm_and_pruning():
    tiny = 1e-20
    s = SparseHybridState(
        1,
        frozenset(),
        {
            BasisLabel.make(("g",)): 0.6,
            BasisLabel.make(("e",)): 0.8,
            BasisLabel.make(("a",)): tiny,
        },
    )
    assert s.norm2() == pytest.approx(1.0)
    assert len(s.terms) == 2  # the tiny term is pruned


def test_normalized_state():
    s = qubit_state(2.0, 2.0)
    n = s.normalized()
    assert n.norm2() == pytest.approx(1.0)


def test_inner_product_orthogonality():
    assert inner_product(atom_state("g"), atom_state("e")) == 0.0
    assert inner_product(atom_state("g"), atom_state("g")) == pytest.approx(1.0)


def test_tensor_counts_and_rails():
    a = photon_state(1, ("g",), {PhotonMode(1, "H"): 1}, {1})
    b = photon_state(2, ("e", "g"), {PhotonMode(2, "V"): 2}, {2})
    t = tensor(a, b)
    assert t.n_atoms == 3
    assert t.rails == frozenset({1, 2})
    (label,) = t.terms
    assert sum(c for _, c in label.occ) == 3


def test_tensor_rejects_rail_collision():
    a = photon_state(1, ("g",), {PhotonMode(1, "H"): 1}, {1})
    with pytest.raises(StateError):
        tensor(a, a)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_local_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng)
    s = qubit_state(0.6, 0.8j)
    out = apply_local_unitary(s, 0, u)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def test_hadamard_squares_to_identity():
    s = qubit_state(0.6, 0.8)
    twice = apply_local_unitary(apply_local_unitary(s, 0, HADAMARD), 0, HADAMARD)
    assert fidelity(twice, s) == pytest.approx(1.0, abs=1e-12)


def test_pauli_algebra():
    s = qubit_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    x = apply_local_unitary(s, 0, PAULI_X)
    assert fidelity(x, s) == pytest.approx(1.0, abs=1e-12)
    z = apply_local_unitary(s, 0, PAULI_Z)
    assert fidelity(z, s) == pytest.approx(0.0, abs=1e-12)


def test_non_unitary_matrix_is_refused_every_time():
    almost = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]])
    s = qubit_state(0.6, 0.8)
    rail = photon_state(1, ("g",), {PhotonMode(1, "H"): 1}, {1})
    for _ in range(2):
        with pytest.raises(StateError):
            apply_local_unitary(s, 0, almost)
        with pytest.raises(StateError):
            apply_rail_jones(rail, 1, almost)
    assert apply_local_unitary(s, 0, np.eye(2)).norm2() == pytest.approx(1.0)


def test_relabel_rail_pols_circular_to_linear():
    s = photon_state(1, ("g",), {PhotonMode(1, "L"): 1}, {1})
    out = relabel_rail_pols(s, 1, {"L": "H", "R": "V"})
    (label,) = out.terms
    assert label.occ_map() == {PhotonMode(1, "H"): 1}


def test_rail_jones_balanced_splitter_interference():
    # two identical photons entering a 50/50 mixer bunch (Hong-Ou-Mandel)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = photon_state(2, ("g", "g"), {PhotonMode(1, "H"): 1, PhotonMode(1, "V"): 1}, {1})
    out = apply_rail_jones(s, 1, had)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)
    for label in out.terms:
        occs = set(label.occ_map().values())
        assert occs == {2}  # coincidence amplitude cancels


def test_rail_jones_two_photon_normalisation():
    rng = np.random.default_rng(5)
    u = random_unitary(rng)
    s = photon_state(2, ("g", "g"), {PhotonMode(1, "H"): 2}, {1})
    out = apply_rail_jones(s, 1, u)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def test_occupation_cap_enforced():
    n = hb.MAX_OCCUPATION
    levels = ("g",) * (n + 1)
    over = {PhotonMode(1, "H"): n, PhotonMode(1, "V"): 1}
    with pytest.raises(StateError):
        # a mixer output component would exceed the per-mode cap
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        apply_rail_jones(photon_state(n + 1, levels, over, {1}), 1, had)


def test_drop_atoms():
    bare = atom_state("g", "e")
    reduced = drop_atoms(bare, [1])
    assert reduced.n_atoms == 1
    (label,) = reduced.terms
    assert label.atoms == (AtomLevel.G,)


def test_drop_atoms_refuses_an_entangled_atom():
    # an atom whose level differs between terms holds part of the state
    pair = SparseHybridState(2, frozenset(), {BasisLabel.make(("g", "g")): 0.6,
                                              BasisLabel.make(("e", "e")): 0.8})
    with pytest.raises(StateError, match="atom 0 is entangled"):
        drop_atoms(pair, [0])


def test_fidelity_of_mixture():
    ens = Ensemble([(0.5, atom_state("g")), (0.5, atom_state("e"))])
    plus = qubit_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert fidelity(ens, plus) == pytest.approx(0.5, abs=1e-12)


def test_debug_text_stable():
    s = qubit_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    text = debug_text(s)
    assert text == debug_text(s)
    assert "vac" in text
    lines = text.splitlines()
    assert lines == sorted(lines)  # deterministic ordering


def test_prune_eps_invariance():
    # the same physical state built with different prune thresholds agrees
    terms = {BasisLabel.make(("g",)): 0.6, BasisLabel.make(("e",)): 0.8}
    a = SparseHybridState(1, frozenset(), terms, prune_eps=1e-15)
    b = SparseHybridState(1, frozenset(), terms, prune_eps=1e-12)
    assert fidelity(a.normalized(), b.normalized()) == pytest.approx(1.0, abs=1e-12)
