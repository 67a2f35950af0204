"""Protocol orchestration: four-atom rounds, fusion, chain growth.

A generation round emits one photon per cavity entangled with its atom, runs
the detection network, and heralds the four-atom chain on a four-click
pattern.  Sampled rounds are heralded with the exact table's acceptance.
Fusion maps the end qubits of two chains to photons and joins the remainders
through a single parity check, ``optics.parity_check_network``, yielding a
chain of length N + M - 2: the measured atoms leave the state.  The network
runs once per process and key, on the end qubits alone, and the target
projects them onto the Bell pair (|gg> + |ee>)/sqrt(2).

The table heralds with the stationary leak, which counts photons that leave
after the 3/kappa window over which dark counts are integrated: the joint
in-window leak is 0.447% lower for Rb and 0.114% for the ion parameters
(0.112% and 0.0285% per cavity).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import dynamics, optics
from .dynamics import PhysicalParams
from .hilbert import (
    AtomLevel,
    BasisLabel,
    HADAMARD,
    PRUNE_EPS,
    PhotonMode,
    SparseHybridState,
    StateError,
    apply_local_unitary,
    tensor_all,
)
from .optics import (
    Detector,
    NetworkConfig,
    OutcomeTableEntry,
    correction_table,
    default_four_atom_network,
    parity_check_network,
)

SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# canonical states
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChainState:
    """Atomic cluster chain: ordered atom ids plus the normalized state."""

    atom_ids: tuple[int, ...]
    state: SparseHybridState

    def __post_init__(self):
        if len(self.atom_ids) != self.state.n_atoms:
            raise StateError("atom id count does not match the state")
        if abs(self.state.norm2() - 1.0) > 1e-9:
            raise StateError("chain state must be normalized")

    @property
    def length(self) -> int:
        return len(self.atom_ids)


def _atom_state(amplitudes: dict[str, complex]) -> SparseHybridState:
    terms = {BasisLabel.make([AtomLevel(c) for c in s]): a
             for s, a in amplitudes.items()}
    n = len(next(iter(amplitudes)))
    return SparseHybridState(n, frozenset(), terms)


def build_bell_pair() -> ChainState:
    """The parity check's heralded pair: (|gg> + |ee>)/sqrt(2)."""
    return ChainState((0, 1), _atom_state({"gg": 1 / SQRT2, "ee": 1 / SQRT2}))


def build_four_qubit_target() -> ChainState:
    """The heralded four-atom state: (|gggg> + |eegg> + |ggee> - |eeee>)/2."""
    st = _atom_state({"gggg": 0.5, "eegg": 0.5, "ggee": 0.5, "eeee": -0.5})
    return ChainState((0, 1, 2, 3), st)


def build_fused_six_state() -> ChainState:
    """The ideal 4+4 fusion output (eight terms, amplitude 1/(2*sqrt(2)))."""
    a = 1.0 / (2.0 * SQRT2)
    st = _atom_state({
        "gggggg": a, "eegggg": a, "ggggee": a, "eeggee": a,
        "ggeegg": a, "eeeegg": -a, "ggeeee": -a, "eeeeee": a,
    })
    return ChainState(tuple(range(6)), st)


def build_linear_cluster(n: int) -> ChainState:
    """Linear cluster chain: amplitude (-1)^(# adjacent EE pairs) / 2^(n/2)."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    norm = 2.0 ** (-n / 2.0)
    terms: dict[BasisLabel, complex] = {}
    for bits in range(2 ** n):
        levels = tuple(AtomLevel.E if (bits >> (n - 1 - i)) & 1 else AtomLevel.G
                       for i in range(n))
        sign = 1.0
        for i in range(n - 1):
            if levels[i] is AtomLevel.E and levels[i + 1] is AtomLevel.E:
                sign = -sign
        terms[BasisLabel.make(levels)] = sign * norm
    return ChainState(tuple(range(n)),
                      SparseHybridState(n, frozenset(), terms))


def hadamard_ends(chain: ChainState) -> ChainState:
    """Apply H on the first and last atoms (the virtual cluster-form correction)."""
    st = apply_local_unitary(chain.state, 0, HADAMARD)
    st = apply_local_unitary(st, chain.length - 1, HADAMARD)
    return ChainState(chain.atom_ids, st)


def emitted_pair_state(rail: int, src: int | None = None) -> SparseHybridState:
    """Post-emission atom-photon pair (|g>|L> + |e>|R>)/sqrt(2) on one rail."""
    g = BasisLabel.make([AtomLevel.G], {PhotonMode(rail, "L", src): 1})
    e = BasisLabel.make([AtomLevel.E], {PhotonMode(rail, "R", src): 1})
    return SparseHybridState(1, frozenset({rail}), {g: 1 / SQRT2, e: 1 / SQRT2})


# ----------------------------------------------------------------------
# imperfection model
# ----------------------------------------------------------------------
class CavityError(ValueError):
    """Cavity parameters that a stage of the protocol cannot use."""


@dataclass(frozen=True)
class ImperfectionModel:
    """Knobs for a round: cavity rates, optical loss, detectors, window.

    ``cavity_params = None`` means the idealized round (emission forced to
    succeed with probability 1, perfectly indistinguishable photons).
    """

    cavity_params: tuple[PhysicalParams, ...] | None = None
    rail_transmission: float = 1.0
    detector_efficiency: float = 1.0
    dark_rate_hz: float = 0.0
    window: float | None = None  # us

    def window_us(self) -> float | None:
        if self.window is not None:
            return self.window
        if self.cavity_params:
            return self.cavity_params[0].default_window()
        return None

    def dark_probability(self) -> float:
        if self.dark_rate_hz == 0.0:
            return 0.0
        w = self.window_us()
        if w is None:
            raise ValueError("dark counts need an observation window")
        return self.dark_rate_hz * w * 1e-6

    def leak_probabilities(self, n: int) -> tuple[float, ...]:
        """Stationary leak probability of each of the first ``n`` cavities."""
        if self.cavity_params is None:
            return (1.0,) * n
        if len(self.cavity_params) < n:
            raise ValueError(f"need {n} cavity parameter sets")
        leaks = []
        for k, p in enumerate(self.cavity_params[:n]):
            try:
                leaks.append(dynamics.leak_probability_total(p))
            except ValueError as exc:  # kappa = gamma = 0 with h > 0
                raise CavityError(f"cavities/{k}: {exc}") from None
            if not math.isfinite(leaks[-1]):  # rates whose squares overflow
                raise CavityError(f"cavities/{k}: leak probability {leaks[-1]} is not finite")
        return tuple(leaks)

    def overlaps(self, n: int) -> np.ndarray | None:
        """Overlap matrix of the first ``n`` cavities' leaked photons.

        Entry (i, j) is ``wavepacket_overlap`` of cavities i and j above the
        diagonal and its conjugate below, with 1 on the diagonal: the
        Hermitian Gram matrix of the normalized envelopes.  A photon's source
        tag indexes it.  ``None`` when the cavities are unset or all equal,
        so that their photons are indistinguishable and carry no tag.
        """
        if self.cavity_params is None or len(set(self.cavity_params[:n])) <= 1:
            return None
        params = self.cavity_params[:n]
        for k, leak in enumerate(self.leak_probabilities(n)):
            if leak <= 0.0:
                raise CavityError(f"cavities/{k} never emits a photon (leak probability 0), "
                                  "so its overlap with the other cavities is undefined")
            norm2 = dynamics._envelope_inner(params[k], params[k]).real
            if not 0.0 < norm2 < math.inf:  # extreme rates under- or overflow it
                raise CavityError(f"cavities/{k}: envelope norm {norm2} is not finite and positive")
        out = np.eye(n, dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    out[i, j] = dynamics.wavepacket_overlap(params[i], params[j])
                except ZeroDivisionError:  # two positive norms whose product underflows
                    raise CavityError(f"cavities/{j}: its overlap with cavities/{i} is not "
                                      "finite (the envelope norms' product underflows)") from None
                out[j, i] = np.conj(out[i, j])
        return out


IDEAL_MODEL = ImperfectionModel()


# ----------------------------------------------------------------------
# generation rounds
# ----------------------------------------------------------------------
@dataclass
class GenerationTable:
    """Exact enumeration of one four-atom round."""

    entries: list[OutcomeTableEntry]
    network_acceptance: float
    emission_joint: float
    acceptance: float
    mean_corrected_fidelity: float
    per_cavity_leak: tuple[float, ...]
    target: ChainState


def round_network(model: ImperfectionModel) -> NetworkConfig:
    """The four-atom round's network with the optics of ``model``, its rail
    transmission t folded into detectors of efficiency t * eta.  Exact, as
    every input rail has the same t, every element after it is passive and
    lossless, and every output mode reaches a detector in both polarizations:
    so the loss commutes with the optics and joins the detectors' own."""
    return default_four_atom_network(
        detector_efficiency=model.rail_transmission * model.detector_efficiency,
        dark_probability=model.dark_probability())


def run_generation_round(model: ImperfectionModel = IDEAL_MODEL) -> GenerationTable:
    """Exact outcome table of one round (see ``run_generation_rounds``)."""
    return next(run_generation_rounds([model]))


#: Photon stages a process keeps of each kind: the few keys one sweep reaches
_STAGE_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_STAGE_CACHE_SIZE)
def _round_groups(passive: tuple, det_rails: tuple, ov_key: bytes | None) -> tuple:
    """The round's grouped states, built from their key (``_stage_key``) alone."""
    net = NetworkConfig(passive + tuple(Detector(rail, did) for rail, did in det_rails))
    overlaps = None if ov_key is None else np.frombuffer(ov_key, complex).reshape(4, 4)
    psi = tensor_all([emitted_pair_state(rail, None if overlaps is None else rail - 1)
                      for rail in (1, 2, 3, 4)])
    return optics.group_states(optics.propagate(psi, net), net, overlaps)


def _stage_key(net: NetworkConfig, overlaps: np.ndarray | None) -> tuple:
    """A photon stage's key: passive elements, detector (rail, id), overlap bytes."""
    return (tuple(el for el in net.elements if not isinstance(el, Detector)),
            tuple((d.rail, d.id) for d in net.detectors),
            None if overlaps is None else overlaps.tobytes())


@functools.lru_cache(maxsize=_STAGE_CACHE_SIZE)
def _round_layout(key: tuple, layout_key: tuple) -> optics.ClickLayout:
    """The click layout of ``_round_groups(*key)`` for detectors of ``layout_key``."""
    return optics.ClickLayout(_round_groups(*key), layout_key)


def run_generation_rounds(models) -> Iterator[GenerationTable]:
    """Exact outcome table of a round per model (emission folded in as a product).

    Emission events are independent across cavities, so the heralded
    probability factorizes into the joint leak probability (closed forms,
    per model) times the network acceptance; only the all-emitted branch
    carries photons into the network.  So a round with a silent cavity whose
    missing click a dark count supplies, a false herald, is left out; a test
    bounds its share of the acceptance (3.6e-4 for Rb at 100 Hz).  The
    grouped states depend on ``_stage_key``, the click layout also on the
    detectors' ``ClickLayout.key_of``; the process keeps the last few of
    each, so calls and sweep points of one key share them.  The scored
    entries depend on the detectors (and so on the rail transmission, which
    ``round_network`` puts there): one pass draws the models one at a time
    and scores them once per run of consecutive equal networks, whose tables
    share entries annotated once and then left alone.
    """
    target = build_four_qubit_target()
    click_key = None
    for model in models:
        net = round_network(model)
        key = _stage_key(net, model.overlaps(4))
        if (net, key) != click_key:
            click_key = (net, key)
            entries = optics.click_entries(_round_layout(key, optics.ClickLayout.key_of(net)), net)
            network_acceptance, mean_fid = correction_table(entries, target.state)
        leaks = model.leak_probabilities(4)
        emission_joint = math.prod(leaks)
        yield GenerationTable(list(entries), network_acceptance, emission_joint,
                              emission_joint * network_acceptance, mean_fid, leaks, target)


class RoundSampler:
    """Draws round acceptances from the exact table.

    A round is heralded with the table's acceptance, the joint emission
    probability (stationary leak) times the network acceptance, so the
    sampled and exact acceptances share one number.
    """

    def __init__(self, model: ImperfectionModel = IDEAL_MODEL):
        self.table = run_generation_round(model)
        p = self.table.acceptance
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"round acceptance {p} is NaN or outside [0, 1]")

    def sample_acceptances(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Boolean acceptance for each of n rounds, one uniform per round."""
        return rng.random(n) < self.table.acceptance


# ----------------------------------------------------------------------
# fusion
# ----------------------------------------------------------------------
@dataclass
class FusionResult:
    entries: list[OutcomeTableEntry]
    acceptance: float
    target: ChainState
    fused_length: int
    mean_corrected_fidelity: float


def fusion_network(model: ImperfectionModel) -> NetworkConfig:
    """The fusion's parity-check network with the optics of ``model``, t
    folded into the detectors as in ``round_network``, on the same three
    conditions (equal rails, passive optics, every mode detected)."""
    return parity_check_network(
        detector_efficiency=model.rail_transmission * model.detector_efficiency,
        dark_probability=model.dark_probability())


@functools.lru_cache(maxsize=_STAGE_CACHE_SIZE)
def _fusion_instrument(passive: tuple, det_rails: tuple, ov_key: bytes | None) -> dict:
    """The parity check on the end qubits alone, from its key (as ``_round_groups``):
    (x, y) -> the (config, sigma, amplitude) that |x y> reaches, in the network's order,
    its photons on rails 1 and 2 (g -> R, e -> L), tagged 0 and 1 if overlaps are set."""
    net = NetworkConfig(passive + tuple(Detector(rail, did) for rail, did in det_rails))
    pol, srcs = {AtomLevel.G: "R", AtomLevel.E: "L"}, (None, None) if ov_key is None else (0, 1)
    psi = SparseHybridState(2, frozenset({1, 2}), {BasisLabel.make((x, y), {
        PhotonMode(1, pol[x], srcs[0]): 1, PhotonMode(2, pol[y], srcs[1]): 1}): 1.0
        for x in pol for y in pol})
    images = [(label.atoms, (*optics._detection_image(label.occ, det_rails), a))
              for label, a in optics.propagate(psi, net).terms.items()]
    return {(x, y): [image for pair, image in images if pair == (x, y)] for x in pol for y in pol}


@functools.lru_cache(maxsize=_STAGE_CACHE_SIZE)
def _fusion_layout(key: tuple, terms_a: tuple, terms_b: tuple, layout_key: tuple) -> tuple:
    """The click layout and normalized target of chains with terms ``terms_a`` and
    ``terms_b``: each joint term (rest, x, y), in ``tensor``'s order and pruning, adds
    amp A[x, y] of ``_fusion_instrument(*key)`` to each group it reaches, labelled by
    its kept atoms (rest) alone; the target takes A = delta_xy."""
    instrument, by_config, projected = _fusion_instrument(*key), {}, {}
    for la, lb, amp in ((la, lb, aa * ab) for la, aa in terms_a for lb, ab in terms_b
                        if abs(aa * ab) > PRUNE_EPS):
        x, y = la.atoms[-1], lb.atoms[0]
        if (x, y) not in instrument or la.occ or lb.occ:
            raise StateError("fusion needs qubit end levels and chains without photons")
        kept = BasisLabel(la.atoms[:-1] + lb.atoms[1:], ())
        if x is y:
            projected[kept] = projected.get(kept, 0.0) + amp
        for config, sigma, a in instrument[x, y]:
            dst = by_config.setdefault(config, {}).setdefault(sigma, {})
            dst[kept] = dst.get(kept, 0.0) + amp * a
    n = len(terms_a[0][0].atoms) + len(terms_b[0][0].atoms) - 2
    overlaps = None if key[2] is None else np.frombuffer(key[2], complex).reshape(2, 2)
    return (optics.ClickLayout(optics.config_groups(by_config, n, overlaps), layout_key),
            SparseHybridState(n, frozenset(), projected, prune_eps=0.0).normalized())


def fuse(chain_a: ChainState, chain_b: ChainState,
         model: ImperfectionModel = IDEAL_MODEL) -> FusionResult:
    """Join two chains through the photonic parity check on their end qubits.

    The last qubit of ``chain_a`` and the first of ``chain_b`` become circular
    photons (g -> R, e -> L; the QWPs turn them into V and H) of ``model``'s
    cavities 0 and 1, tagged 0 and 1 when those differ.  ``fusion_network``
    acts on them alone (``_fusion_instrument``), and the chains are contracted
    with that onto the N + M - 2 atoms the herald keeps (``_fusion_layout``).
    Both photons are taken as emitted: no leak factor enters the acceptance,
    and no false herald of a silent cavity is counted.  The target is what
    the ideal check heralds on its all-D pattern: the chains projected onto
    (|gg> + |ee>)/sqrt(2) of their end qubits, normalized.
    """
    if chain_a.length < 2 or chain_b.length < 2:
        raise StateError("fusion requires chains of length >= 2")
    overlaps, net = model.overlaps(2), fusion_network(model)
    terms = (tuple(chain.state.terms.items()) for chain in (chain_a, chain_b))
    layout, state = _fusion_layout(_stage_key(net, overlaps), *terms, optics.ClickLayout.key_of(net))
    entries = optics.click_entries(layout, net)
    target = ChainState(chain_a.atom_ids[:-1] + chain_b.atom_ids[1:], state)
    acceptance, fid = correction_table(entries, state)
    return FusionResult(entries, acceptance, target, target.length, fid)


# ----------------------------------------------------------------------
# growth statistics
# ----------------------------------------------------------------------
@dataclass
class GrowthStats:
    target_length: int
    generation_rounds: int
    fusion_attempts: int
    chain_restarts: int


def grow_chain(target_n: int, p_gen: float, p_fuse: float,
               rng: np.random.Generator) -> GrowthStats:
    """Sample the cost of growing a chain to ``target_n`` atoms.

    Each block takes generation rounds until one is heralded (probability
    ``p_gen`` per round); each fusion of a fresh block onto the chain
    succeeds with probability ``p_fuse``.  A failed fusion destroys the two
    measured end qubits: the main chain shrinks by one (the damaged
    four-chain is discarded), and below length 2 it restarts from a fresh
    block.

    A block's round count is the first success of Bernoulli(``p_gen``)
    rounds, one ``rng.geometric(p_gen)`` draw; a fusion attempt is one
    ``rng.random() < p_fuse`` draw, in the order they happen.
    """
    check_growth(target_n, p_gen, p_fuse)
    rounds = fusions = restarts = 0
    length = 0  # below 2, the next block starts the chain afresh
    while length < target_n:
        rounds += int(rng.geometric(p_gen))
        if length < 2:
            length = 4
            continue
        fusions += 1
        if rng.random() < p_fuse:
            length += 2
        else:
            length -= 1
            if length < 2:
                restarts += 1
    return GrowthStats(target_n, rounds, fusions, restarts)


def check_growth(target_n: int, p_gen: float | None, p_fuse: float) -> None:
    """Refuse a growth that never finishes or that ``grow_chain`` cannot sample.

    ``p_gen=None`` checks only the target length and p_fuse.
    """
    if target_n < 4 or target_n % 2:
        raise ValueError("target length must be an even number >= 4")
    # "not p > 0" also refuses NaN, for which the stage would never succeed
    if p_gen is not None and not p_gen > 0.0:
        raise ValueError(f"the generation round is never heralded (p_gen = {p_gen:.3g})")
    if target_n > 4 and not p_fuse > 0.0:
        raise ValueError(f"fusion never succeeds (p_fuse = {p_fuse:.3g})")
    if p_gen is not None and p_gen < 1e-15:  # numpy's geometric saturates below ~4e-18
        raise ValueError(f"p_gen = {p_gen:.3g} is below the growth sampler's floor of 1e-15")


def expected_growth_counts(target_n: int, p_fuse: float) -> tuple[float, float]:
    """Expected (blocks, fusion attempts) of one ``grow_chain`` trial.

    Each block's round count is drawn independently of the walk over chain
    lengths, so by Wald's identity the expected rounds are blocks / p_gen.
    The walk is an absorbing chain over the lengths 1 ... target_n + 1: the
    cost still to come is V(L) = 0 for L >= target_n, and below it
    V(L) = c + p V(L + 2) + q V(L - 1), with c = (1, 1) (a fresh block and
    an attempt), p = p_fuse and q = 1 - p.  Length 1 is a restart,
    V(1) = (1, 0) + V(4), and a trial (its first block a restart) costs V(1).

    The linear system is solved by elimination from the top: each row is
    reduced to V(L) = a_L + b_L V(L - 1), with 0 <= b_L <= 1, so no pivoting
    is needed and only the last two rows are kept; a_L is c times its value
    at c = 1.  The loop carries e_L = 1 - b_L: for p_fuse < 1/3, b_L tends
    to 1 geometrically down a long chain, and 1 - b_L would cancel to zero.
    An expectation beyond the float range is ``math.inf``.
    """
    check_growth(target_n, None, p_fuse)
    if target_n == 4:
        return 1.0, 0.0
    p, q = p_fuse, 1.0 - p_fuse
    rows = {}  # the reduced rows (a_L, e_L) of lengths 2, 3 and 4
    a1 = a2 = 0.0  # rows L + 1 and L + 2
    e1 = e2 = 1.0
    for length in range(target_n - 1, 1, -1):
        # V(L + 2) = a2 + b2 a1 + b2 b1 V(L), and s = 1 - b2 b1
        s = e1 + (1.0 - e1) * e2
        d = q + p * s  # 1 - p b2 b1 >= q, and 1 when q = 0
        a, e = (1.0 + p * (a2 + (1.0 - e2) * a1)) / d, p * s / d
        if length <= 4:
            rows[length] = a, e
        a1, e1, a2, e2 = a, e, a1, e1
    # V(4) through V(3) and V(2) down to V(1) = (1, 0) + V(4)
    (a4, e4), (a3, e3), (a2, e2) = rows[4], rows[3], rows[2]
    b4, b3 = 1.0 - e4, 1.0 - e3
    den = e4 + b4 * (e3 + b3 * e2)  # 1 - b4 b3 b2
    if not den > 0.0:
        return math.inf, math.inf
    steps = a4 + b4 * a3 + b4 * b3 * a2
    return (1.0 + steps) / den, steps / den


def loss_scaling_comparison(eta: float, n: int) -> dict[str, float]:
    """Per-photon-loss scaling: this scheme (1-eta)^n vs the cascade (1-eta)^(2n)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    return {"this_scheme": (1.0 - eta) ** n,
            "cascade_scheme": (1.0 - eta) ** (2 * n)}
