"""Single-excitation dynamics of one atom-cavity cell under conditional decay.

The no-jump evolution couples the excited ancilla amplitude to the two
one-photon cavity amplitudes while the cavity field leaks at rate 2*kappa and
the excited level decays at rate gamma.  Everything reduces to a damped
two-level amplitude system (excited ancilla vs the symmetric photon mode).

Everything here is closed form.  The rounds read the stationary leak and
the wavepacket overlap; the in-window probabilities and the event sampler's
cumulative distributions serve only the acceptance criteria and the
oracles.  One scalar kernel, ``_two_level_kernel``, gives the amplitudes at
a time, with what does not depend on time computed once; the window
integrals follow from them because the populations and coherence obey a
closed linear system, and the overlap is one small linear solve.  The
waiting window is always passed in by the caller.  The kernel runs on
``cmath`` and ``math`` scalars, which take about half the time of numpy
scalars per call; the quadrature oracles build it once and call it directly,
tens of thousands of times per run.

SciPy is imported only inside the cross-check oracles (adaptive ODE
integration and quadrature), so generating, sweeping and fusing never load
it.  The ODE oracle reuses one dop853 solver per process, because SciPy's
``dopri853`` wrapper never frees a solver that has run: one built per call
kept about 2 KB in memory for good.

Units: all rates are angular frequencies in rad/us; times in us.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_WINDOW_KAPPAS = 3.0  # waiting window 3/kappa
_SERIES_CUTOFF = 1e-4
_CDF_GRID_POINTS = 4096
_ODE_MAX_STEPS = 10**6  # per grid segment: far above any step count a tolerance-bound run needs


@dataclass(frozen=True)
class PhysicalParams:
    """Per-cavity rates in rad/us."""

    h: float
    kappa: float
    gamma: float

    def __post_init__(self):
        if self.h < 0 or self.kappa < 0 or self.gamma < 0:
            raise ValueError("rates must be non-negative")

    def default_window(self) -> float:
        if self.kappa > 0:
            return DEFAULT_WINDOW_KAPPAS / self.kappa
        raise ValueError("no finite default window when kappa = 0")


def params_from_mhz(h_mhz: float, kappa_mhz: float, gamma_mhz: float) -> PhysicalParams:
    """Convenience constructor for rates quoted as 2*pi x MHz."""
    two_pi = 2.0 * math.pi
    return PhysicalParams(two_pi * h_mhz, two_pi * kappa_mhz, two_pi * gamma_mhz)


#: Rubidium cavity numbers quoted in the experimental discussion.
RB_PARAMS = params_from_mhz(27.0, 2.4, 6.0)
#: Trapped-ion numbers (h ~ 30 MHz, kappa ten times smaller, gamma = 10 MHz).
ION_PARAMS = params_from_mhz(30.0, 3.0, 10.0)


@dataclass(frozen=True)
class EmissionAmplitudes:
    """No-jump amplitudes: excited ancilla and the two one-photon branches."""

    c_alpha: complex
    c_g: complex
    c_e: complex

    def survival(self) -> float:
        return abs(self.c_alpha) ** 2 + abs(self.c_g) ** 2 + abs(self.c_e) ** 2


class EventKind(enum.Enum):
    PHOTON_LEAK = "leak"
    SPONTANEOUS = "spont"
    NO_EVENT = "none"


def beta(p: PhysicalParams) -> complex:
    """Principal root of (1/4)[(kappa + gamma/2)^2 - 2(gamma*kappa + h^2)].

    Real on the overdamped side, purely imaginary on the oscillatory side.
    """
    disc = (p.kappa + p.gamma / 2.0) ** 2 - 2.0 * (p.gamma * p.kappa + p.h ** 2)
    return 0.5 * np.sqrt(complex(disc))


def _two_level_rates(p: PhysicalParams) -> tuple[float, float, float]:
    """(omega, decay0, decay1) of the two-level system of one cell."""
    return p.h / math.sqrt(2.0), p.gamma / 2.0, p.kappa


def _two_level_kernel(omega: float, decay0: float, decay1: float):
    """``t -> (c0(t), c1(t))`` of dc0 = -decay0*c0 - i*omega*c1, dc1 = -decay1*c1
    - i*omega*c0 from c(0) = (1, 0), with what does not depend on t computed
    once.  The modes decay at s -+ b, with s = (decay0 + decay1)/2 and
    b = sqrt(((decay1 - decay0)/2)^2 - omega^2)."""
    s = 0.5 * (decay0 + decay1)
    d = 0.5 * (decay1 - decay0)
    b = cmath.sqrt(d * d - omega * omega)
    neg_s, neg_i_omega, rate_plus, rate_minus = -s, -1j * omega, b - s, -(b + s)
    # b = 0 only takes the series branch, which needs none of these
    w_plus, w_minus, c1_scale = ((1.0 + d / b, 1.0 - d / b, -1j * (omega / (2.0 * b)))
                                 if b else (math.nan,) * 3)

    def amplitudes(t: float) -> tuple[complex, complex]:
        bt = b * t
        if abs(bt) < _SERIES_CUTOFF:
            env = math.exp(neg_s * t)
            z2 = bt * bt  # sinh(bt)/bt by its 4-term Taylor series, stable through b = 0
            shc = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0))
            return env * (cmath.cosh(bt) + d * t * shc), env * (neg_i_omega * t * shc)
        # exponential form: exp(-s t) cosh/sinh overflow for large real b t,
        # but the mode exponents (b - s) t and -(b + s) t have real part <= 0
        e_plus, e_minus = cmath.exp(rate_plus * t), cmath.exp(rate_minus * t)
        return 0.5 * (w_plus * e_plus + w_minus * e_minus), c1_scale * (e_plus - e_minus)

    return amplitudes


def _window_probabilities(p: PhysicalParams, t: np.ndarray):
    """(leak, spontaneous, survive) probabilities by each time in ``t``.

    On the two-level system (decay0 = gamma/2, decay1 = kappa) the
    populations P0 = |c0|^2, P1 = |c1|^2 and the coherence Z = Im(c0* c1)
    obey the closed linear system
        P0' = -2 decay0 P0 + 2 omega Z,   P1' = -2 decay1 P1 - 2 omega Z,
        Z'  = -(decay0 + decay1) Z + omega (P1 - P0),
    so their integrals over [0, t] are fixed by the end-point changes dP0,
    dP1, dZ.  The leak is 2 decay1 times the integral of P1 and the
    spontaneous exit 2 decay0 times that of P0; eliminating the integral of
    Z gives them below.  Every coefficient of dP0, dP1, dZ lies in [-1, 1],
    so the result is as accurate as the amplitudes at t, including at the
    degenerate b = 0.
    """
    omega, decay0, decay1 = _two_level_rates(p)
    kernel = _two_level_kernel(omega, decay0, decay1)
    amps = [kernel(float(tk)) for tk in t]
    c0 = np.array([a[0] for a in amps])
    c1 = np.array([a[1] for a in amps])
    p0 = c0.real ** 2 + c0.imag ** 2
    p1 = c1.real ** 2 + c1.imag ** 2
    if decay0 + decay1 == 0.0:  # nothing decays: both exits stay shut
        return np.zeros_like(p0), np.zeros_like(p0), p0 + p1
    dp0 = p0 - 1.0
    z = (np.conj(c0) * c1).imag
    denom = (decay0 + decay1) * (decay0 * decay1 + omega * omega)
    # q = -(integral of 2*omega*Z); denom = 0 only at omega = 0, where Z = 0
    q = (omega * (2.0 * decay0 * decay1 * z - omega * decay1 * dp0 + omega * decay0 * p1)
         / denom if denom > 0.0 else np.zeros_like(p0))
    return q - p1, -q - dp0, p0 + p1


def amplitudes_of(p: PhysicalParams):
    """``t -> amplitudes_at(p, t)``, with the two-level kernel of ``p`` built
    once, for callers that read many times of one parameter set."""
    kernel = _two_level_kernel(*_two_level_rates(p))

    def amplitudes(t: float) -> EmissionAmplitudes:
        if t < 0:
            raise ValueError("t must be non-negative")
        c0, c_sym = kernel(t)
        c_g = c_sym / math.sqrt(2.0)
        return EmissionAmplitudes(c_alpha=c0, c_g=c_g, c_e=c_g)

    return amplitudes


def amplitudes_at(p: PhysicalParams, t: float) -> EmissionAmplitudes:
    """Closed-form no-jump amplitudes at time ``t`` (t >= 0)."""
    return amplitudes_of(p)(t)


def emission_probability(p: PhysicalParams, t: float) -> float:
    """Probability a one-photon branch is populated at time t: |c_g|^2 + |c_e|^2."""
    a = amplitudes_at(p, t)
    return abs(a.c_g) ** 2 + abs(a.c_e) ** 2


def leak_probability_total(p: PhysicalParams) -> float:
    """Total cavity-leak probability 2*kappa * integral(|c_g|^2 + |c_e|^2) dt.

    Closed form kappa*h^2 / ((kappa + gamma/2)(gamma*kappa + h^2)).
    """
    if p.kappa == 0 and p.gamma == 0 and p.h > 0:
        raise ValueError("kappa = gamma = 0 with h > 0 has no stationary limit")
    omega, decay0, decay1 = _two_level_rates(p)
    denom = (decay0 + decay1) * (decay0 * decay1 + omega * omega)
    if denom == 0.0:
        # kappa = 0 with h > 0: the photon can never leave; or h = 0
        return 0.0
    return decay1 * omega * omega / denom


def spont_probability_total(p: PhysicalParams) -> float:
    """Complementary spontaneous-emission probability (sums with leak to 1)."""
    if p.kappa == 0 and p.gamma == 0 and p.h > 0:
        raise ValueError("kappa = gamma = 0 with h > 0 has no stationary limit")
    if p.kappa == 0 and p.gamma == 0:
        return 0.0
    return 1.0 - leak_probability_total(p)


def decay_timescale(p: PhysicalParams) -> float:
    """Slowest amplitude decay rate; sets the quadrature/sampling horizon."""
    s = 0.5 * (p.gamma / 2.0 + p.kappa)
    b = beta(p)
    rate = s - b.real
    if rate <= 0:
        raise ValueError("undamped dynamics has no decay timescale")
    return 1.0 / rate


def _quad(f, lower: float, upper: float, epsabs: float, epsrel: float, limit: int) -> float:
    from scipy.integrate import quad  # oracles only: keeps SciPy off the product path

    val, _ = quad(f, lower, upper, limit=limit, epsabs=epsabs, epsrel=epsrel)
    return val


def _rate_quadrature(p: PhysicalParams, upper: float | None, exit_mode: int,
                     epsabs: float, epsrel: float, limit: int) -> float:
    """Quadrature over [0, upper] of the exit rate through one two-level mode:
    2*decay1*|c1|^2 (the cavity leak, ``exit_mode`` 1) or 2*decay0*|c0|^2
    = gamma*|c0|^2 (spontaneous emission, ``exit_mode`` 0)."""
    if upper is None:
        upper = 40.0 * decay_timescale(p)
    omega, decay0, decay1 = _two_level_rates(p)
    weight = 2.0 * (decay0, decay1)[exit_mode]
    kernel = _two_level_kernel(omega, decay0, decay1)

    def rate(t):
        c = kernel(t)[exit_mode]
        return weight * (c.real * c.real + c.imag * c.imag)

    return _quad(rate, 0.0, upper, epsabs, epsrel, limit)


def leak_probability_quadrature(p: PhysicalParams, upper: float | None = None, *,
                                epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
                                limit: int = 400) -> float:
    """Numerical quadrature of the leak rate; oracle for the closed form."""
    return _rate_quadrature(p, upper, 1, epsabs, epsrel, limit)


def spont_probability_quadrature(p: PhysicalParams, upper: float | None = None, *,
                                 epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
                                 limit: int = 400) -> float:
    """Numerical quadrature of the spontaneous rate; oracle for the closed form."""
    return _rate_quadrature(p, upper, 0, epsabs, epsrel, limit)


def _ode_rhs(_t, y, r):
    return r.dot(y)


@functools.lru_cache(maxsize=1)
def _dop853():
    """The ODE oracle's one dop853 solver, built on first use and reset for
    every integration (one per call would never be freed; see the module
    docstring)."""
    from scipy.integrate import ode  # oracles only: keeps SciPy off the product path

    return ode(_ode_rhs).set_integrator("dop853", rtol=1e-12, atol=1e-14,
                                        nsteps=_ODE_MAX_STEPS)


def ode_oracle_integrate(p: PhysicalParams, t_grid) -> list[EmissionAmplitudes]:
    """Adaptive high-order integration of the three-amplitude system.

    Deliberately independent of the closed form: the right-hand side is
    built from the amplitude equations
    dc_a = -(gamma/2) c_a - i (h/2)(c_g + c_e),
    dc_g = -kappa c_g - i (h/2) c_a,  dc_e likewise,
    written as a real 6x6 generator R acting on (Re c, Im c) pairs; neither
    ``amplitudes_at`` nor ``beta`` enters the integration.  Steps are taken
    by the compiled Dormand-Prince 8(5,3) integrator behind
    ``scipy.integrate.ode`` ("dop853") at rtol=1e-12, atol=1e-14, restarted
    for every grid segment so that each reported point is a true step
    endpoint rather than an interpolant.  Raises ``RuntimeError`` if a segment fails.  Every call
    shares one solver, so two threads must not call this at once.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a monotone 1-D array")
    # complex generator of dc/dt = A c for c = (c_a, c_g, c_e) ...
    half_h = p.h / 2.0
    a = np.array([[-p.gamma / 2.0, -1j * half_h, -1j * half_h],
                  [-1j * half_h, -p.kappa, 0.0],
                  [-1j * half_h, 0.0, -p.kappa]])
    # ... and its real form on y = (Re c_a, Im c_a, Re c_g, Im c_g, Re c_e, Im c_e)
    r = np.empty((6, 6))
    r[0::2, 0::2] = a.real
    r[0::2, 1::2] = -a.imag
    r[1::2, 0::2] = a.imag
    r[1::2, 1::2] = a.real

    solver = _dop853()
    solver.set_f_params(r)
    solver.set_initial_value(np.array([1.0, 0, 0, 0, 0, 0]), 0.0)
    out = []
    y = solver.y
    for t in t_grid:
        t = float(t)
        if t > solver.t:
            y = solver.integrate(t)
            if not solver.successful():
                raise RuntimeError(f"ODE integration failed at t={solver.t}: "
                                   f"dop853 return code {solver.get_return_code()}")
        out.append(EmissionAmplitudes(complex(y[0], y[1]), complex(y[2], y[3]),
                                      complex(y[4], y[5])))
    return out


def event_probabilities(p: PhysicalParams, window: float) -> tuple[float, float, float]:
    """(leak, spontaneous, survive) probabilities within the waiting window."""
    leak, spont, survive = _window_probabilities(p, np.array([float(window)]))
    return float(leak[0]), float(spont[0]), float(survive[0])


class _EventSampler:
    """Inverse-CDF sampler for jump times on a fixed grid over the window."""

    def __init__(self, p: PhysicalParams, window: float):
        self.t = np.linspace(0.0, window, _CDF_GRID_POINTS)
        leak, spont, _ = _window_probabilities(p, self.t)
        # exact cumulative probabilities; the running maximum only irons out
        # rounding where a rate is ~0, so that np.interp sees a monotone table
        self.cum_leak = np.maximum.accumulate(leak)
        self.cum_spont = np.maximum.accumulate(spont)
        self.p_leak = float(self.cum_leak[-1])
        self.p_spont = float(self.cum_spont[-1])

    def _invert(self, cum: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.interp(u, cum, self.t)

    def sample(self, rng: np.random.Generator, n: int):
        """Vectorized draw of n events; returns (kinds, times, pols) arrays."""
        u = rng.random(n)
        pol_draw = rng.random(n)
        kinds = np.full(n, EventKind.NO_EVENT, dtype=object)
        times = np.full(n, np.nan)
        pols = np.full(n, None, dtype=object)
        leak_mask = u < self.p_leak
        spont_mask = (~leak_mask) & (u < self.p_leak + self.p_spont)
        kinds[leak_mask] = EventKind.PHOTON_LEAK
        kinds[spont_mask] = EventKind.SPONTANEOUS
        if leak_mask.any():
            times[leak_mask] = self._invert(self.cum_leak, u[leak_mask])
            pols[leak_mask] = np.where(pol_draw[leak_mask] < 0.5, "L", "R")
        if spont_mask.any():
            times[spont_mask] = self._invert(self.cum_spont, u[spont_mask] - self.p_leak)
        return kinds, times, pols


def sample_emission_events(p: PhysicalParams, rng: np.random.Generator, n: int,
                           window: float):
    """Draw n quantum-jump events in the window: (kinds, times, pols) arrays,
    with time NaN and pol None where no jump happened."""
    return _EventSampler(p, window).sample(rng, n)


def leaked_envelope(p: PhysicalParams, t: float) -> complex:
    """Temporal amplitude of the leaked photon, f(t) = sqrt(2*kappa) * c_g(t)."""
    return math.sqrt(2.0 * p.kappa) * amplitudes_at(p, t).c_g


def _envelope_inner(p1: PhysicalParams, p2: PhysicalParams) -> complex:
    """Integral over t >= 0 of conj(f1(t)) f2(t) for the leaked envelopes.

    Each cell's amplitudes obey c' = A c, so the products conj(c_i) c'_j obey
    x' = (conj(A1) (x) I + I (x) A2) x = L x, and the integral of x is
    -L^{-1} x(0).  The eigenvalues of L are the sums conj(lambda_i) + mu_j
    of the two cells' decay exponents, so L is invertible for damped cells.
    """
    def generator(p):
        omega = p.h / math.sqrt(2.0)
        return np.array([[-p.gamma / 2.0, -1j * omega], [-1j * omega, -p.kappa]])

    eye = np.eye(2)
    lin = np.kron(np.conj(generator(p1)), eye) + np.kron(eye, generator(p2))
    x = np.linalg.solve(lin, -np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    # f = sqrt(2 kappa) c_g = sqrt(kappa) c1, with c1 the symmetric photon mode
    return complex(math.sqrt(p1.kappa * p2.kappa) * x[3])


def wavepacket_overlap(p1: PhysicalParams, p2: PhysicalParams) -> complex:
    """Normalized temporal-mode overlap of the two leaked-photon envelopes."""
    if leak_probability_total(p1) <= 0 or leak_probability_total(p2) <= 0:
        raise ValueError("wavepacket overlap requires nonzero leak probability")
    n1 = _envelope_inner(p1, p1).real
    n2 = _envelope_inner(p2, p2).real
    return _envelope_inner(p1, p2) / math.sqrt(n1 * n2)


def wavepacket_overlap_quadrature(p1: PhysicalParams, p2: PhysicalParams, *,
                                  epsabs: float = 1.49e-8,
                                  epsrel: float = 1.49e-8,
                                  limit: int = 400) -> complex:
    """Quadrature of the envelope overlap; oracle for :func:`wavepacket_overlap`."""
    if leak_probability_total(p1) <= 0 or leak_probability_total(p2) <= 0:
        raise ValueError("wavepacket overlap requires nonzero leak probability")
    # split at the faster cell's horizon: over the slower one's alone, quad
    # can step over the faster envelope's narrow peak
    fast, slow = sorted((decay_timescale(p1), decay_timescale(p2)))
    cuts = (0.0, 40.0 * fast, 40.0 * slow)

    def integ(f):
        def part(g):
            return sum(_quad(g, lo, hi, epsabs, epsrel, limit)
                       for lo, hi in zip(cuts, cuts[1:]))

        return complex(part(lambda t: f(t).real), part(lambda t: f(t).imag))

    cross = integ(lambda t: np.conj(leaked_envelope(p1, t)) * leaked_envelope(p2, t))
    n1 = integ(lambda t: abs(leaked_envelope(p1, t)) ** 2 + 0j).real
    n2 = integ(lambda t: abs(leaked_envelope(p2, t)) ** 2 + 0j).real
    return cross / math.sqrt(n1 * n2)

