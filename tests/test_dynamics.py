"""Tests for the cavity emission dynamics: closed forms, oracles, sampling."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycluster import cli, dynamics as dyn
from cavitycluster.dynamics import (
    PhysicalParams,
    RB_PARAMS,
    ION_PARAMS,
    amplitudes_at,
    beta,
    emission_probability,
    event_probabilities,
    leak_probability_quadrature,
    leak_probability_total,
    ode_oracle_integrate,
    sample_emission_events,
    spont_probability_quadrature,
    spont_probability_total,
    wavepacket_overlap,
)

RATE = st.floats(min_value=0.5, max_value=300.0)


def test_params_from_mhz_roundtrip():
    p = dyn.params_from_mhz(27.0, 2.4, 6.0)
    assert p.h == pytest.approx(2 * np.pi * 27.0)
    assert p.kappa == pytest.approx(2 * np.pi * 2.4)
    assert p.gamma == pytest.approx(2 * np.pi * 6.0)


def test_default_window_is_three_cavity_lifetimes():
    assert RB_PARAMS.default_window() == pytest.approx(3.0 / RB_PARAMS.kappa)


def test_initial_conditions():
    a = amplitudes_at(RB_PARAMS, 0.0)
    assert a.c_alpha == pytest.approx(1.0)
    assert a.c_g == 0.0
    assert a.c_e == 0.0


def test_symmetry_of_ground_state_amplitudes():
    # the two target levels are populated identically at all times
    for t in (0.01, 0.05, 0.2):
        a = amplitudes_at(RB_PARAMS, t)
        assert a.c_g == a.c_e


def test_closed_form_matches_ode_at_reference_point():
    ts = np.linspace(0.0, 0.3, 31)
    ode = ode_oracle_integrate(RB_PARAMS, ts)
    for t, o in zip(ts, ode):
        a = amplitudes_at(RB_PARAMS, t)
        assert abs(a.c_alpha - o.c_alpha) < 1e-10
        assert abs(a.c_g - o.c_g) < 1e-10


def test_ode_oracle_carries_nothing_between_calls():
    # one dop853 solver serves every call: a call must not see the last one's
    # rates, step size or end point
    ts = np.linspace(0.0, 0.3, 12)
    first = ode_oracle_integrate(RB_PARAMS, ts)
    ode_oracle_integrate(ION_PARAMS, np.linspace(0.0, 2.0, 5))
    assert ode_oracle_integrate(RB_PARAMS, ts) == first


def test_ode_oracle_keeps_no_memory_per_call():
    # SciPy's dopri853 wrapper never frees a solver that has run, so one built
    # per call stayed in memory for good, about 2 KB each
    ts = np.array([0.0, 0.01])
    ode_oracle_integrate(RB_PARAMS, ts)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            ode_oracle_integrate(RB_PARAMS, ts)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / 200 < 512


@given(h=RATE, kappa=RATE, gamma=RATE, t=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_amplitudes_bounded(h, kappa, gamma, t):
    p = PhysicalParams(h=h, kappa=kappa, gamma=gamma)
    a = amplitudes_at(p, t)
    total = abs(a.c_alpha) ** 2 + abs(a.c_g) ** 2 + abs(a.c_e) ** 2
    assert total <= 1.0 + 1e-10


@given(h=RATE, kappa=RATE, gamma=RATE)
@settings(max_examples=40, deadline=None)
def test_conservation_closed_form(h, kappa, gamma):
    p = PhysicalParams(h=h, kappa=kappa, gamma=gamma)
    total = leak_probability_total(p) + spont_probability_total(p)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_leak_closed_form_vs_quadrature():
    for p in (RB_PARAMS, ION_PARAMS):
        assert leak_probability_total(p) == pytest.approx(
            leak_probability_quadrature(p), abs=1e-8
        )
        assert spont_probability_total(p) == pytest.approx(
            spont_probability_quadrature(p), abs=1e-8
        )


def test_leak_reference_values():
    # frozen from the closed form, cross-checked by time integration above
    assert leak_probability_total(RB_PARAMS) == pytest.approx(
        0.4358353510895884, abs=1e-12
    )
    assert leak_probability_total(ION_PARAMS) == pytest.approx(
        0.3629032258064516, abs=1e-12
    )


def test_beta_imaginary_in_strong_coupling():
    b = beta(RB_PARAMS)
    assert b.real == pytest.approx(0.0, abs=1e-12)
    assert b.imag == pytest.approx(119.9430288061957, abs=1e-9)


def test_beta_continuity_across_degeneracy():
    # amplitudes must pass smoothly through the point where beta -> 0
    kappa, gamma = 10.0, 4.0
    h_crit = np.sqrt((kappa + gamma / 2) ** 2 / 2 - gamma * kappa)
    t = 0.07
    lo = amplitudes_at(PhysicalParams(h=h_crit * (1 - 1e-9), kappa=kappa, gamma=gamma), t)
    hi = amplitudes_at(PhysicalParams(h=h_crit * (1 + 1e-9), kappa=kappa, gamma=gamma), t)
    assert abs(lo.c_alpha - hi.c_alpha) < 1e-7
    assert abs(lo.c_g - hi.c_g) < 1e-7


def test_lossless_emission_is_certain():
    p = PhysicalParams(h=50.0, kappa=0.0, gamma=0.0)
    t = np.pi / (np.sqrt(2.0) * p.h)
    assert emission_probability(p, t) == pytest.approx(1.0, abs=1e-12)


def test_window_event_probabilities_sum_to_one():
    window = RB_PARAMS.default_window()
    leak, spont, none = event_probabilities(RB_PARAMS, window)
    assert leak + spont + none == pytest.approx(1.0, abs=1e-10)
    assert leak == pytest.approx(leak_probability_quadrature(RB_PARAMS, upper=window), abs=1e-8)


def test_event_sampler_frequencies():
    rng = np.random.default_rng(11)
    window = RB_PARAMS.default_window()
    kinds, _, _ = sample_emission_events(RB_PARAMS, rng, 20000, window=window)
    leak, spont, none = event_probabilities(RB_PARAMS, window)
    n_leak = np.sum(kinds == dyn.EventKind.PHOTON_LEAK)
    sigma = np.sqrt(leak * (1 - leak) / kinds.size)
    assert abs(n_leak / kinds.size - leak) < 4 * sigma


def test_sampled_leak_times_within_window():
    rng = np.random.default_rng(3)
    window = RB_PARAMS.default_window()
    kinds, times, _ = sample_emission_events(RB_PARAMS, rng, 500, window=window)
    mask = kinds != dyn.EventKind.NO_EVENT
    assert np.all(times[mask] >= 0.0)
    assert np.all(times[mask] <= window)


def test_wavepacket_overlap_normalisation():
    assert wavepacket_overlap(RB_PARAMS, RB_PARAMS) == pytest.approx(1.0, abs=1e-9)


def test_wavepacket_overlap_mismatched_cavities():
    pert = PhysicalParams(
        h=RB_PARAMS.h * 1.1, kappa=RB_PARAMS.kappa, gamma=RB_PARAMS.gamma
    )
    ov = wavepacket_overlap(RB_PARAMS, pert)
    assert abs(ov) < 1.0
    assert abs(ov) == pytest.approx(0.8869569217792003, abs=1e-7)
    assert wavepacket_overlap(pert, RB_PARAMS) == pytest.approx(np.conj(ov), abs=1e-9)


def test_zero_decay_with_coupling_rejected():
    p = PhysicalParams(h=10.0, kappa=0.0, gamma=0.0)
    with pytest.raises(ValueError):
        leak_probability_total(p)


# ----------------------------------------------------------------------
# closed forms against their quadrature oracles
# ----------------------------------------------------------------------
# Tight quadrature settings for the oracles: the closed forms must agree to
# 1e-12 absolute, far below quad's default 1.49e-8 error target.
TIGHT = dict(epsabs=1e-14, epsrel=1e-13, limit=4000)
ORACLE_DRAWS = list(cli.oracle_draws(100))


def _degenerate_params(kappa, gamma):
    """Rates whose two-level discriminant d^2 - omega^2 is exactly 0 (b = 0)."""
    d = 0.5 * (kappa - gamma / 2.0)
    h = abs(d) * np.sqrt(2.0)
    for _ in range(16):
        omega = h / np.sqrt(2.0)
        if d * d == omega * omega:
            return PhysicalParams(h=float(h), kappa=kappa, gamma=gamma)
        h = np.nextafter(h, 0.0 if omega * omega > d * d else np.inf)
    raise AssertionError("no exactly degenerate coupling found")


DEGENERATE = [_degenerate_params(4.0, 2.0), _degenerate_params(10.0, 4.0),
              _degenerate_params(1.0, 8.0)]


def test_oracle_draws_cover_the_critical_coupling():
    near = [p for p in ORACLE_DRAWS if abs(beta(p)) * p.default_window() < 1e-2]
    assert len(near) >= 10
    assert all(beta(p) == 0 for p in DEGENERATE)


def _numpy_two_level_amplitudes(omega, decay0, decay1, t):
    """Reference: the two-level amplitude kernel on numpy scalar ufuncs."""
    s = 0.5 * (decay0 + decay1)
    d = 0.5 * (decay1 - decay0)
    b = np.sqrt(complex(d * d - omega * omega))
    bt = b * t
    if abs(bt) < dyn._SERIES_CUTOFF:
        z2 = bt * bt
        shc = 1.0 + z2 / 6.0 * (1.0 + z2 / 20.0 * (1.0 + z2 / 42.0))
        env = np.exp(-s * t)
        return env * (np.cosh(bt) + d * t * shc), env * (-1j * omega * t * shc)
    e_plus, e_minus = np.exp((b - s) * t), np.exp(-(b + s) * t)
    return (0.5 * ((1.0 + d / b) * e_plus + (1.0 - d / b) * e_minus),
            -1j * (omega / (2.0 * b)) * (e_plus - e_minus))


@pytest.mark.parametrize("p", ORACLE_DRAWS + DEGENERATE + [RB_PARAMS, ION_PARAMS])
def test_scalar_kernel_matches_numpy_reference(p):
    # cmath and numpy may round exp, cosh and sqrt differently in the last
    # bit; near b = 0 the d/b factors amplify that by up to about 1e4
    rates = dyn._two_level_rates(p)
    kernel = dyn._two_level_kernel(*rates)
    for t in np.linspace(0.0, 5.0 * dyn.decay_timescale(p), 25):
        got = kernel(float(t))[:2]
        ref = _numpy_two_level_amplitudes(*rates, float(t))
        assert max(abs(g - r) for g, r in zip(got, ref)) < 1e-11


@pytest.mark.parametrize("p", ORACLE_DRAWS + DEGENERATE + [RB_PARAMS, ION_PARAMS])
def test_window_probabilities_match_quadrature(p):
    w = p.default_window()
    leak, spont, survive = event_probabilities(p, w)
    assert abs(leak - leak_probability_quadrature(p, w, **TIGHT)) < 1e-12
    assert abs(spont - spont_probability_quadrature(p, w, **TIGHT)) < 1e-12
    assert abs(survive - amplitudes_at(p, w).survival()) < 1e-12


@pytest.mark.parametrize("p", ORACLE_DRAWS[:50] + DEGENERATE)
def test_wavepacket_overlap_matches_quadrature(p):
    q = replace(p, h=p.h * 1.1, kappa=p.kappa * 0.9, gamma=p.gamma * 1.05)
    assert abs(wavepacket_overlap(p, q)
               - dyn.wavepacket_overlap_quadrature(p, q, **TIGHT)) < 1e-12
    assert abs(wavepacket_overlap(p, p) - 1.0) < 1e-12


# consecutive draws whose decay times differ more than a hundredfold: over
# the slower cell's horizon alone, quad steps over the faster envelope's peak
FAR_APART = [(a, b) for a, b in zip(ORACLE_DRAWS, ORACLE_DRAWS[1:])
             if max(dyn.decay_timescale(a), dyn.decay_timescale(b))
             > 100.0 * min(dyn.decay_timescale(a), dyn.decay_timescale(b))]


def test_far_apart_pairs_include_the_widest():
    assert len(FAR_APART) >= 4
    assert (ORACLE_DRAWS[70], ORACLE_DRAWS[71]) in FAR_APART  # ratio 554


@pytest.mark.parametrize("pair", FAR_APART)
def test_wavepacket_overlap_quadrature_sees_the_fast_peak(pair):
    p, q = pair
    assert abs(wavepacket_overlap(p, q)
               - dyn.wavepacket_overlap_quadrature(p, q, **TIGHT)) < 1e-12


@pytest.mark.parametrize("p", [RB_PARAMS, ION_PARAMS, DEGENERATE[0]])
def test_event_sampler_cdf_is_exact(p):
    w = p.default_window()
    sampler = dyn._EventSampler(p, w)
    leak, spont, _ = event_probabilities(p, w)
    assert abs(sampler.p_leak - leak) <= 1e-15
    assert abs(sampler.p_spont - spont) <= 1e-15
    assert sampler.cum_leak[0] == 0.0 and sampler.cum_spont[0] == 0.0
    assert np.all(np.diff(sampler.cum_leak) >= 0) and np.all(np.diff(sampler.cum_spont) >= 0)
    for k in (1, 100, 1000, 3000):
        t = sampler.t[k]
        assert abs(sampler.cum_leak[k] - leak_probability_quadrature(p, t, **TIGHT)) < 1e-12
        assert abs(sampler.cum_spont[k] - spont_probability_quadrature(p, t, **TIGHT)) < 1e-12

