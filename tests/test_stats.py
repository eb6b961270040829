import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from blindsearch.evaluation import REFERENCE_FD, REFERENCE_SPAN
from blindsearch.stats import (FreqDrift, PhotonSeries, SignalSpec, blocked_power,
                               chi2_2_isf, chi2_2_quantile, chi2_2_sf,
                               phase, rayleigh_power, read_photons, simulate_photons,
                               write_photons)


def series(times, span):
    return PhotonSeries(np.asarray(times, dtype=float), span)


def test_rayleigh_power_frozen_three_photons():
    # |sum exp(2 pi i t)|^2 * 2/3 for t = 0, 0.1, 0.35 at omega = 1
    p = series([0.0, 0.1, 0.35], 1.0)
    assert rayleigh_power(p, FreqDrift(1.0)) == pytest.approx(2.2949756561099657, rel=1e-14)


def test_rayleigh_power_in_phase_photons():
    # photons exactly one cycle apart: coherent sum, power = 2m
    p = series([0.0, 1.0, 2.0, 3.0], 4.0)
    assert rayleigh_power(p, FreqDrift(1.0)) == pytest.approx(8.0, rel=1e-12)


def test_drift_term_enters_phase():
    fd = FreqDrift(2.0, 0.125)
    t = np.array([0.0, 1.0, 2.0])
    ph = phase(t, fd)
    assert ph == pytest.approx([0.0, 2.0625, 4.25])


def test_blocked_power_kappa_zero_is_rayleigh():
    rng = np.random.default_rng(5)
    p = series(np.sort(rng.uniform(0, 50, 40)), 50.0)
    fd = FreqDrift(0.73, -1e-4)
    assert blocked_power(p, fd, 0) == rayleigh_power(p, fd)


def test_blocked_power_manual_two_blocks():
    p = series([0.1, 0.2, 0.6, 0.9], 1.0)
    fd = FreqDrift(3.0, 0.0)
    first = series([0.1, 0.2], 1.0)
    second = series([0.6, 0.9], 1.0)
    # same m in the normalization: recombine the per-half squared moduli
    want = (2 * rayleigh_power(first, fd) + 2 * rayleigh_power(second, fd)) / 4
    assert blocked_power(p, fd, 1) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kappa", [0, 1, 2, 3])
def test_reference_span_matches_extended_precision(kappa):
    # phases up to 1.2e7 cycles, where 2 pi times the unreduced phase rounds by up to 7e-9 rad
    photons = simulate_photons(SignalSpec(REFERENCE_FD, 0.5, 400, REFERENCE_SPAN), 3)
    c = phase(photons.times, REFERENCE_FD).astype(np.longdouble)
    ph = 8 * np.arctan(np.longdouble(1)) * (c - np.rint(c))
    re, im = np.cos(ph), np.sin(ph)
    # time t lies in block min(floor(t * 2^kappa / span), 2^kappa - 1)
    nb = 1 << kappa
    block = np.minimum(np.floor(photons.times * (nb / photons.span)), nb - 1)
    bounds = np.searchsorted(block, np.arange(nb + 1), side="left")
    want = 2 * sum(re[lo:hi].sum() ** 2 + im[lo:hi].sum() ** 2
                   for lo, hi in zip(bounds[:-1], bounds[1:])) / photons.count
    got = [blocked_power(photons, REFERENCE_FD, kappa)]
    if kappa == 0:
        got.append(rayleigh_power(photons, REFERENCE_FD))
    for value in got:
        assert abs(value - want) <= 1e-13 * max(1.0, float(want))


@given(st.integers(0, 5))
def test_blocked_power_empty_blocks_are_fine(kappa):
    p = series([3.0, 3.1], 100.0)
    fd = FreqDrift(1.5)
    v = blocked_power(p, fd, kappa)
    assert math.isfinite(v) and v >= 0


def test_chi2_tail_frozen_values():
    assert chi2_2_quantile(0.999) == pytest.approx(13.815510557964274, rel=1e-15)
    assert chi2_2_isf(5e-11) == pytest.approx(47.437996221000804, rel=1e-14)
    assert chi2_2_isf(1e-3) == pytest.approx(chi2_2_quantile(0.999), rel=1e-13)
    assert chi2_2_sf(0.0) == 1.0
    assert chi2_2_sf(13.815510557964274) == pytest.approx(1e-3, rel=1e-12)


@given(st.floats(0, 0.999999, allow_nan=False))
def test_chi2_quantile_inverts_sf(p):
    assert chi2_2_sf(chi2_2_quantile(p)) == pytest.approx(1 - p, rel=1e-9, abs=1e-15)


def test_chi2_matches_scipy():
    for x in (0.1, 1.0, 5.0, 20.0, 45.0):
        assert chi2_2_sf(x) == pytest.approx(sps.chi2.sf(x, df=2), rel=1e-12)
    for p in (0.01, 0.5, 0.99, 0.99999):
        assert chi2_2_quantile(p) == pytest.approx(sps.chi2.ppf(p, df=2), rel=1e-10)


def test_null_statistic_is_approximately_chi2_2():
    rng = np.random.default_rng(42)
    m = 500
    fd = FreqDrift(1.37, 0.0)
    vals = []
    for _ in range(400):
        p = series(np.sort(rng.uniform(0, 100.0, m)), 100.0)
        vals.append(rayleigh_power(p, fd))
    ks = sps.kstest(vals, sps.chi2(df=2).cdf).statistic
    assert ks < 0.08


def test_simulate_photons_reproducible_and_valid():
    spec = SignalSpec(FreqDrift(2.0, -1e-6), 0.5, 300, 50.0)
    a = simulate_photons(spec, 9)
    b = simulate_photons(spec, 9)
    assert np.array_equal(a.times, b.times)
    assert a.count == 300
    assert a.times[0] >= 0 and a.times[-1] <= 50.0
    assert np.all(np.diff(a.times) >= 0)
    c = simulate_photons(spec, 10)
    assert not np.array_equal(a.times, c.times)


def test_simulate_photons_zero_theta_is_uniform():
    spec = SignalSpec(FreqDrift(1.0), 0.0, 4000, 1.0)
    p = simulate_photons(spec, 3)
    # KS against uniform on [0, 1]
    assert sps.kstest(p.times, "uniform").statistic < 0.03


def test_simulate_photons_modulation_mean():
    # |E exp(2 pi i phase)| = theta/2 over whole cycles
    theta = 0.8
    spec = SignalSpec(FreqDrift(4.0), theta, 60_000, 25.0)
    p = simulate_photons(spec, 11)
    z = np.exp(2j * np.pi * phase(p.times, spec.fd)).mean()
    assert abs(z) == pytest.approx(theta / 2, abs=0.02)


def test_signal_raises_mean_statistic():
    # E F at truth = 2 - theta^2/2 + m theta^2/2
    theta, m = 0.34, 1072
    spec = SignalSpec(FreqDrift(3.0), theta, m, 200.0)
    vals = [rayleigh_power(simulate_photons(spec, s), spec.fd) for s in range(60)]
    want = 2 - theta ** 2 / 2 + m * theta ** 2 / 2
    assert want == pytest.approx(63.9038, abs=1e-4)
    assert np.mean(vals) == pytest.approx(want, rel=0.12)


def test_photon_io_roundtrip(tmp_path):
    spec = SignalSpec(FreqDrift(1.1, -2e-7), 0.3, 64, 123.5)
    p = simulate_photons(spec, 21)
    path = tmp_path / "events.txt"
    write_photons(path, p)
    q = read_photons(path)
    assert q.span == p.span
    assert np.array_equal(q.times, p.times)


def test_read_photons_span_override_and_errors(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("0.5\n0.25\n2.0\n")
    with pytest.raises(ValueError):
        read_photons(path)  # no header, no span argument
    p = read_photons(path, span=4.0)
    assert p.span == 4.0
    assert p.times.tolist() == [0.25, 0.5, 2.0]  # sorted on read
    bad = tmp_path / "bad.txt"
    bad.write_text("# T=10\nnot-a-number\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_photons(bad)


@pytest.mark.parametrize("fd, span", [
    (REFERENCE_FD, math.inf),
    (FreqDrift(1.0), math.nan),
    (REFERENCE_FD, 1e300),  # the drift term overflows to -inf
    (FreqDrift(1e300, 1e300), 1e10),  # both terms overflow
    (FreqDrift(1e300, -1e300), 1e154),  # inf - inf is nan
], ids=["inf", "nan", "drift_overflow", "both_overflow", "nan_phase"])
def test_signal_spec_rejects_a_span_without_a_finite_phase(fd, span):
    # simulate_photons would never accept a photon at such a phase
    with pytest.raises(ValueError, match="span must be positive and finite|phase"):
        SignalSpec(fd, 0.5, 10, span)


def test_photon_series_validation():
    with pytest.raises(ValueError):
        series([], 1.0)
    with pytest.raises(ValueError):
        series([0.5, 0.1], 1.0)  # decreasing
    with pytest.raises(ValueError):
        series([0.5, 1.5], 1.0)  # beyond span
    for span in (math.inf, math.nan):
        with pytest.raises(ValueError, match="span must be positive and finite"):
            series([1.0], span)
    with pytest.raises(ValueError):
        FreqDrift(0.0)
    with pytest.raises(ValueError):
        SignalSpec(FreqDrift(1.0), 1.5, 10, 1.0)
