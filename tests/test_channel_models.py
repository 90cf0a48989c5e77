"""Channel model tests: the gain source, moment checks, KS fits, Bessel oracle, reproducibility."""
import math

import numpy as np
import pytest
from scipy import integrate, stats

from iiot_netsim.channel_models import (
    AwgnParams,
    RayleighParams,
    RicianParams,
    channel_gain,
    rayleigh_cdf,
    rayleigh_pdf,
    rician_mean,
    rician_pdf,
    sample_awgn_batch,
    sample_rayleigh_gain_batch,
    sample_rician_gain_batch,
)
from iiot_netsim.errors import DomainError, InvalidParameterError
from iiot_netsim.rng import RngStream

SEED = 20260817
N_BIG = 10**6
N_KS = 10**5
KS_ALPHA = 0.01


def stream(*path):
    return RngStream(SEED).child(*path)


# ---- parameter validation ----------------------------------------------


def test_param_validation():
    with pytest.raises(InvalidParameterError):
        AwgnParams(n0=0.0)
    with pytest.raises(InvalidParameterError):
        AwgnParams(n0=-1.0)
    with pytest.raises(InvalidParameterError):
        RayleighParams(sigma=0.0)
    with pytest.raises(InvalidParameterError):
        RicianParams(amplitude=-0.1, sigma=1.0)
    with pytest.raises(InvalidParameterError):
        RicianParams(amplitude=1.0, sigma=0.0)
    for phase in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="phase"):
            RicianParams(amplitude=1.0, sigma=1.0, phase=phase)


# ---- sampler moments -----------------------------------------------------


def test_awgn_quadrature_variance():
    n = sample_awgn_batch(AwgnParams(n0=1.0), N_BIG, stream("awgn-var"))
    assert abs(n.real.var() - 0.5) < 0.005
    assert abs(n.imag.var() - 0.5) < 0.005
    # quadratures uncorrelated
    assert abs(np.mean(n.real * n.imag)) < 0.01


def test_awgn_total_power():
    n = sample_awgn_batch(AwgnParams(n0=2.0), N_BIG, stream("awgn-pow"))
    assert abs(np.mean(np.abs(n) ** 2) - 2.0) < 0.02


def test_awgn_vanishing_noise():
    n = sample_awgn_batch(AwgnParams(n0=1e-30), 100, stream("awgn-zero"))
    assert np.all(np.abs(n) < 1e-10)


def test_rayleigh_moments():
    h = sample_rayleigh_gain_batch(RayleighParams(sigma=1.0), N_BIG, stream("ray-mom"))
    r = np.abs(h)
    assert abs(r.mean() - math.sqrt(math.pi / 2.0)) < 0.01
    assert abs(np.mean(r * r) - 2.0) < 0.02
    assert np.all(r >= 0)


# ---- closed-form densities ----------------------------------------------


def test_rayleigh_pdf_values():
    assert rayleigh_pdf(0.0, sigma=1.0) == 0.0
    # mode at r = sigma
    grid = np.linspace(0.0, 6.0, 6001)
    assert abs(grid[np.argmax(rayleigh_pdf(grid, sigma=1.0))] - 1.0) < 1e-3
    with pytest.raises(DomainError):
        rayleigh_pdf(-0.5, sigma=1.0)
    with pytest.raises(InvalidParameterError):
        rayleigh_pdf(1.0, sigma=0.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
@pytest.mark.parametrize("density", [rayleigh_pdf, rayleigh_cdf])
def test_rayleigh_closed_forms_reject_non_finite_sigma(density, sigma):
    with pytest.raises(InvalidParameterError, match="finite"):
        density(1.0, sigma)


def test_rayleigh_pdf_normalization():
    val, _ = integrate.quad(lambda r: rayleigh_pdf(r, sigma=1.0), 0.0, 20.0)
    assert abs(val - 1.0) < 1e-6


def test_rician_pdf_reduces_to_rayleigh():
    p = RicianParams(amplitude=0.0, sigma=1.3)
    r = np.linspace(0.0, 10.0, 401)
    np.testing.assert_allclose(rician_pdf(r, p), rayleigh_pdf(r, 1.3), rtol=1e-12)


def test_rician_pdf_normalization():
    p = RicianParams(amplitude=1.0, sigma=1.0)
    val, _ = integrate.quad(lambda r: rician_pdf(r, p), 0.0, 30.0, limit=200)
    assert abs(val - 1.0) < 1e-6
    assert rician_pdf(0.0, p) == 0.0


@pytest.mark.parametrize("amplitude,sigma", [(0.5, 0.2), (3.0, 1.0), (10.0, 0.5), (0.0, 2.0)])
def test_pdf_normalization_sweep(amplitude, sigma):
    p = RicianParams(amplitude=amplitude, sigma=sigma)
    hi = amplitude + 12.0 * sigma
    val, _ = integrate.quad(lambda r: rician_pdf(r, p), 0.0, hi, limit=400)
    assert abs(val - 1.0) < 1e-6
    val_ray, _ = integrate.quad(lambda r: rayleigh_pdf(r, sigma), 0.0, 12.0 * sigma)
    assert abs(val_ray - 1.0) < 1e-6


@pytest.mark.parametrize("ratio", [0.0, 0.5, 3.0, 30.0, 40.0, 1e3, 1e6, 1e8, 2e8, 1e200])
def test_rician_mean_matches_the_laguerre_form(ratio):
    # s*sqrt(pi/2)*1F1(-1/2; 1; -A^2/(2 s^2)) in 40 digits; scipy's
    # rice.mean is inf or NaN from A/s = 38 and hangs near 1e8
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    laguerre = mpmath.hyp1f1(-0.5, 1, -mpmath.mpf(ratio) ** 2 / 2)
    ref = 2.0 * float(mpmath.sqrt(mpmath.pi / 2) * laguerre)
    got = rician_mean(RicianParams(amplitude=2.0 * ratio, sigma=2.0))
    assert got == pytest.approx(ref, rel=1e-15)


def test_rician_mean_matches_scipy_where_scipy_is_finite():
    for ratio in [0.0, 0.1, 1.0, 5.0, 10.0, 30.0]:
        expect = stats.rice(ratio, scale=0.7).mean()
        assert rician_mean(RicianParams(amplitude=0.7 * ratio, sigma=0.7)) == pytest.approx(
            expect, rel=1e-14
        )


# ---- the single gain source ---------------------------------------------


@pytest.mark.parametrize(
    "params,sampler",
    [
        (RayleighParams(sigma=0.7), sample_rayleigh_gain_batch),
        (RicianParams(amplitude=1.3, sigma=0.7, phase=0.9), sample_rician_gain_batch),
    ],
    ids=["rayleigh", "rician"],
)
def test_samplers_are_channel_gain(params, sampler):
    n = 1000
    h = sampler(params, n, RngStream(42, (3,)))
    z = RngStream(42, (3,)).gen.standard_normal((2, n))
    np.testing.assert_array_equal(h, channel_gain(params, z))


def test_channel_gain_formula():
    z = np.array([[0.5, -1.0, 0.0], [2.0, 0.25, -3.0]])
    h = channel_gain(RayleighParams(sigma=2.0), z)
    np.testing.assert_array_equal(h, 2.0 * z[0] + 2.0j * z[1])
    los = 3.0 * complex(math.cos(0.4), math.sin(0.4))
    h = channel_gain(RicianParams(amplitude=3.0, sigma=2.0, phase=0.4), z)
    np.testing.assert_allclose(h, los + 2.0 * z[0] + 2.0j * z[1], rtol=0, atol=1e-15)


def test_rician_autocorrelation():
    # fading is i.i.d. per packet: the correlation E[h_k conj(h_k+lag)] is the
    # total power A^2 + 2 sigma^2 at lag 0 and only the LOS power A^2 beyond
    p = RicianParams(amplitude=1.0, sigma=1.0, phase=0.7)
    h = sample_rician_gain_batch(p, N_BIG, stream("ric-acf"))
    assert abs(np.mean(np.abs(h) ** 2) - 3.0) < 0.02
    for lag in (1, 2, 5):
        r = np.mean(h[:-lag] * np.conj(h[lag:]))
        assert abs(r - 1.0) < 0.02


# ---- distribution fits ----------------------------------------------------


def test_rayleigh_ks_fit():
    h = sample_rayleigh_gain_batch(RayleighParams(sigma=1.0), N_KS, stream("ray-ks"))
    res = stats.kstest(np.abs(h), lambda r: rayleigh_cdf(r, 1.0))
    assert res.pvalue > KS_ALPHA


def test_rician_zero_los_matches_rayleigh():
    p = RicianParams(amplitude=0.0, sigma=1.0)
    h = sample_rician_gain_batch(p, N_KS, stream("ric-a0"))
    res = stats.kstest(np.abs(h), lambda r: rayleigh_cdf(r, 1.0))
    assert res.pvalue > KS_ALPHA


@pytest.mark.parametrize("k_target", [0.5, 1.0, 5.0])
def test_rician_ks_fit(k_target):
    # CDF integrated numerically from the density, then interpolated
    sigma = 1.0
    amp = math.sqrt(2.0 * k_target) * sigma
    p = RicianParams(amplitude=amp, sigma=sigma)
    grid = np.linspace(0.0, amp + 12.0 * sigma, 40001)
    cdf_grid = integrate.cumulative_trapezoid(rician_pdf(grid, p), grid, initial=0.0)
    h = sample_rician_gain_batch(p, N_KS, stream("ric-ks", str(k_target)))
    res = stats.kstest(np.abs(h), lambda r: np.interp(r, grid, cdf_grid))
    assert res.pvalue > KS_ALPHA


@pytest.mark.parametrize("k_target", [0.5, 2.0, 5.0])
def test_k_moment_estimator(k_target):
    sigma = 0.7
    amp = math.sqrt(2.0 * k_target) * sigma
    p = RicianParams(amplitude=amp, sigma=sigma, phase=0.9)
    h = sample_rician_gain_batch(p, N_BIG, stream("kmom", str(k_target)))
    # moment estimate: A^2 = sqrt(2 m2^2 - m4), scattered power 2 sigma^2 = m2 - A^2
    r2 = np.abs(h) ** 2
    m2, m4 = r2.mean(), (r2 * r2).mean()
    a2 = math.sqrt(2.0 * m2 * m2 - m4)
    k_hat = a2 / (m2 - a2)
    assert abs(k_hat - k_target) / k_target < 0.05


# ---- Bessel accuracy against a high-precision oracle ----------------------


def test_bessel_i0_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    from scipy.special import i0e

    for z in np.logspace(-3, 3, 25):
        ref = float(mpmath.besseli(0, z) * mpmath.exp(-z))
        assert abs(i0e(z) - ref) <= 1e-10 * max(1.0, abs(ref))


# ---- reproducibility -------------------------------------------------------


def test_identical_streams_identical_samples():
    a = sample_rayleigh_gain_batch(RayleighParams(sigma=1.0), 1000, RngStream(42, (7,)))
    b = sample_rayleigh_gain_batch(RayleighParams(sigma=1.0), 1000, RngStream(42, (7,)))
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_uncorrelated():
    a = sample_awgn_batch(AwgnParams(n0=1.0), N_KS, RngStream(42, (1,)))
    b = sample_awgn_batch(AwgnParams(n0=1.0), N_KS, RngStream(42, (2,)))
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a.real, b.real)[0, 1]
    assert abs(corr) < 0.01
