"""Complex-baseband channel models: AWGN, Rayleigh and Rician fading.

channel_gain maps standard normal draws to complex channel gains; the
simulator calls it once per packet (block fading, i.i.d. across packets)
and the batch samplers wrap it, so validate-channel checks the gains the
simulator uses.  The closed-form magnitude densities are exposed for
validation against the samplers.

Conventions: a complex channel gain h = h_I + j*h_Q with i.i.d. N(0, sigma^2)
quadratures has Rayleigh-distributed magnitude; adding a line-of-sight
component A*exp(j*theta) makes the magnitude Rician with K = A^2/(2*sigma^2).
Complex AWGN of power spectral density N0 has variance N0/2 per quadrature.

Only rician_mean and rician_pdf import scipy (scipy.special).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .rng import RngStream


@dataclass(frozen=True)
class AwgnParams:
    """Additive white Gaussian noise with total power spectral density n0."""

    n0: float

    def __post_init__(self):
        if not (self.n0 > 0 and math.isfinite(self.n0)):
            raise InvalidParameterError(f"n0 must be > 0, got {self.n0}")


@dataclass(frozen=True)
class RayleighParams:
    """NLOS fading: per-quadrature std sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InvalidParameterError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class RicianParams:
    """LOS amplitude/phase plus scattered NLOS power 2*sigma^2."""

    amplitude: float
    sigma: float
    phase: float = 0.0

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise InvalidParameterError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise InvalidParameterError(f"sigma must be > 0, got {self.sigma}")
        if not math.isfinite(self.phase):
            raise InvalidParameterError(f"phase must be finite, got {self.phase}")


def sample_awgn_batch(params: AwgnParams, n: int, rng: RngStream) -> np.ndarray:
    """Vectorized draw of n AWGN samples as a complex array."""
    scale = math.sqrt(params.n0 / 2.0)
    z = rng.gen.normal(0.0, scale, (2, n))
    return z[0] + 1j * z[1]


def channel_gain(params: RayleighParams | RicianParams, z: np.ndarray) -> np.ndarray:
    """Complex gains LOS + sigma*(z[0] + 1j*z[1]) from a (2, n) array of
    standard normals; Rayleigh has no LOS term."""
    s = params.sigma * z
    h = s[0] + 1j * s[1]
    if isinstance(params, RicianParams):
        h += params.amplitude * complex(math.cos(params.phase), math.sin(params.phase))
    return h


def sample_rayleigh_gain_batch(params: RayleighParams, n: int, rng: RngStream) -> np.ndarray:
    """n NLOS gains h = h_I + j*h_Q, quadratures ~ N(0, sigma^2)."""
    return channel_gain(params, rng.gen.standard_normal((2, n)))


def sample_rician_gain_batch(params: RicianParams, n: int, rng: RngStream) -> np.ndarray:
    """n gains with a fixed LOS term plus scattered CN(0, 2*sigma^2)."""
    return channel_gain(params, rng.gen.standard_normal((2, n)))


def rayleigh_pdf(r, sigma: float):
    """Density (r/sigma^2)*exp(-r^2/(2 sigma^2)) of the NLOS gain magnitude.

    Accepts a scalar or array r >= 0.
    """
    if not 0 < sigma < math.inf:
        raise InvalidParameterError(f"sigma must be finite and > 0, got {sigma}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("magnitude r must be >= 0")
    s2 = sigma * sigma
    out = (r / s2) * np.exp(-(r * r) / (2.0 * s2))
    return out if out.ndim else float(out)


def rayleigh_cdf(r, sigma: float):
    """Closed-form CDF 1 - exp(-r^2/(2 sigma^2)); KS reference for the sampler."""
    if not 0 < sigma < math.inf:
        raise InvalidParameterError(f"sigma must be finite and > 0, got {sigma}")
    r = np.asarray(r, dtype=float)
    out = 1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))
    return out if out.ndim else float(out)


def rician_mean(params: RicianParams) -> float:
    """Mean of the Rician magnitude, s*sqrt(pi/2)*L_1/2(-A^2/(2 s^2)).

    The Laguerre function is written with the exponentially-scaled
    Bessels, exp(-y)*[(1+2y)*I0(y) + 2y*I1(y)] with y = A^2/(4 s^2), so no
    term overflows.
    """
    from scipy import special

    ratio = params.amplitude / params.sigma
    if ratio > 1e8:  # the mean is A*(1 + s^2/(2 A^2) + ...), A to within 1e-16
        return params.amplitude
    y = ratio * ratio / 4.0
    scaled = (1.0 + 2.0 * y) * special.i0e(y) + 2.0 * y * special.i1e(y)
    return params.sigma * math.sqrt(math.pi / 2.0) * float(scaled)


def rician_pdf(r, params: RicianParams):
    """Density (r/s^2)*exp(-(r^2+A^2)/(2 s^2))*I0(rA/s^2) of the Rician magnitude.

    Evaluated via the exponentially-scaled Bessel i0e so large LOS/magnitude
    arguments do not overflow: the product collapses to
    (r/s^2)*exp(-(r-A)^2/(2 s^2))*i0e(rA/s^2).
    """
    from scipy import special

    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("magnitude r must be >= 0")
    a, s2 = params.amplitude, params.sigma * params.sigma
    out = (r / s2) * np.exp(-((r - a) ** 2) / (2.0 * s2)) * special.i0e(r * a / s2)
    return out if out.ndim else float(out)
