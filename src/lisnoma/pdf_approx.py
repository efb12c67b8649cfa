"""Density models for the cascaded channel sum.

Three interchangeable models for the scaled channel gain q = S / sqrt(D):

* ``pdf_g``: a four-moment fit whose kernel is ``meijer_g_2012``. The four
  fit equations are solved in closed form; they are the unique exact
  solution of the underlying moment-matching system.
* ``pdf_double_rayleigh``: the exact single-element density.
* ``pdf_clt``: the Gaussian limit for large surfaces.

For small M the closed-form fit produces a complex-conjugate pair in the
two lower kernel parameters (the discriminant in the fit chain is
negative). The density stays real and correctly normalized, so the fit
is returned with ``complex_pair`` set rather than rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .moments import Moments, analytic_moments
from .specfun import meijer_g_2012

_NEG_TOL = 1e-12


class FittingError(RuntimeError):
    """The moment fit could not produce usable parameters."""


@dataclass(frozen=True)
class GParams:
    """Fitted kernel parameters.

    ``a4`` and ``a5`` are the lower kernel parameters, a complex conjugate
    pair when ``complex_pair`` is set (small M). ``a6 = a4 + a5`` and
    ``a7 = a4 - a5`` are kept for reference; ``phi`` holds the four
    moment ratios the fit matched. ``log_a1`` is the reliable form of the
    normalizing constant for heavy parameter regimes.
    """

    M: int
    sigma2: float
    a1: float
    log_a1: float
    a2: float
    a3: float
    a4: complex
    a5: complex
    a6: float
    a7: complex
    phi: tuple
    complex_pair: bool

    def __post_init__(self):
        if abs((self.a4 + self.a5) - self.a6) > 1e-9 * max(1.0, abs(self.a6)):
            raise FittingError("inconsistent parameter sums")
        if self.complex_pair != (abs(complex(self.a7).imag) > 0):
            raise FittingError("complex flag disagrees with the parameters")

    @property
    def min_lower_real(self) -> float:
        return min(complex(self.a4).real, complex(self.a5).real)


def fit_gparams(M: int, sigma2: float = 0.5) -> GParams:
    mom = analytic_moments(M, sigma2)
    return fit_from_moments(mom, M=M, sigma2=sigma2)


def fit_from_moments(mom: Moments, M: int = 0, sigma2: float = 0.0) -> GParams:
    """Closed-form solution of the four moment-ratio equations."""
    mu1, mu2, mu3, mu4 = mom.as_tuple()
    if min(mu1, mu2, mu3, mu4) <= 0:
        raise FittingError("moments must be positive")
    p2 = mu2 / mu1
    p3 = mu3 / mu2
    p4 = mu4 / mu3

    den = -p4 + 3 * p3 - 3 * p2 + mu1
    if den == 0:
        raise FittingError("degenerate moment ratios")
    a3 = (4 * p4 - 9 * p3 + 6 * p2 - mu1) / den
    a2 = (a3 / 2) * (p4 - 2 * p3 + p2) + 2 * p4 - 3 * p3 + p2
    if a2 <= 0:
        raise FittingError("nonpositive scale parameter")
    W = (a3 * (p2 - mu1) + 2 * p2 - mu1) / a2
    a6 = W - 3.0
    disc = (W - 1.0) ** 2 - 4.0 * mu1 * (a3 + 1.0) / a2
    if disc >= 0:
        a7 = complex(math.sqrt(disc))
    else:
        a7 = cmath.sqrt(complex(disc))  # conjugate-pair branch, flagged
    a4 = (a6 + a7) / 2
    a5 = (a6 - a7) / 2

    for p in (a4, a5):
        if abs(p.imag) < _NEG_TOL:
            r = round(p.real)
            if r <= -1 and abs(p.real - r) < 1e-9:
                raise FittingError(
                    "gamma pole in the normalizing constant at parameter "
                    f"{p.real}")

    log_a1 = float(np.real(
        sp.loggamma(a3 + 1.0) - math.log(a2)
        - sp.loggamma(a4 + 1.0) - sp.loggamma(a5 + 1.0)))
    a1 = math.exp(log_a1) if log_a1 < 700 else math.inf

    params = GParams(
        M=int(M), sigma2=float(sigma2), a1=a1, log_a1=log_a1, a2=float(a2),
        a3=float(a3), a4=a4, a5=a5, a6=float(a6), a7=a7, phi=(mu1, p2, p3, p4),
        complex_pair=bool(abs(a7.imag) > 0))

    # cheap self-check: the fitted kernel must integrate to one
    norm = gparams_moment(params, 0)
    if abs(norm - 1.0) > 1e-8:
        raise FittingError(f"fit lost normalization: {norm}")
    return params


def gparams_moment(params: GParams, i: int) -> float:
    """i-th raw moment implied by the fitted kernel (i = 0 gives the mass).

    Evaluated through the kernel's Mellin transform, entirely in log
    space, so it stays finite for heavy parameters.
    """
    if i < 0:
        raise ValueError("moment order must be nonnegative")
    val = (params.log_a1 + (i + 1) * math.log(params.a2)
           + np.real(sp.loggamma(params.a4 + 1.0 + i)
                     + sp.loggamma(params.a5 + 1.0 + i)
                     - sp.loggamma(params.a3 + 1.0 + i)))
    return float(math.exp(val))


def pdf_g(x, params: GParams, D: float = 1.0):
    """Fitted density of q = S / sqrt(D), vectorized over x.

    The complex-exponent branch (M <= 3) oscillates near the origin, so
    the approximant dips slightly negative there. Those signed values are
    returned as-is: integrals against the approximant must keep them to
    reproduce the closed forms. Negative values away from the origin are
    engine noise (clamped) or a genuine failure (raised).
    """
    if D <= 0:
        raise ValueError("distance factor must be positive")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise ValueError("the density is supported on x >= 0")
    rd = math.sqrt(D)
    z = x_arr * rd / params.a2
    g = meijer_g_2012(z, params.a3, params.a4, params.a5)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    # unit mass: integrating a1 * G(x / a2) gives the zeroth fitted moment
    vals = math.exp(params.log_a1) * rd * g
    neg = vals < 0
    if neg.any():
        ripple = np.zeros_like(neg) if not params.complex_pair else (z < 0.1)
        tol = _NEG_TOL * max(1.0, float(np.max(vals)))
        bad = neg & ~ripple & (vals < -tol)
        if bad.any():
            raise FittingError("kernel returned a significantly negative density")
        vals[neg & ~ripple] = 0.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(vals[0])
    return vals


def pdf_double_rayleigh(x, sigma2: float, D: float = 1.0):
    """Exact single-element density of q = S / sqrt(D), unit mass."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if D <= 0:
        raise ValueError("distance factor must be positive")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise ValueError("the density is supported on x >= 0")
    rd = math.sqrt(D)
    out = np.zeros_like(x_arr)
    pos = x_arr > 0
    out[pos] = (x_arr[pos] * D / sigma2 ** 2) * sp.k0(x_arr[pos] * rd / sigma2)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class CltParams:
    """Gaussian limit parameters for the unscaled sum S.

    The mean equals the first analytic moment exactly and the variance is
    the exact second central moment, so the model is moment-consistent at
    every sigma2.
    """

    M: int
    sigma2: float
    mu_bar: float
    sigma_bar2: float


def clt_params(M: int, sigma2: float = 0.5) -> CltParams:
    mom = analytic_moments(M, sigma2)
    return CltParams(M=int(M), sigma2=float(sigma2),
                     mu_bar=mom.mu1, sigma_bar2=mom.variance)


def pdf_clt(x, params: CltParams, D: float = 1.0):
    """Gaussian density of q = S / sqrt(D), vectorized over x."""
    if D <= 0:
        raise ValueError("distance factor must be positive")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rd = math.sqrt(D)
    sd = math.sqrt(params.sigma_bar2)
    t = (x_arr * rd - params.mu_bar) / sd
    out = rd / (sd * math.sqrt(2 * math.pi)) * np.exp(-0.5 * t * t)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def quadrature_domain(M: int, sigma2: float, D: float = 1.0) -> float:
    """Upper integration limit leaving under 1e-9 of mass outside.

    Few-element sums have a near-exponential tail, so they need more
    standard deviations of headroom than the Gaussian-like large-M case.
    """
    mom = analytic_moments(M, sigma2)
    mult = 12.0 + max(0.0, 8.0 - 2.0 * (M - 1))
    return (mom.mu1 + mult * math.sqrt(mom.variance)) / math.sqrt(D)


def density_cdf_table(pdf, hi: float, n: int = 4001):
    """Cumulative trapezoid table of a vectorized density on [0, hi]."""
    xs = np.linspace(0.0, hi, n)
    vals = pdf(xs)
    cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2 * np.diff(xs))])
    return xs, cdf


def ks_statistic(sample: np.ndarray, xs: np.ndarray, cdf: np.ndarray) -> float:
    """Two-sided KS distance between a sample and a tabulated CDF."""
    s = np.sort(np.asarray(sample))
    F = np.interp(s, xs, cdf, left=0.0, right=cdf[-1])
    n = len(s)
    up = np.arange(1, n + 1) / n
    dn = np.arange(0, n) / n
    return float(max(np.max(np.abs(F - up)), np.max(np.abs(F - dn))))
