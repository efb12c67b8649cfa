"""Density models for the cascaded channel sum.

Three interchangeable models for the scaled channel gain q = S / sqrt(D):

* ``pdf_g``: a four-moment fit whose kernel is ``meijer_g_2012``. The four
  fit equations are solved in closed form; they are the unique exact
  solution of the underlying moment-matching system.
* ``pdf_double_rayleigh``: the exact single-element density.
* ``pdf_clt``: the Gaussian limit for large surfaces.

For M <= 3 the fit produces a complex-conjugate pair in the two lower
kernel parameters (its discriminant is negative exactly at M = 1, 2 and
3). The density stays real and correctly normalized, so the fit is
returned with ``complex_pair`` set rather than rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special as sp
from ._util import match_scalar
from .config import _check_scenario, _check_sigma2
from .moments import Moments, analytic_moments
from .specfun import meijer_g_2012

_NEG_TOL = 1e-12
_KS_BLOCK = 1 << 16     # samples per block of ks_distance


class FittingError(RuntimeError):
    """The fitted kernel gave a density value that is not usable."""


@dataclass(frozen=True)
class GParams:
    """Kernel parameters, as the four moment equations solve for them.

    ``a2`` and ``a3`` are the scale and the upper parameter; ``a4`` and
    ``a5`` are the lower parameters, a complex conjugate pair when
    ``complex_pair`` is set (small M). ``a6`` is the fit's own value of
    a4 + a5, which the Chernoff kernel's scale reads bit for bit.
    ``log_a1`` is the log of the normalizing constant ``a1``, the reliable
    form for heavy parameter regimes.
    """

    M: int
    sigma2: float
    log_a1: float
    a2: float
    a3: float
    a4: complex
    a5: complex
    a6: float

    @property
    def a1(self) -> float:
        return math.exp(self.log_a1) if self.log_a1 < 700 else math.inf

    @property
    def complex_pair(self) -> bool:
        return self.a4.imag != 0

    @property
    def min_lower_real(self) -> float:
        return min(complex(self.a4).real, complex(self.a5).real)


# The fit as polynomials in M (sympy, from the closed-form moments), with
# coefficients in pi, highest power first, evaluated at 40 digits and
# rounded; tests/test_pdf_approx.py re-evaluates them from their exact
# forms. The denominators _D and _N have their roots near M = -0.65, so
# neither vanishes nor cancels at any M >= 1.
_D = (3.9265682314214603, 2.551943384302758)
_A3 = (9.026460307781342, 1.1137849902494652, -3.1297126314681813)
_N = (3.9198341170590862, 2.5615318484591936)
_W = (14.974800685102565, 12.757453990298059, 1.9261676761245359)
_DISC = (1.9315662925024415, -4.7329706550878035, -7.817838872263709,
         -1.9312611216900528, 0.40368763148650444)


def _horner(coeffs, M):
    acc = 0.0
    for c in coeffs:
        acc = acc * M + c
    return acc


@lru_cache(maxsize=256)
def fit_gparams(M: int, sigma2: float) -> GParams:
    """Closed-form solution of the four moment equations.

    With d = _D(M) and n = _N(M): a3 = _A3(M) / d, a2 = sigma2 n / d,
    a4 + a5 + 3 = _W(M) / n and (a4 - a5)^2 = _DISC(M) / n^2, negative
    (a conjugate pair) exactly at M = 1, 2 and 3. No step cancels: every
    parameter is within 1e-13 of a 60-digit solve for M up to 4096, where
    a solve through differences of the moment ratios loses about M^3 eps.
    Each (M, sigma2) is solved once: the result is kept in a memo of the
    256 most recently used fits, so every caller shares one record.
    Raises ValueError for an M or sigma2 that ``analytic_moments`` refuses.
    """
    _check_scenario(M, sigma2)
    M = int(M)
    d = _horner(_D, M)
    n = _horner(_N, M)
    a3 = _horner(_A3, M) / d
    a2 = float(sigma2) * n / d
    a6 = _horner(_W, M) / n - 3.0
    a7 = cmath.sqrt(_horner(_DISC, M) / (n * n))
    a4 = (a6 + a7) / 2
    a5 = (a6 - a7) / 2
    log_a1 = float(np.real(sp.loggamma(a3 + 1.0) - math.log(a2)
                           - sp.loggamma(a4 + 1.0) - sp.loggamma(a5 + 1.0)))
    return GParams(M=M, sigma2=float(sigma2), log_a1=log_a1,
                   a2=a2, a3=a3, a4=a4, a5=a5, a6=a6)


def _gains(x, D: float):
    """``x`` as a 1-D float array, and sqrt(D): the densities' one input rule.

    Rejects a distance factor that is not positive and finite, and any
    gain that is negative or not finite.
    """
    if not 0 < D < math.inf:
        raise ValueError("distance factor must be positive and finite")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not ((x_arr >= 0) & (x_arr < math.inf)).all():
        raise ValueError("the density is supported on finite x >= 0")
    return x_arr, math.sqrt(D)


def pdf_g(x, params: GParams, D: float = 1.0):
    """Fitted density of q = S / sqrt(D), vectorized over x.

    The complex-exponent branch (M <= 3) oscillates near the origin, so
    the approximant dips slightly negative there. Those signed values are
    returned as-is: integrals against the approximant must keep them to
    reproduce the closed forms. Negative values away from the origin are
    engine noise (clamped) or a genuine failure (raised).
    """
    x_arr, rd = _gains(x, D)
    z = x_arr * rd / params.a2
    g = meijer_g_2012(z, params.a3, params.a4, params.a5)
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
    return match_scalar(x, vals)


def pdf_double_rayleigh(x, sigma2: float, D: float = 1.0):
    """Exact single-element density of q = S / sqrt(D), unit mass."""
    _check_sigma2(sigma2)
    x_arr, rd = _gains(x, D)
    out = np.zeros_like(x_arr)
    pos = x_arr > 0
    out[pos] = (x_arr[pos] * D / sigma2 ** 2) * sp.k0(x_arr[pos] * rd / sigma2)
    return match_scalar(x, out)


def pdf_clt(x, moments: Moments, D: float = 1.0):
    """Gaussian density of q = S / sqrt(D), vectorized over x.

    The mean and variance are those of ``moments``, the exact first and
    second central moments of S from ``analytic_moments``, so the model
    is moment-consistent at every sigma2.
    """
    x_arr, rd = _gains(x, D)
    sd = math.sqrt(moments.variance)
    t = (x_arr * rd - moments.mu1) / sd
    out = rd / (sd * math.sqrt(2 * math.pi)) * np.exp(-0.5 * t * t)
    return match_scalar(x, out)


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
    return ks_distance(np.interp(s, xs, cdf, left=0.0, right=cdf[-1]))


def ks_distance(F: np.ndarray) -> float:
    """Two-sided KS distance from CDF values at the sorted sample.

    The empirical steps k/n and (k+1)/n are built one block of
    _KS_BLOCK samples at a time, so no temporary grows with the sample.
    """
    n = len(F)
    worst = []
    for a in range(0, n, _KS_BLOCK):
        k = np.arange(a, min(a + _KS_BLOCK, n))
        block = F[a:a + _KS_BLOCK]
        worst += [np.max(np.abs(block - (k + 1) / n)),
                  np.max(np.abs(block - k / n))]
    return float(np.max(worst))
