"""Special functions for the density fit and error-probability closed forms.

Two Meijer G instances are needed and only those two are implemented:

* ``meijer_g_2012``: the kernel of the fitted density, with one upper and
  two lower parameters.
* ``meijer_g_1443``: the kernel of the averaged Chernoff bound, with four
  upper and three lower parameters.

Both are evaluated from their Mellin-Barnes representations. The series
path sums left-pole residues (valid when the two lower parameters do not
differ by an integer); the contour path integrates along a vertical line
anchored where the integrand modulus is smallest, which keeps float64
cancellation bounded for small and large arguments alike. All gamma
factors are handled in log space with sign tracking.

Plain scalar specials are thin wrappers over scipy.special behind a
stable local surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import optimize
from scipy import special as sp

from ._util import ConvergenceError

_LN2PI = math.log(2.0 * math.pi)
_TAIL_LOG = -43.0          # integrand tail cutoff, about 2e-19 relative
_MAX_NODES = 1 << 17


# ---------------------------------------------------------------------------
# scalar specials

def gamma_fn(x):
    return sp.gamma(x)


def log_gamma(z):
    """Principal log-gamma, complex capable."""
    return sp.loggamma(z)


def erf_fn(x):
    return sp.erf(x)


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * sp.erfc(np.asarray(x) / math.sqrt(2.0))


def exp_int_e1(x):
    return sp.exp1(x)


def bessel_k0(x):
    return sp.k0(x)


# ---------------------------------------------------------------------------
# Mellin-Barnes core

@dataclass(frozen=True)
class MellinBarnesSpec:
    """Record of one contour evaluation.

    ``plus``/``minus`` hold numerator gamma offsets for factors in
    Gamma(offset + s) and Gamma(offset - s); the ``den_*`` tuples are the
    corresponding denominator offsets. The contour is the vertical line
    Re s = abscissa, truncated at ``half_length`` and sampled with
    ``nodes`` points (nodes >= 64).
    """

    plus: tuple
    minus: tuple
    den_plus: tuple
    den_minus: tuple
    argument: float
    abscissa: float
    half_length: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 64:
            raise ValueError("node count must be at least 64")


def _strip(plus, minus):
    lo = -min(np.real(b) for b in plus) if plus else -np.inf
    hi = min(np.real(a) for a in minus) if minus else np.inf
    return lo, hi


def _log_integrand(s, z, plus, minus, den_plus, den_minus):
    s = np.asarray(s, dtype=complex)
    out = -s * math.log(z)
    for b in plus:
        out = out + sp.loggamma(b + s)
    for a in minus:
        out = out + sp.loggamma(a - s)
    for d in den_plus:
        out = out - sp.loggamma(d + s)
    for d in den_minus:
        out = out - sp.loggamma(d - s)
    return out


def _pole_margin(width):
    # Keep the line clear of the nearest pole so the integrand stays smooth
    # at node scale; the conditioning cost is bounded by exp(margin * |ln z|).
    return min(0.35, 0.25 * width)


def _pick_abscissa(z, plus, minus, den_plus, den_minus):
    """Anchor the contour where the integrand modulus is minimal.

    The log-modulus on the real axis blows up at both strip edges, so a
    bounded minimization stays interior and lands near the saddle. This
    is what bounds the cancellation of the oscillatory integral. A pole
    clearance margin is enforced at the strip edges; without it the
    minimizer can park next to a pole and leave a spike the trapezoid
    cannot resolve.
    """
    lo, hi = _strip(plus, minus)
    m_hi = 0.0
    if not math.isfinite(hi):
        # growth is eventually monotone; the saddle sits near the argument
        hi = lo + max(10.0, 1.5 * z + 25.0)
    else:
        m_hi = _pole_margin(hi - lo)
    m_lo = _pole_margin(hi - lo)

    def g(c):
        return float(np.real(_log_integrand(
            complex(c), z, plus, minus, den_plus, den_minus)))

    res = optimize.minimize_scalar(
        g, bounds=(lo + m_lo, hi - m_hi), method="bounded",
        options={"xatol": max(1e-5 * (hi - lo), 1e-8)})
    if res.success:
        return float(res.x), (lo, hi)
    return (lo + m_lo + hi - m_hi) / 2, (lo, hi)


def _half_length(z, c, plus, minus, den_plus, den_minus):
    decay = math.pi / 2 * (len(plus) + len(minus)
                           - len(den_plus) - len(den_minus))
    if decay <= 0:
        raise ConvergenceError("integrand does not decay on vertical lines")
    l0 = float(np.real(_log_integrand(
        complex(c), z, plus, minus, den_plus, den_minus)))
    T = (-_TAIL_LOG) / decay + 5.0
    for _ in range(40):
        tail = float(np.real(_log_integrand(
            complex(c, T), z, plus, minus, den_plus, den_minus)))
        if tail - l0 < _TAIL_LOG:
            return T
        T *= 1.3
    raise ConvergenceError("could not truncate the contour tail")


def _contour_log(z, plus, minus=(), den_plus=(), den_minus=(),
                 abscissa=None, rtol=1e-10, n0=129):
    """Contour integral (1/2*pi*i) int F(s) z^{-s} ds in log form.

    Returns (log_abs, sign, MellinBarnesSpec). Conjugate symmetry of the
    integrand about the real axis is assumed (real argument, offset
    multiset closed under conjugation), so only t >= 0 is sampled.
    """
    if z <= 0:
        raise ValueError("argument must be positive")
    plus = tuple(complex(b) for b in plus)
    minus = tuple(complex(a) for a in minus)
    den_plus = tuple(complex(d) for d in den_plus)
    den_minus = tuple(complex(d) for d in den_minus)

    lo, hi = _strip(plus, minus)
    if abscissa is None:
        c, _ = _pick_abscissa(z, plus, minus, den_plus, den_minus)
    else:
        c = float(abscissa)
        if not (lo < c < (hi if math.isfinite(hi) else c + 1)):
            raise ValueError("abscissa outside the legal strip")

    T = _half_length(z, c, plus, minus, den_plus, den_minus)
    l0 = float(np.real(_log_integrand(
        complex(c), z, plus, minus, den_plus, den_minus)))

    # a pole at distance d from the line leaves a bump of width ~d along
    # it; start with enough nodes that the bump is sampled, or the
    # doubling loop can plateau on a wrong value
    prox = c - lo
    if math.isfinite(hi):
        prox = min(prox, hi - c)
    n0 = max(n0, min(4097, int(3.0 * T / max(prox, 1e-6)) | 1))

    def scaled_sum(n):
        t = np.linspace(0.0, T, n)
        logf = _log_integrand(c + 1j * t, z, plus, minus, den_plus, den_minus)
        vals = np.exp(logf - l0)
        # trapezoid over [-T, T] using conjugate symmetry
        re = np.real(vals)
        re[0] *= 0.5
        re[-1] *= 0.5
        h = T / (n - 1)
        return 2.0 * h * float(re.sum())

    n = int(n0)
    prev = scaled_sum(n)
    while n < _MAX_NODES:
        n = 2 * n - 1
        cur = scaled_sum(n)
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rtol * scale:
            prev = cur
            break
        prev = cur
    else:
        raise ConvergenceError("node doubling hit its cap before converging")

    spec = MellinBarnesSpec(plus, minus, den_plus, den_minus,
                            float(z), c, T, n)
    if prev == 0.0:
        return -math.inf, 0.0, spec
    # raw line integral of F over [-T, T]; the 1/(2 pi) lives in the caller
    return l0 + math.log(abs(prev)), math.copysign(1.0, prev), spec


def _contour_log_value(z, plus, minus=(), den_plus=(), den_minus=(),
                       abscissa=None, rtol=1e-10, n0=129):
    """Same as _contour_log but with the 1/(2 pi) factor folded in."""
    log_abs, sign, spec = _contour_log(z, plus, minus, den_plus, den_minus,
                                       abscissa=abscissa, rtol=rtol, n0=n0)
    if sign == 0.0:
        return -math.inf, 0.0, spec
    return log_abs - _LN2PI, sign, spec


# ---------------------------------------------------------------------------
# instance 1: density kernel

def _nonpositive_int(x, tol=1e-12):
    xr = complex(x)
    if abs(xr.imag) > tol:
        return False
    r = round(xr.real)
    return r <= 0 and abs(xr.real - r) <= tol


def _series_2012(z, a3, a4, a5, rtol=1e-12, max_terms=512):
    """Left-pole residue series, one confluent family per lower parameter.

    Written in the exponentially damped form, so the terms inside each
    family are non-alternating; cross-family cancellation is monitored
    and reported through the returned error estimate.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = np.zeros_like(z, dtype=complex)
    mag = np.zeros_like(z)

    for b, other in ((a4, a5), (a5, a4)):
        if _nonpositive_int(a3 - b):
            continue  # reciprocal gamma zero kills this family
        logpref = (sp.loggamma(complex(other - b)) - sp.loggamma(complex(a3 - b))
                   + b * np.log(z) - z)
        pref = np.exp(logpref)
        alpha = complex(a3 - other)   # damped-series numerator parameter
        beta = complex(1 + b - other)
        term = np.ones_like(z, dtype=complex)
        acc = np.ones_like(z, dtype=complex)
        accmag = np.ones_like(z)
        converged = np.zeros_like(z, dtype=bool)
        for k in range(max_terms):
            term = term * (alpha + k) * z / ((beta + k) * (k + 1))
            acc = acc + term
            accmag = accmag + np.abs(term)
            small = np.abs(term) <= rtol * np.abs(acc)
            converged |= small
            if small.all() and k > 3:
                break
        else:
            raise ConvergenceError("residue series exhausted its term budget")
        total = total + pref * acc
        mag = mag + np.abs(pref) * accmag

    result = np.real(total)
    # a sum that cancelled to zero, or did not stay finite, keeps no digits
    err = np.full_like(result, np.inf)
    ok = np.isfinite(result) & (result != 0)
    scale = np.maximum(np.abs(result[ok]), 1e-300)
    with np.errstate(over="ignore"):
        err[ok] = mag[ok] / scale * 2e-16 + np.abs(np.imag(total[ok])) / scale
    return result, err


@lru_cache(maxsize=1 << 18)
def _contour_2012_cached(z: float, a3: complex, a4: complex, a5: complex,
                         rtol: float) -> float:
    # quadrature grids revisit the same abscissas for every SNR point, so
    # the contour evaluations are worth memoizing
    log_abs, sign, _ = _contour_log_value(z, plus=(a4, a5), den_plus=(a3,),
                                          rtol=rtol)
    return sign * math.exp(log_abs) if sign != 0.0 else 0.0


def meijer_g_2012(x, a3, a4, a5, method: str = "auto", rtol: float = 1e-10):
    """Meijer G with one upper parameter (a3) and two lower (a4, a5).

    Accepts scalar or array ``x >= 0``. The lower pair may be a complex
    conjugate pair; the value is real either way. ``method`` is one of
    ``auto``, ``series``, ``contour``.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise ValueError("argument must be nonnegative")
    out = np.zeros_like(x_arr)
    pos = x_arr > 0

    diff = complex(a4) - complex(a5)
    near_int = abs(diff.imag) < 1e-6 and abs(diff.real - round(diff.real)) < 1e-6
    series_ok = not near_int

    if method not in ("auto", "series", "contour"):
        raise ValueError("unknown method")
    if method == "series" and not series_ok:
        raise ConvergenceError(
            "residue series is invalid when the lower parameters differ "
            "by an integer")

    use_series = np.zeros_like(x_arr, dtype=bool)
    if series_ok and method in ("auto", "series"):
        cap = np.inf if method == "series" else 10.0
        use_series = pos & (x_arr <= cap)

    if use_series.any():
        vals, err = _series_2012(x_arr[use_series], a3, a4, a5)
        # the estimate can be optimistic by ~1e2 under heavy cross-family
        # cancellation, so the cutoff stays two decades under the target
        bad = err > 1e-11
        if bad.any():
            if method == "series":
                raise ConvergenceError("residue series lost too many digits")
            idx = np.flatnonzero(use_series)
            use_series[idx[bad]] = False
            vals = vals[~bad]
        out[use_series] = vals

    rest = pos & ~use_series
    if method == "series" and rest.any():
        raise ConvergenceError("residue series unavailable for some points")
    for i in np.flatnonzero(rest):
        out[i] = _contour_2012_cached(
            float(x_arr[i]), complex(a3), complex(a4), complex(a5), float(rtol))

    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# instance 2: averaged Chernoff kernel

def _offsets_1443(a3, a4, a5):
    plus = (0.0,)
    minus = (1 + complex(a4) / 2, (1 + complex(a4)) / 2,
             1 + complex(a5) / 2, (1 + complex(a5)) / 2)
    den_minus = (1 + complex(a3) / 2, (1 + complex(a3)) / 2)
    return plus, minus, den_minus


def meijer_g_1443_log(zeta: float, a3, a4, a5, abscissa: Optional[float] = None,
                      rtol: float = 1e-9):
    """Log-space evaluation of the Chernoff kernel, (log_abs, sign)."""
    plus, minus, den_minus = _offsets_1443(a3, a4, a5)
    log_abs, sign, spec = _contour_log_value(
        float(zeta), plus=plus, minus=minus, den_minus=den_minus,
        abscissa=abscissa, rtol=rtol)
    return log_abs, sign, spec


def meijer_g_1443(zeta: float, a3, a4, a5, abscissa: Optional[float] = None,
                  rtol: float = 1e-9, full_output: bool = False):
    """Meijer G with four upper and three lower parameters, scalar only.

    Evaluated by contour quadrature with node doubling until the relative
    change drops below ``rtol``. ``abscissa`` overrides the automatic
    anchor; it must lie inside the strip between the pole families.
    """
    log_abs, sign, spec = meijer_g_1443_log(zeta, a3, a4, a5,
                                            abscissa=abscissa, rtol=rtol)
    val = sign * math.exp(log_abs) if sign != 0.0 else 0.0
    if full_output:
        return val, spec
    return val
