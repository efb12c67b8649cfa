"""Special functions for the density fit and error-probability closed forms.

Two Meijer G instances are needed and only those two are implemented:

* ``meijer_g_2012``: the kernel of the fitted density, with one upper and
  two lower parameters.
* ``meijer_g_1443``: the kernel of the averaged Chernoff bound, with four
  upper and three lower parameters.

Both are evaluated from their Mellin-Barnes representations. The series
path sums left-pole residues (valid when the two lower parameters do not
differ by an integer). The contour path integrates along vertical lines
with the trapezoid rule, one line per band of arguments: the arguments
are grouped on a fixed lattice in ln z (ratio 1.25), and each band gets
one abscissa near the real-axis saddle of its centre, one half-length
and one set of gamma factors per node. The argument enters only as the
phase -t ln z, so a band's sums are one (arguments x nodes) product.
Anchoring near the saddle keeps float64 cancellation bounded for small
and large arguments alike. All gamma factors are handled in log space
with sign tracking. Nothing is memoised: a value depends only on its
argument, the parameters and the tolerance, never on which other
arguments share the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as sp

from ._util import ConvergenceError

_LN2PI = math.log(2.0 * math.pi)
_TAIL_LOG = -43.0          # integrand tail cutoff, about 2e-19 relative
_FIRST_NODES = 129
_MAX_NODES = 1 << 17
_BAND_LOG = math.log(1.25)  # width of one argument band in ln z
_BLOCK = 1 << 18           # entries per (arguments x nodes) row block
_SADDLE_CELLS = 16         # saddle search: grid cells per round,
_SADDLE_ROUNDS = 4         # ... and rounds, to 1.2e-4 of the bracket


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * sp.erfc(np.asarray(x) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Mellin-Barnes core

@dataclass(frozen=True)
class MellinBarnesSpec:
    """Record of the contour of one argument band.

    ``plus``/``minus`` hold numerator gamma offsets for factors in
    Gamma(offset + s) and Gamma(offset - s); the ``den_*`` tuples are the
    corresponding denominator offsets. The band holds the arguments z
    with ``band[0] <= z < band[1]``. Its contour is the vertical line
    Re s = abscissa, truncated at ``half_length``; ``nodes`` is the node
    count at which the band's last argument converged (nodes >= 64).
    """

    plus: tuple
    minus: tuple
    den_plus: tuple
    den_minus: tuple
    band: tuple
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


class _GammaRatio:
    """The gamma-factor ratio F(s) of a Mellin-Barnes integrand.

    Factor k is Gamma(offset_k + direction_k s), in the numerator when
    its sign is +1 and the denominator when -1. All factors are
    evaluated in one ufunc call per point set.
    """

    def __init__(self, plus, minus, den_plus, den_minus):
        groups = ((plus, 1, 1), (minus, -1, 1), (den_plus, 1, -1),
                  (den_minus, -1, -1))
        table = np.array([(v, d, e) for g, d, e in groups for v in g],
                         dtype=complex)
        self.offset = table[:, 0]
        self.direction, self.sign = table[:, 1].real, table[:, 2].real
        # |Gamma(x + i t)| falls like exp(-pi |t| / 2)
        self.decay = math.pi / 2 * self.sign.sum()

    def log(self, s):
        """log F(s), elementwise over an array of points s."""
        lift = (-1,) + (1,) * np.ndim(s)
        terms = self.sign.reshape(lift) * sp.loggamma(
            self.offset.reshape(lift) + self.direction.reshape(lift) * s)
        # row by row, so every point's sum is formed in the same order
        out = terms[0]
        for row in terms[1:]:
            out = out + row
        return out


def _pole_margin(width):
    # Keep the line clear of the nearest pole so the integrand stays smooth
    # at node scale; the conditioning cost is bounded by exp(margin * |ln z|).
    return min(0.35, 0.25 * width)


def _saddles(lnz, ratio, lo, hi):
    """Anchor each band's line where the integrand modulus is minimal.

    On the real axis the log-modulus log F(c) - c ln z blows up at both
    strip edges, so its minimum is interior and sits near the saddle.
    That is what bounds the cancellation of the oscillatory integral. The
    search samples the bracket on a grid and narrows it to the two cells
    around the lowest sample, for all bands at once. A pole clearance
    margin is kept at the strip edges; without it the line can park next
    to a pole and leave a spike the trapezoid cannot resolve.
    """
    if math.isfinite(hi):
        margin = _pole_margin(hi - lo)
        left = np.full_like(lnz, lo + margin)
        right = np.full_like(lnz, hi - margin)
    else:
        # growth is eventually monotone; the saddle sits near the argument
        left = np.full_like(lnz, lo + _pole_margin(10.0))
        right = lo + np.maximum(10.0, 1.5 * np.exp(lnz) + 25.0)
    cells = np.arange(_SADDLE_CELLS + 1)
    for _ in range(_SADDLE_ROUNDS):
        step = (right - left) / _SADDLE_CELLS
        grid = left[:, None] + step[:, None] * cells
        height = ratio.log(grid).real - grid * lnz[:, None]
        best = np.argmin(height, axis=1)
        right = left + step * np.minimum(best + 1, _SADDLE_CELLS)
        left = left + step * np.maximum(best - 1, 0)
    return grid[np.arange(lnz.size), best]


def _half_lengths(c, ratio):
    """Where each line's integrand falls below the tail cutoff.

    The argument only turns the phase along a vertical line, so the
    truncation depends on the abscissa alone. Returns the half-lengths
    and log F at the abscissas.
    """
    if ratio.decay <= 0:
        raise ConvergenceError("integrand does not decay on vertical lines")
    g0 = ratio.log(c).real
    T = np.full_like(c, (-_TAIL_LOG) / ratio.decay + 5.0)
    open_ = np.arange(c.size)
    for _ in range(40):
        tail = ratio.log(c[open_] + 1j * T[open_]).real
        open_ = open_[tail - g0[open_] >= _TAIL_LOG]
        if open_.size == 0:
            return T, g0
        T[open_] *= 1.3
    raise ConvergenceError("could not truncate the contour tail")


def _row_sums(lnz, t, log_f, weight):
    """sum_j weight_j Re exp(log_f_j - i t_j ln z) for each ln z.

    Evaluated in row blocks of at most _BLOCK entries, so peak memory
    does not grow with the number of arguments. Each row is summed on
    its own, so its value does not depend on the other rows.
    """
    amp = weight * np.exp(log_f.real)
    phase = log_f.imag
    rows = max(1, _BLOCK // t.size)
    out = np.empty(lnz.size)
    for i in range(0, lnz.size, rows):
        block = lnz[i:i + rows]
        out[i:i + rows] = (np.cos(phase - block[:, None] * t) * amp).sum(axis=1)
    return out


def _band_sums(lnz, c, g0, T, n, ratio, rtol):
    """Trapezoid sums over [-T, T] for one band, scaled by exp(-g0).

    Conjugate symmetry of the integrand about the real axis is assumed
    (real argument, offset multiset closed under conjugation), so only
    t >= 0 is sampled. Nodes double, reusing the old ones, until each
    argument's sum changes by at most ``rtol`` relative; that argument
    then keeps the sum of the doubling where it converged. ``g0`` is
    log F(c). Returns the sums and the final node count.
    """
    t = np.linspace(0.0, T, n)
    weight = np.ones(n)
    weight[0] = weight[-1] = 0.5
    acc = _row_sums(lnz, t, ratio.log(c + 1j * t) - g0, weight)
    h = T / (n - 1)
    prev = 2.0 * h * acc
    out = np.empty_like(prev)
    active = np.arange(lnz.size)
    while n < _MAX_NODES:
        mid = h * (np.arange(n - 1) + 0.5)
        n = 2 * n - 1
        h = 0.5 * h
        acc[active] += _row_sums(lnz[active], mid,
                                 ratio.log(c + 1j * mid) - g0, 1.0)
        cur = 2.0 * h * acc[active]
        scale = np.maximum(np.maximum(np.abs(cur), np.abs(prev[active])),
                           1e-300)
        done = np.abs(cur - prev[active]) <= rtol * scale
        out[active[done]] = cur[done]
        prev[active] = cur
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise ConvergenceError("node doubling hit its cap before converging")
    return out, n


def _contour_log(z, plus, minus=(), den_plus=(), den_minus=(),
                 abscissa=None, rtol=1e-10):
    """Contour integral (1/2*pi*i) int F(s) z^{-s} ds in log form.

    ``z`` is a 1-D array of positive arguments. Returns (log_abs, sign,
    specs): two arrays shaped like ``z`` and one MellinBarnesSpec per
    argument band, in increasing order of the band.
    """
    z = np.asarray(z, dtype=float)
    if np.any(~(z > 0)):
        raise ValueError("argument must be positive")
    parts = tuple(tuple(complex(v) for v in group)
                  for group in (plus, minus, den_plus, den_minus))
    ratio = _GammaRatio(*parts)
    lo, hi = _strip(parts[0], parts[1])

    lnz = np.log(z)
    band, where = np.unique(np.floor(lnz / _BAND_LOG), return_inverse=True)
    if abscissa is None:
        c = _saddles((band + 0.5) * _BAND_LOG, ratio, lo, hi)
    else:
        c = float(abscissa)
        if not (lo < c < (hi if math.isfinite(hi) else c + 1)):
            raise ValueError("abscissa outside the legal strip")
        c = np.full(band.size, c)
    T, g0 = _half_lengths(c, ratio)

    # a pole at distance d from the line leaves a bump of width ~d along
    # it; start with enough nodes that the bump is sampled, or the
    # doubling loop can plateau on a wrong value
    prox = np.minimum(c - lo, hi - c)
    first = np.maximum(_FIRST_NODES, np.minimum(
        4097, (3.0 * T / np.maximum(prox, 1e-6)).astype(int) | 1))

    log_abs = np.empty_like(z)
    sign = np.empty_like(z)
    specs = []
    for k in range(band.size):
        rows = np.flatnonzero(where == k)
        sums, nodes = _band_sums(lnz[rows], c[k], g0[k], T[k],
                                 int(first[k]), ratio, rtol)
        sign[rows] = np.sign(sums)
        with np.errstate(divide="ignore"):
            # raw line integral of F over [-T, T] carries the 1/(2 pi)
            log_abs[rows] = (g0[k] - c[k] * lnz[rows] + np.log(np.abs(sums))
                             - _LN2PI)
        specs.append(MellinBarnesSpec(
            *parts, band=(math.exp(band[k] * _BAND_LOG),
                          math.exp((band[k] + 1) * _BAND_LOG)),
            abscissa=float(c[k]), half_length=float(T[k]), nodes=nodes))
    return log_abs, sign, tuple(specs)


# ---------------------------------------------------------------------------
# instance 1: density kernel

def _nonpositive_int(x, tol: float) -> bool:
    """True when x is within tol of 0, -1, -2, ..."""
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
        if _nonpositive_int(a3 - b, 1e-12):
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
    if rest.any():
        log_abs, sign, _ = _contour_log(x_arr[rest], plus=(a4, a5),
                                        den_plus=(a3,), rtol=rtol)
        out[rest] = sign * np.exp(log_abs)

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


def meijer_g_1443_log(zeta, a3, a4, a5, abscissa: Optional[float] = None,
                      rtol: float = 1e-9):
    """Log-space evaluation of the Chernoff kernel, (log_abs, sign, spec).

    ``zeta`` may be a scalar or an array. For a scalar the result is two
    floats and the MellinBarnesSpec of its band; for an array it is two
    arrays shaped like ``zeta`` and a tuple of one spec per band.
    """
    plus, minus, den_minus = _offsets_1443(a3, a4, a5)
    log_abs, sign, specs = _contour_log(
        np.ravel(np.asarray(zeta, dtype=float)), plus=plus, minus=minus,
        den_minus=den_minus, abscissa=abscissa, rtol=rtol)
    if np.ndim(zeta) == 0:
        return float(log_abs[0]), float(sign[0]), specs[0]
    shape = np.shape(zeta)
    return log_abs.reshape(shape), sign.reshape(shape), specs


def meijer_g_1443(zeta, a3, a4, a5, abscissa: Optional[float] = None,
                  rtol: float = 1e-9, full_output: bool = False):
    """Meijer G with four upper and three lower parameters.

    Accepts scalar or array ``zeta > 0``. Evaluated by contour quadrature
    with node doubling until the relative change drops below ``rtol``.
    ``abscissa`` overrides the automatic anchor; it must lie inside the
    strip between the pole families. ``full_output`` adds the
    MellinBarnesSpec (a tuple of one per band for an array argument).
    """
    log_abs, sign, spec = meijer_g_1443_log(zeta, a3, a4, a5,
                                            abscissa=abscissa, rtol=rtol)
    val = sign * np.exp(log_abs)
    if np.ndim(zeta) == 0:
        val = float(val)
    if full_output:
        return val, spec
    return val
