"""Special functions for the density fit and error-probability closed forms.

Two Meijer G instances are needed and only those two are implemented:

* ``meijer_g_2012``: the kernel of the fitted density, with one upper and
  two lower parameters.
* ``meijer_g_1443``: the kernel of the averaged Chernoff bound, with four
  upper and three lower parameters.

Both are evaluated from their Mellin-Barnes representations, the
Chernoff kernel's with its duplication pairs folded (``_integrand_1443``:
four gamma factors in place of seven). The series path sums left-pole
residues (valid when the two lower parameters do not differ by an
integer). The contour path integrates along vertical lines
with the trapezoid rule, one line per band of arguments: the arguments
are grouped on a fixed lattice in ln z (ratio 1.25), and each band gets
one abscissa near the real-axis saddle of its centre, one half-length
and one set of gamma factors per node. The argument enters only as the
phase -t ln z, so a band's sums are one (arguments x nodes) product.
Anchoring near the saddle keeps float64 cancellation bounded for small
and large arguments alike. All gamma factors are handled in log space
with sign tracking.

A band's line (abscissa, half-length, and the nodes and gamma factors
of each node-doubling level reached so far) depends only on the
integrand and the band index, so it is kept in an in-process memo keyed
on (integrand key, band index) and reused by later calls. The memo
holds at most _MAX_LINES lines and drops the least recently used. A
line is built by the same elementwise operations whichever call builds
it, and a call replays its doubling levels in the same order either
way, so a value depends only on its argument, the parameters and the
tolerance: never on which arguments share the call, nor on which calls
came before. Each kernel builds its integrand, a gamma ratio, through
``_ratio``, which keeps the last _MAX_RATIOS ratios and drops the least
recently used; a ratio holds only its offsets, slope and base, so it
cannot change a value.

A new line costs its gamma factors and a fixed handful of array calls:
the saddle search hands it log|F| at its abscissa, and the scalar
bookkeeping of a lone band or a lone argument runs on Python floats.
Only +, -, *, /, abs, min, max and comparisons move to Python floats;
loggamma, exp, cos, log and every row sum stay in numpy, whose vector
loops can differ from ``math`` in the last bit, so every path gives the
array path's bits.
"""

from __future__ import annotations

import collections
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special as sp
from ._util import ConvergenceError, match_scalar

_LN2PI = math.log(2.0 * math.pi)
_TAIL_LOG = -43.0          # integrand tail cutoff, about 2e-19 relative
_FIRST_NODES = 129
_MAX_NODES = 1 << 17
_BAND_LOG = math.log(1.25)  # width of one argument band in ln z
_BLOCK = 1 << 18           # entries per (arguments x nodes) row block
_SADDLE_CELLS = 16         # saddle search: grid cells per round,
_SADDLE_ROUNDS = 4         # ... and rounds, to 1.2e-4 of the bracket
_CELLS = np.arange(_SADDLE_CELLS + 1)
# the next round's bracket runs from the cell left of the lowest sample
# to the cell right of it
_NEXT_LEFT = np.maximum(_CELLS - 1, 0)
_NEXT_RIGHT = np.minimum(_CELLS + 1, _SADDLE_CELLS)
_MAX_LINES = 64            # contour lines kept in the memo
_MAX_RATIOS = 64           # gamma ratios kept, one per integrand
_SERIES_RTOL = 1e-12       # residue series: relative size of its last term,
_SERIES_TERMS = 512        # ... and its term budget per family

# (integrand key, band) -> _Line, least recently used first
_LINES = collections.OrderedDict()
_LINES_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Mellin-Barnes core

@dataclass(frozen=True)
class MellinBarnesSpec:
    """Record of the contour of one argument band.

    ``integrand`` is the memo key of the integrand's gamma ratio
    (``_GammaRatio.key``). The band holds the arguments z with
    ``band[0] <= z < band[1]``. Its contour is the vertical line
    Re s = abscissa at the band's saddle, truncated at ``half_length``;
    ``nodes`` is the node count at which the band's last argument
    converged.
    """

    integrand: tuple
    band: tuple
    abscissa: float
    half_length: float
    nodes: int


class _GammaRatio:
    """The gamma-factor ratio F(s) of a Mellin-Barnes integrand.

    F(s) = base^s prod Gamma(b + s) prod Gamma(a - slope s) / (prod
    Gamma(d + s) prod Gamma(e - slope s)), for b, a, d, e in ``plus``,
    ``minus``, ``den_plus``, ``den_minus``. All factors are evaluated in
    one ufunc call per point set. ``key``, the four offset tuples as
    complex numbers then ``slope`` and ``base``, names the ratio in the
    line memo; every line runs inside the pole-free strip ``lo`` < Re s
    < ``hi``. Build one through ``_ratio``, which keeps it for later calls.
    """

    def __init__(self, plus, minus, den_plus, den_minus, slope=1, base=1.0):
        self.key = tuple(tuple(complex(v) for v in group) for group in
                         (plus, minus, den_plus, den_minus)) + (slope, base)
        plus, minus, den_plus, den_minus = self.key[:4]
        self.lo = -min(b.real for b in plus) if plus else -math.inf
        self.hi = min(a.real for a in minus) / slope if minus else math.inf
        self._log_base = math.log(base)
        groups = ((plus, 1, 1), (minus, -slope, 1), (den_plus, 1, -1),
                  (den_minus, -slope, -1))
        table = np.array([(v, d, e) for g, d, e in groups for v in g],
                         dtype=complex)
        offset = table[:, 0]
        direction, sign = table[:, 1].real, table[:, 2].real
        # |Gamma(x + i d t)| falls like exp(-pi |d t| / 2)
        self.decay = math.pi / 2 * (sign * np.abs(direction)).sum()
        # (offset, direction, sign) as columns that broadcast against
        # points of one and of two dimensions
        self._columns = {ndim: tuple(a.reshape((-1,) + (1,) * ndim)
                                     for a in (offset, direction, sign))
                         for ndim in (1, 2)}

    def log(self, s):
        """log F(s), elementwise over a 1-D or 2-D array of points s."""
        offset, direction, sign = self._columns[s.ndim]
        terms = sp.loggamma(offset + direction * s)
        terms *= sign
        # row by row, so every point's sum is formed in the same order
        out = terms[0]
        for row in terms[1:]:
            out = out + row
        if self._log_base:          # base^s
            out = out + s * self._log_base
        return out


@lru_cache(maxsize=_MAX_RATIOS)
def _ratio(plus, minus, den_plus, den_minus, slope=1, base=1.0):
    return _GammaRatio(plus, minus, den_plus, den_minus, slope, base)


def _pole_margin(width):
    # Keep the line clear of the nearest pole so the integrand stays smooth
    # at node scale; the conditioning cost is bounded by exp(margin * |ln z|).
    return min(0.35, 0.25 * width)


def _saddles(lnz, ratio):
    """Anchor each band's line where the integrand modulus is minimal.

    On the real axis the log-modulus log F(c) - c ln z blows up at both
    strip edges, so its minimum is interior and sits near the saddle.
    That is what bounds the cancellation of the oscillatory integral. The
    search samples the bracket on a grid and narrows it to the two cells
    around the lowest sample, for all bands at once. A pole clearance
    margin is kept at the strip edges; without it the line can park next
    to a pole and leave a spike the trapezoid cannot resolve.

    Returns the abscissas and log|F| at them, which the last round has
    already taken. A lone band narrows its bracket on Python floats;
    the grid, its gamma factors and the open strip's exp stay in numpy,
    so either way the abscissa is the same to the bit.
    """
    lo, hi = ratio.lo, ratio.hi
    if math.isfinite(hi):
        margin = _pole_margin(hi - lo)
        left, right = lo + margin, np.full_like(lnz, hi - margin)
    else:
        # growth is eventually monotone; the saddle sits near the argument
        left = lo + _pole_margin(10.0)
        right = lo + np.maximum(10.0, 1.5 * np.exp(lnz) + 25.0)
    if lnz.size == 1:
        lnz, right = float(lnz[0]), float(right[0])
        for _ in range(_SADDLE_ROUNDS):
            step = (right - left) / _SADDLE_CELLS
            grid = left + step * _CELLS
            log_f = ratio.log(grid).real
            best = int((log_f - grid * lnz).argmin())
            right = left + step * min(best + 1, _SADDLE_CELLS)
            left = left + step * max(best - 1, 0)
        return grid[best:best + 1], log_f[best:best + 1]
    lnz = lnz[:, None]      # one row per band, one column per grid cell
    left, right = np.full_like(lnz, left), right[:, None]
    for _ in range(_SADDLE_ROUNDS):
        step = (right - left) / _SADDLE_CELLS
        grid = left + step * _CELLS
        log_f = ratio.log(grid).real
        best = (log_f - grid * lnz).argmin(axis=1)
        right = left + step * _NEXT_RIGHT[best, None]
        left = left + step * _NEXT_LEFT[best, None]
    rows = np.arange(grid.shape[0])
    return grid[rows, best], log_f[rows, best]


def _half_lengths(c, ratio, g0):
    """Where each line's integrand falls below the tail cutoff.

    The argument only turns the phase along a vertical line, so the
    truncation depends on the abscissa alone. ``g0`` is log|F| at the
    abscissas ``c``.
    """
    if ratio.decay <= 0:
        raise ConvergenceError("integrand does not decay on vertical lines")
    T = np.full_like(c, (-_TAIL_LOG) / ratio.decay + 5.0)
    open_ = np.arange(c.size)
    for _ in range(40):
        tail = ratio.log(c[open_] + 1j * T[open_]).real
        open_ = open_[tail - g0[open_] >= _TAIL_LOG]
        if open_.size == 0:
            return T
        T[open_] *= 1.3
    raise ConvergenceError("could not truncate the contour tail")


def _row_sums(lnz, t, amp, phase):
    """sum_j amp_j cos(phase_j - t_j ln z) for each ln z.

    Evaluated in row blocks of at most _BLOCK entries, so peak memory
    does not grow with the number of arguments. Each row is summed on
    its own, so its value does not depend on the other rows.
    """
    rows = max(1, _BLOCK // t.size)
    sums = [(np.cos(phase - lnz[i:i + rows, None] * t) * amp).sum(axis=1)
            for i in range(0, lnz.size, rows)]
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


@dataclass
class _Line:
    """One band's contour line: Re s = ``c`` truncated at ``T``.

    ``g0`` is log F(c) and ``first`` the first node count. ``levels``
    holds, for each doubling level reached so far, the nodes t >= 0 that
    the level adds, their amplitudes (trapezoid weight times
    exp Re(log F - g0)) and their phases Im(log F - g0), so a call that
    replays a stored level builds no array for it.
    """

    c: float
    T: float
    g0: float
    first: int
    levels: list


def _new_lines(c, ratio, g0):
    """Lines at the abscissas ``c``, with no doubling level built yet.

    ``g0`` is log|F| at ``c``.
    """
    T = _half_lengths(c, ratio, g0)
    # a pole at distance d from the line leaves a bump of width ~d along
    # it; start with enough nodes that the bump is sampled, or the
    # doubling loop can plateau on a wrong value
    prox = np.minimum(c - ratio.lo, ratio.hi - c)
    first = np.maximum(_FIRST_NODES, np.minimum(
        4097, (3.0 * T / np.maximum(prox, 1e-6)).astype(int) | 1))
    return [_Line(float(c[k]), float(T[k]), float(g0[k]), int(first[k]), [])
            for k in range(c.size)]


def _memo_lines(band, ratio):
    """The lines of ``band``, from the memo where present.

    Missing lines are built together, each anchored near its band's
    saddle. Each line then becomes the most recently used, dropping the
    least recently used when the memo is full, so the memo never holds
    more than _MAX_LINES lines, even while a call spans more bands.
    """
    keys = [(ratio.key, float(b)) for b in band]
    lines = [_LINES.get(key) for key in keys]
    missing = [k for k, line in enumerate(lines) if line is None]
    if missing:
        c, g0 = _saddles((band[missing] + 0.5) * _BAND_LOG, ratio)
        for k, line in zip(missing, _new_lines(c, ratio, g0)):
            lines[k] = line
    for key, line in zip(keys, lines):
        _LINES.pop(key, None)
        if len(_LINES) == _MAX_LINES:
            _LINES.popitem(last=False)
        _LINES[key] = line
    return lines


def _band_sums(lnz, line, ratio, rtol):
    """Trapezoid sums over [-T, T] for one band, scaled by exp(-g0).

    Conjugate symmetry of the integrand about the real axis is assumed
    (real argument, offset multiset closed under conjugation), so only
    t >= 0 is sampled. Nodes double, reusing the old ones, until each
    argument's sum changes by at most ``rtol`` relative; that argument
    then keeps the sum of the doubling where it converged. A level
    missing from ``line`` is built and kept there. A lone argument runs
    the doubling test on Python floats, its row sums staying in numpy.
    Returns the sums and the final node count.
    """
    def level(i, n, h):
        # level 0 is the n-node grid on [0, T]; level i > 0 adds the
        # midpoints of the n-node grid of spacing h. Every call doubles at
        # least once, so a new line builds levels 0 and 1 in one go.
        if i == len(line.levels):
            t = h * (np.arange(n - 1) + 0.5)
            weight = 1.0
            if i == 0:
                t = np.concatenate([np.linspace(0.0, line.T, n), t])
                weight = np.ones(t.size)
                weight[0] = weight[n - 1] = 0.5
            log_f = ratio.log(line.c + 1j * t) - line.g0
            amp, phase = weight * np.exp(log_f.real), log_f.imag
            cut = t.size - (n - 1)      # where the midpoints start
            if i == 0:
                line.levels.append((t[:cut], amp[:cut], phase[:cut]))
            line.levels.append((t[cut:], amp[cut:], phase[cut:]))
        return line.levels[i]

    n = line.first
    h = line.T / (n - 1)
    acc = _row_sums(lnz, *level(0, n, h))
    i = 0
    if lnz.size == 1:
        # one argument: the doubling test runs on Python floats
        acc = float(acc[0])
        prev = 2.0 * h * acc
        while n < _MAX_NODES:
            i += 1
            nodes = level(i, n, h)
            n = 2 * n - 1
            h = 0.5 * h
            acc = acc + float(_row_sums(lnz, *nodes)[0])
            cur = 2.0 * h * acc
            if abs(cur - prev) <= rtol * max(abs(cur), abs(prev), 1e-300):
                return np.array([cur]), n
            prev = cur
        raise ConvergenceError("node doubling hit its cap before converging")
    prev = 2.0 * h * acc
    out = np.empty_like(prev)
    # positions in ``out`` of the arguments still doubling; lnz, acc and
    # prev hold those arguments only
    active = np.arange(lnz.size)
    while n < _MAX_NODES:
        i += 1
        nodes = level(i, n, h)
        n = 2 * n - 1
        h = 0.5 * h
        acc = acc + _row_sums(lnz, *nodes)
        cur = 2.0 * h * acc
        scale = np.maximum(np.maximum(np.abs(cur), np.abs(prev)), 1e-300)
        done = np.abs(cur - prev) <= rtol * scale
        if done.all():
            out[active] = cur
            break
        out[active[done]] = cur[done]
        keep = ~done
        active, lnz, acc, prev = active[keep], lnz[keep], acc[keep], cur[keep]
    else:
        raise ConvergenceError("node doubling hit its cap before converging")
    return out, n


def _contour_log(z, ratio, rtol=1e-10):
    """Contour integral (1/2*pi*i) int F(s) z^{-s} ds in log form.

    ``z`` is a 1-D array of positive finite arguments and ``ratio`` the
    integrand F, a ``_GammaRatio`` built by ``_ratio``. Every band's line
    sits at its saddle. Returns (log_abs, sign, specs): two arrays shaped
    like ``z`` and one MellinBarnesSpec per argument band, in increasing
    order of the band. ``rtol`` is the node-doubling tolerance.
    """
    z = np.asarray(z, dtype=float)
    if not ((z > 0) & (z < math.inf)).all():
        raise ValueError("argument must be positive and finite")

    lnz = np.log(z)
    cell = np.floor(lnz / _BAND_LOG)
    if cell.size and (cell == cell[0]).all():
        band, where, rows = cell[:1], 0, [slice(None)]
    else:
        band, where = np.unique(cell, return_inverse=True)
        rows = [np.flatnonzero(where == k) for k in range(band.size)]
    with _LINES_LOCK:     # memo lines grow in place: one call at a time
        lines = _memo_lines(band, ratio)
        sums = np.empty_like(z)
        specs = []
        for k, line in enumerate(lines):
            sums[rows[k]], nodes = _band_sums(lnz[rows[k]], line, ratio, rtol)
            specs.append(MellinBarnesSpec(
                ratio.key, band=(math.exp(band[k] * _BAND_LOG),
                                 math.exp((band[k] + 1) * _BAND_LOG)),
                abscissa=line.c, half_length=line.T, nodes=nodes))
    # every argument's abscissa and log|F| there, so that the sign and the
    # log of all arguments are formed in one pass
    c = np.array([line.c for line in lines])[where]
    g0 = np.array([line.g0 for line in lines])[where]
    with np.errstate(divide="ignore"):
        # raw line integral of F over [-T, T] carries the 1/(2 pi)
        log_abs = g0 - c * lnz + np.log(np.abs(sums)) - _LN2PI
    return log_abs, np.sign(sums), tuple(specs)


# ---------------------------------------------------------------------------
# instance 1: density kernel

def _nonpositive_int(x, tol: float) -> bool:
    """True when x is within tol of 0, -1, -2, ..."""
    xr = complex(x)
    if abs(xr.imag) > tol:
        return False
    r = round(xr.real)
    return r <= 0 and abs(xr.real - r) <= tol


def _family_sums(z, alpha: complex, beta: complex):
    """One family's damped series: its sum and the sum of its term sizes.

    Terms are term * (alpha + k) * z / ((beta + k) * (k + 1)), formed in
    place one factor at a time in that left-to-right order. When alpha
    and beta are real the loop runs in float64: numpy divides by a
    complex number of zero imaginary part as a multiply by its
    reciprocal (Smith's algorithm), so these steps give the complex
    loop's real parts bit for bit.
    """
    real = alpha.imag == 0 and beta.imag == 0
    term = np.ones_like(z, dtype=float if real else complex)
    acc = np.ones_like(term)
    accmag = np.ones_like(z)
    for k in range(_SERIES_TERMS):
        if real:
            term *= alpha.real + k
            term *= z
            term *= 1.0 / ((beta.real + k) * (k + 1))
        else:
            term *= alpha + k
            term *= z
            term /= (beta + k) * (k + 1)
        acc += term
        size = np.abs(term)
        accmag += size
        if k > 3 and (size <= _SERIES_RTOL * np.abs(acc)).all():
            return acc, accmag
    raise ConvergenceError("residue series exhausted its term budget")


def _series_2012(z, a3, a4, a5):
    """Left-pole residue series, one confluent family per lower parameter.

    Written in the exponentially damped form, so the terms inside each
    family are non-alternating; cross-family cancellation is monitored
    and reported through the returned error estimate.

    A real fit sums each family in float64 (see ``_family_sums``). At a
    conjugate-pair fit the second family's parameters are the exact
    conjugates of the first's, and numpy's complex product, quotient and
    modulus are symmetric under conjugation, so its sums are the first
    family's conjugated and its loop is skipped. Either way the values
    and estimates are those of the all-complex loops, bit for bit.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = np.zeros_like(z, dtype=complex)
    mag = np.zeros_like(z)

    conjugates = {}     # conjugated (alpha, beta) -> conjugated sums
    for b, other in ((a4, a5), (a5, a4)):
        if _nonpositive_int(a3 - b, 1e-12):
            continue  # reciprocal gamma zero kills this family
        logpref = (sp.loggamma(complex(other - b)) - sp.loggamma(complex(a3 - b))
                   + b * np.log(z) - z)
        pref = np.exp(logpref)
        alpha = complex(a3 - other)   # damped-series numerator parameter
        beta = complex(1 + b - other)
        if (alpha, beta) in conjugates:
            acc, accmag = conjugates[alpha, beta]
        else:
            acc, accmag = _family_sums(z, alpha, beta)
            conjugates[alpha.conjugate(), beta.conjugate()] = (np.conj(acc),
                                                               accmag)
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


def meijer_g_2012(x, a3, a4, a5):
    """Meijer G with one upper parameter (a3) and two lower (a4, a5).

    Accepts scalar or array ``x >= 0``, finite. The lower pair may be a
    complex conjugate pair; the value is real either way. Points with
    0 < x <= 10 take the residue series, unless a4 - a5 is within 1e-6
    of an integer (where the series is invalid); a point whose series
    error estimate exceeds 1e-11, and every other positive point, takes
    the contour at a relative tolerance of 1e-10.

    A series value depends on its batch: the series stops only once the
    batch's slowest point has converged (up to 4e-9 relative against one
    point per call at M = 3), so ``pep._tabulated`` evaluates whole meshes.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not ((x_arr >= 0) & (x_arr < math.inf)).all():
        raise ValueError("argument must be nonnegative and finite")
    out = np.zeros_like(x_arr)
    pos = x_arr > 0

    diff = complex(a4) - complex(a5)
    near_int = abs(diff.imag) < 1e-6 and abs(diff.real - round(diff.real)) < 1e-6
    use_series = pos & (x_arr <= 10.0) & (not near_int)

    if use_series.any():
        vals, err = _series_2012(x_arr[use_series], a3, a4, a5)
        # the estimate can be optimistic by ~1e2 under heavy cross-family
        # cancellation, so the cutoff stays two decades under the target
        bad = err > 1e-11
        use_series[np.flatnonzero(use_series)[bad]] = False
        out[use_series] = vals[~bad]

    rest = pos & ~use_series
    if rest.any():
        log_abs, sign, _ = _contour_log(x_arr[rest],
                                        _ratio((a4, a5), (), (a3,), ()))
        out[rest] = sign * np.exp(log_abs)
    return match_scalar(x, out)


# ---------------------------------------------------------------------------
# instance 2: averaged Chernoff kernel

def _offsets_1443(a3, a4, a5):
    """Gamma offsets of the Chernoff kernel: (plus, minus, den_minus).

    ``minus`` holds the four pole families the high-SNR expansion sums
    over, ``den_minus`` the two reciprocal gamma factors.
    """
    plus = (0.0,)
    minus = (1 + complex(a4) / 2, (1 + complex(a4)) / 2,
             1 + complex(a5) / 2, (1 + complex(a5)) / 2)
    den_minus = (1 + complex(a3) / 2, (1 + complex(a3)) / 2)
    return plus, minus, den_minus


def _integrand_1443(a3, a4, a5):
    """(ratio, log of constant) of the Chernoff kernel's integrand, whose
    pairs Legendre's duplication (DLMF 5.5.5) folds into sqrt(pi) 2^(a3 -
    a4 - a5) Gamma(s) Gamma(1+a4-2s) Gamma(1+a5-2s) / Gamma(1+a3-2s) 4^s."""
    ratio = _ratio((0.0,), (1 + complex(a4), 1 + complex(a5)), (),
                   (1 + complex(a3),), slope=2, base=4.0)
    return ratio, math.log(math.pi) / 2 + (a3 - a4 - a5).real * math.log(2)


def meijer_g_1443_log(zeta, a3, a4, a5):
    """Log-space evaluation of the Chernoff kernel on a 1-D ``zeta`` array.

    Returns ``_contour_log``'s (log_abs, sign, specs) on the integrand of
    ``_integrand_1443``, its constant added: two arrays shaped like
    ``zeta`` and one MellinBarnesSpec per argument band, at rtol 1e-9.
    """
    ratio, log_const = _integrand_1443(a3, a4, a5)
    log_abs, sign, specs = _contour_log(zeta, ratio, rtol=1e-9)
    return log_abs + log_const, sign, specs


def meijer_g_1443(zeta, a3, a4, a5):
    """Meijer G with four upper and three lower parameters.

    Accepts scalar or array ``zeta > 0``, finite. Evaluated by contour
    quadrature of its four-factor integrand, each band's line at its
    saddle, node doubling until the relative change drops below 1e-9.
    """
    log_abs, sign, _ = meijer_g_1443_log(
        np.ravel(np.asarray(zeta, dtype=float)), a3, a4, a5)
    return match_scalar(zeta, (sign * np.exp(log_abs)).reshape(np.shape(zeta)))
