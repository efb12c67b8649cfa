"""Shared helpers: deterministic substreams and the pool that runs them,
the cascade sampler, graded composite quadrature, scalar returns."""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np
# at import, so that the first quadrature loads no module while it runs
from numpy.polynomial.legendre import leggauss

# Rows per substream of every plain Monte Carlo path: a fixed size keeps
# the streams bit-identical however callers batch their draws, and a
# 2^20-row point spans sixteen substreams, which the pool spreads.
CHUNK = 1 << 16
# rows of each hop that element_sums draws at a time
_BLOCK = 1 << 12
# floats of each hop that one element_sums draw call reaches for
_DRAW = 1 << 16
_ORDER = 48                 # graded rule: Gauss-Legendre points per panel,
_MAX_PANELS = 4096          # ... and its panel cap
_Z95 = 1.959963984540054    # two-sided 95% normal quantile (Wilson interval)


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def chunk_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one chunk of a logical stream.

    The substream is keyed on (seed, *key) so results do not depend on how
    many chunks run, or in which order. Callers with several stream axes
    (grid point, user, chunk) pass them all as key components.
    """
    ss = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def chunk_counts(total: int, chunk: int = CHUNK):
    """Yield (chunk_index, count) pairs covering `total` draws."""
    i = 0
    done = 0
    while done < total:
        n = min(chunk, total - done)
        yield i, n
        done += n
        i += 1


def _cpu_count() -> int:
    """CPUs this process may run on: the substream pool's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _pool(workers: int, pid: int):
    # keyed on the process id, so a forked child starts its own threads;
    # imported here to keep the thread pool out of `import lisnoma`
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="lisnoma")


def substreams(fn, keys):
    """An iterator of ``fn(key)`` for every key, in key order.

    The calls run on a shared pool of one thread per CPU, every key
    submitted at once through ``Executor.map``; with one CPU they run in
    the calling thread. numpy releases the GIL while it draws and
    computes on arrays, so the threads run at once. ``fn`` allocates its
    own scratch and must write nothing another substream reads or writes.
    Every caller's ``fn`` returns O(1) data, so the results that wait for
    the consumer hold nothing big. Callers fold the results in key order,
    which makes every output independent of the CPU count. A consumer
    that stops early cancels every call that has not started; those
    already running finish.
    """
    workers = _cpu_count()
    if workers == 1:
        return map(fn, keys)
    return _pool(workers, os.getpid()).map(fn, keys)


def element_sums(rng: np.random.Generator, n: int, M: int, scale: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """n draws of the row sums of h * g over M elements, into ``out``.

    h and g are Rayleigh(scale) magnitudes, drawn ``_BLOCK`` rows at a
    time: each block takes its rows x M standard exponentials of h from
    ``rng``, then those of g, and maps both to scale sqrt(2 E), which is
    how ``Generator.rayleigh`` maps its exponentials. So each block's sums
    are those of ``(rng.rayleigh(scale, (rows, M)) * rng.rayleigh(scale,
    (rows, M))).sum(axis=1)`` bit for bit. One ``standard_exponential``
    call draws max(1, ``_DRAW`` // (``_BLOCK`` M)) whole blocks, h0 g0 h1
    g1 ..., which is what one call per block draws, so that the numpy
    calls are long enough for threads to run them at once; a short last
    block is drawn alone. The call holds those blocks beside ``out``, a
    new array when None.
    """
    if out is None:
        out = np.empty(n)
    per_call = max(1, _DRAW // (_BLOCK * M)) * _BLOCK
    buf = np.empty(2 * min(n, per_call) * M)

    def draw(a, blocks, size):
        """``blocks`` blocks of ``size`` rows each, from row a."""
        x = rng.standard_exponential(out=buf[:2 * blocks * size * M])
        x *= 2.0
        np.sqrt(x, out=x)
        x *= scale
        x = x.reshape(blocks, 2, size * M)
        g = x[:, 1]
        g *= x[:, 0]
        g.reshape(blocks, size, M).sum(
            axis=2, out=out[a:a + blocks * size].reshape(blocks, size))

    whole = n - n % _BLOCK
    for a in range(0, whole, per_call):
        draw(a, min(per_call, whole - a) // _BLOCK, _BLOCK)
    if whole < n:
        draw(whole, 1, n - whole)
    return out


def sample_sums(M: int, sigma2: float, count: int, seed: int) -> np.ndarray:
    """`count` cascade sums, one substream per chunk of ``CHUNK`` rows.

    The chunks fill their own slices of the result on the substream pool,
    so the sums do not depend on the CPU count. Beside the result, each
    running substream holds only `element_sums`' two blocks.
    """
    scale = math.sqrt(sigma2)
    s = np.empty(count)

    def fill(key):
        idx, n = key
        element_sums(chunk_rng(seed, idx), n, M, scale,
                     out=s[idx * CHUNK:idx * CHUNK + n])

    for _ in substreams(fill, chunk_counts(count)):
        pass
    return s


@lru_cache(maxsize=8)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(f, lo: float, hi: float, *,
                          abs_tol: float = 1e-10) -> float:
    """Integrate a vectorized callable on a mesh graded toward ``lo``.

    Breakpoints lo and lo + (hi - lo) 2^-k, k = 40..0, cut [lo, hi] into
    41 levels shrinking geometrically toward ``lo``, which resolves
    endpoint singularities and log-periodic oscillation such as Re x^c
    with complex c (Davis & Rabinowitz). Every level carries the same
    number of _ORDER-point Gauss-Legendre panels, doubled until two
    successive totals differ by less than abs_tol. Raises
    ConvergenceError when that would take more than _MAX_PANELS panels.
    Deterministic by construction.
    """
    nodes, weights = _legendre_rule(_ORDER)
    breaks = lo + (hi - lo) * np.r_[0.0, np.exp2(-np.arange(40.0, -1.0, -1.0))]
    per_level, vals = 1, []
    while per_level * (breaks.size - 1) <= _MAX_PANELS:
        step = np.diff(breaks) / per_level
        a = breaks[:-1, None] + step[:, None] * np.arange(per_level)
        half = np.repeat(step, per_level)[:, None] / 2
        x = a.reshape(-1, 1) + half * (1 + nodes)
        fx = f(x.ravel()).reshape(x.shape)
        vals.append(float(np.sum(half * weights * fx)))
        if len(vals) > 1 and abs(vals[-1] - vals[-2]) < abs_tol:
            return vals[-1]
        per_level *= 2
    raise ConvergenceError(
        f"graded quadrature hit its cap of {_MAX_PANELS} panels: last two "
        f"values {vals[-2:]}, abs_tol {abs_tol:g}")


def match_scalar(x, out):
    """``out`` as a float when the input ``x`` is a scalar, else as is."""
    return out.item() if np.ndim(x) == 0 else out


def wilson_interval(k: int, n: int):
    """Wilson 95% interval for a binomial proportion; safe at k=0 and k=n."""
    if n <= 0:
        return 0.0, 1.0
    p = k / n
    z2 = _Z95 * _Z95
    denom = 1 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = _Z95 * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
