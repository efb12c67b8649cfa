"""Shared helpers: deterministic substreams and the pool that runs them,
the cascade sampler, graded composite quadrature, scalar returns."""

from __future__ import annotations

import copy
import math
import os
import queue
import threading
from collections import deque
from functools import lru_cache
from itertools import islice

import numpy as np
# at import, so that the first quadrature loads no module while it runs
from numpy.polynomial.legendre import leggauss

# Fixed chunk size keeps streams bit-identical regardless of how callers
# batch their draws.
CHUNK = 1 << 20
# rows per substream of the sampled-moment and density checks
SMALL_CHUNK = 1 << 18
# rows of each hop that element_sums draws at a time
_BLOCK = 1 << 12
# summands of the longest run that PairwiseSum hands to np.sum: above
# numpy's 128-summand leaves, and one block, so that a chunk of 2^20 rows
# needs no buffer
_SEGMENT = _BLOCK
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


# the pool a lone substream lends to element_blocks, while it runs in the
# calling thread (see substreams)
_LONE = threading.local()


@lru_cache(maxsize=None)
def _pool(workers: int, pid: int):
    # keyed on the process id, so a forked child starts its own threads;
    # imported here to keep the thread pool out of `import lisnoma`
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="lisnoma")


def substreams(fn, keys):
    """Yield ``fn(key)`` for every key, in key order.

    The calls run on a shared pool of one thread per CPU, at most two per
    thread ahead of the consumer; with one CPU or one key they run in the
    calling thread. A lone key there lends an idle CPU to its sampler:
    while it runs, ``element_blocks`` borrows one pool worker for the
    arithmetic of each block. numpy releases the GIL while it draws and
    computes on arrays, so the threads run at once. ``fn`` allocates its
    own scratch and must write nothing another substream reads or
    writes. Results wait until the consumer takes them, so each result
    held ahead costs its size: the plain callers fold ``element_blocks``
    block by block and return a few numbers at most, and a tilted
    ``simulate_pep`` substream returns two arrays as long as its chunk.
    Callers fold the results in key order, which makes every output
    independent of the CPU count.
    """
    keys = list(keys)
    workers = _cpu_count()
    if workers == 1:
        yield from map(fn, keys)
        return
    pool = _pool(workers, os.getpid())
    if len(keys) == 1:
        # only the calling thread lends: a pool worker never waits on
        # another pool task
        _LONE.pool = pool
        try:
            result = fn(keys[0])
        finally:
            _LONE.pool = None
        yield result
        return
    todo = iter(keys)
    pending = deque(pool.submit(fn, k) for k in islice(todo, 2 * workers))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(fn, k) for k in islice(todo, 1))
        yield result


def _finish(h_rng: np.random.Generator, h: np.ndarray, g: np.ndarray,
            scale: float, out: np.ndarray):
    """One block of cascade sums: the row sums of h * g into ``out``.

    ``g`` holds the block's raw exponentials of the second hop, and h's
    are replayed from ``h_rng`` into the front of ``h``. Both become
    Rayleigh(scale) magnitudes in place, scale sqrt(2 E), which is how
    ``Generator.rayleigh`` maps its exponentials, and g their product.
    """
    h = h[:g.size]
    h_rng.standard_exponential(out=h)
    for x in (h, g):
        x *= 2.0
        np.sqrt(x, out=x)
        x *= scale
    g *= h
    g.reshape(out.size, -1).sum(axis=1, out=out)


def _lend(todo, done, h_rng, h, scale):
    """The borrowed worker: finish each handed block in turn, hand it back."""
    try:
        for a, b, g, sums in iter(todo.get, None):
            _finish(h_rng, h, g, scale, sums)
            done.put((a, b, sums))
    finally:
        done.put(None)          # wakes the caller when a block raised


def element_blocks(rng: np.random.Generator, n: int, M: int, scale: float,
                   out: np.ndarray | None = None):
    """Yield ``(a, b, sums)`` as each block of cascade sums is drawn.

    The sums are n draws of the row sums of h * g over M elements. h and
    g are (n, M) Rayleigh(scale) magnitudes: h from the stream's first
    n M exponentials, g from the next n M. ``rng`` walks the stream, one
    discarded pass over h's positions and then g one block of ``_BLOCK``
    rows at a time, each into a slot of a ring; a copy of the generator
    replays h, and ``_finish`` transforms both hops while in cache,
    multiplies them and sums each row into ``sums``, rows a to b. With
    an n-float ``out``, ``sums`` is ``out[a:b]``; without one, it is the
    output slot paired with the block's ring slot. Blocks come back in
    order, and ``sums`` stays valid, for the caller to fold or
    overwrite, until it asks for the next block. When the loop ends, the
    sums and the generator's state equal those of two
    ``rng.rayleigh(scale, (n, M))`` draws bit for bit: the price is
    drawing h's exponentials twice.

    In a lone substream of ``substreams`` with more than one CPU, one
    pool worker finishes the blocks while this thread walks ``rng`` up to
    four slots ahead, and the consumer still runs here; the worker is
    stopped and joined when the loop ends, is closed or raises.
    Elsewhere, in pool workers or with one CPU, this thread finishes each
    block itself from a one-slot ring. Either way the same operations
    run in the same order on each generator, so the sums do not depend
    on the CPU count; the call holds at most five blocks of M floats
    and, without ``out``, four blocks of sums.
    """
    size = min(n, _BLOCK) * M
    starts = range(0, n, _BLOCK)
    pool = getattr(_LONE, "pool", None)
    ring = np.empty((1 if pool is None else min(4, len(starts)), size))
    slots = np.empty((len(ring), min(n, _BLOCK))) if out is None else None
    h = np.empty(size)
    h_rng = copy.deepcopy(rng)
    for a in range(0, n * M, size):
        rng.standard_exponential(out=ring[0, :min(size, n * M - a)])
    done = queue.SimpleQueue()
    if pool is None:
        def hand(block):
            a, b, g, sums = block
            _finish(h_rng, h, g, scale, sums)
            done.put((a, b, sums))
    else:
        todo = queue.SimpleQueue()
        task = pool.submit(_lend, todo, done, h_rng, h, scale)
        hand = todo.put

    def handed_back():
        block = done.get()
        if block is None:
            task.result()       # raises what the worker raised
        return block

    try:
        for i, a in enumerate(starts):
            if i >= len(ring):
                yield handed_back()
            b = min(n, a + _BLOCK)
            slot = i % len(ring)
            g = ring[slot, :(b - a) * M]
            rng.standard_exponential(out=g)
            hand((a, b, g, out[a:b] if slots is None else slots[slot, :b - a]))
        for _ in ring:
            yield handed_back()
    finally:
        if pool is not None:
            todo.put(None)
            task.exception()    # joins the worker


def element_sums(rng: np.random.Generator, n: int, M: int, scale: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """n draws of the cascade sum, all of `element_blocks` into ``out``.

    ``out`` is a new array when None.
    """
    if out is None:
        out = np.empty(n)
    for _ in element_blocks(rng, n, M, scale, out):
        pass
    return out


def sample_sums(M: int, sigma2: float, count: int, seed: int,
                chunk: int = CHUNK) -> np.ndarray:
    """`count` cascade sums, one substream per chunk of `chunk` rows.

    The chunks fill their own slices of the result on the substream pool,
    so the sums do not depend on the CPU count. Beside the result, each
    running substream holds only `element_blocks`' scratch.
    """
    scale = math.sqrt(sigma2)
    s = np.empty(count)

    def fill(key):
        idx, n = key
        element_sums(chunk_rng(seed, idx), n, M, scale,
                     out=s[idx * chunk:idx * chunk + n])

    for _ in substreams(fill, chunk_counts(count, chunk)):
        pass
    return s


def _halve(n: int) -> int:
    """Where numpy's pairwise float sum splits n summands in two."""
    half = n // 2
    return half - half % 8


def _segments(n: int) -> list:
    """The lengths of the runs of at most ``_SEGMENT`` summands that cut
    numpy's pairwise tree over n summands into subtrees, in order."""
    if n <= _SEGMENT:
        return [n]
    half = _halve(n)
    return _segments(half) + _segments(n - half)


class PairwiseSum:
    """``np.sum`` of n float64 summands handed in blocks, bit for bit.

    numpy sums a contiguous float64 array pairwise: it splits more than
    128 summands at ``_halve(n)`` and adds runs of at most 128 with eight
    accumulators. Every node of that tree is the ``np.sum`` of its run,
    so the fold cuts [0, n) into the subtrees of ``_segments(n)``, takes
    the sum of each run as it completes and adds the run sums up the
    same tree. A block that starts a run and covers it is summed in
    place; a run that straddles blocks is gathered in a buffer of at
    most ``_SEGMENT`` floats. At n = 2^20 the runs are the 4,096-row
    blocks of ``element_blocks``. ``tests/test_util.py`` pins this order
    against ``np.sum``, so a numpy that sums otherwise fails there.
    """

    def __init__(self, n: int):
        self._n = n
        self._runs = deque(_segments(n))
        self._buf = np.empty(min(n, _SEGMENT))
        self._fill = 0
        self._sums = []

    def add(self, x: np.ndarray):
        """Fold the next ``x.size`` summands."""
        while x.size:
            run = self._runs[0]
            k = min(run - self._fill, x.size)
            if k == run:
                self._sums.append(float(np.sum(x[:k])))
            else:
                self._buf[self._fill:self._fill + k] = x[:k]
                self._fill += k
                if self._fill < run:
                    return
                self._sums.append(float(np.sum(self._buf[:run])))
                self._fill = 0
            self._runs.popleft()
            x = x[k:]

    def total(self) -> float:
        """``float(np.sum(...))`` of the n summands, once all are in."""
        sums = iter(self._sums)

        def tree(n):
            if n <= _SEGMENT:
                return next(sums)
            half = _halve(n)
            return tree(half) + tree(n - half)

        return 0.0 + tree(self._n)      # np.sum starts from +0.0


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
