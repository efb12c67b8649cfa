"""Shared helpers: deterministic substreams, the cascade sampler, graded
composite quadrature."""

from __future__ import annotations

import math

import numpy as np

# Fixed chunk size keeps streams bit-identical regardless of how callers
# batch their draws.
CHUNK = 1 << 20
# rows per substream of the sampled-moment and density checks
SMALL_CHUNK = 1 << 18


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


def element_sums(rng: np.random.Generator, n: int, M: int, scale: float,
                 buf: np.ndarray) -> np.ndarray:
    """n draws of the cascade sum: row sums of h * g over M elements.

    h and g are (n, M) Rayleigh(scale) magnitudes built in ``buf`` (at
    least 2 n M floats, reused from chunk to chunk) as scale sqrt(2 E)
    from ``standard_exponential``. That is how ``Generator.rayleigh`` maps
    its exponentials, so the sums and the generator's state afterwards
    equal those of two ``rng.rayleigh(scale, (n, M))`` draws bit for bit.
    """
    h, g = buf[:2 * n * M].reshape(2, n, M)
    for a in (h, g):
        rng.standard_exponential(out=a)
        a *= 2.0
        np.sqrt(a, out=a)
        a *= scale
    h *= g
    return h.sum(axis=1)


def sample_sums(M: int, sigma2: float, count: int, seed: int,
                chunk: int = CHUNK) -> np.ndarray:
    """`count` cascade sums, one substream per chunk of `chunk` rows."""
    scale = math.sqrt(sigma2)
    buf = np.empty(2 * M * min(count, chunk))
    s = np.empty(count)
    for idx, n in chunk_counts(count, chunk):
        s[idx * chunk:idx * chunk + n] = element_sums(
            chunk_rng(seed, idx), n, M, scale, buf)
    return s


def gauss_legendre_panels(f, lo: float, hi: float, *, abs_tol: float = 1e-10,
                          order: int = 48, max_panels: int = 4096) -> float:
    """Integrate a vectorized callable on a mesh graded toward ``lo``.

    Breakpoints lo and lo + (hi - lo) 2^-k, k = 40..0, cut [lo, hi] into
    41 levels shrinking geometrically toward ``lo``, which resolves
    endpoint singularities and log-periodic oscillation such as Re x^c
    with complex c (Davis & Rabinowitz). Every level carries the same
    number of Gauss-Legendre panels, doubled until two successive totals
    differ by less than abs_tol. Raises ConvergenceError when that would
    take more than max_panels panels. Deterministic by construction.
    """
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    breaks = lo + (hi - lo) * np.r_[0.0, np.exp2(-np.arange(40.0, -1.0, -1.0))]
    per_level, vals = 1, []
    while per_level * (breaks.size - 1) <= max_panels:
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
        f"graded quadrature hit its cap of {max_panels} panels: last two "
        f"values {vals[-2:]}, abs_tol {abs_tol:g}")


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion. Safe at k=0 and k=n."""
    if n <= 0:
        return 0.0, 1.0
    p = k / n
    z2 = z * z
    denom = 1 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
