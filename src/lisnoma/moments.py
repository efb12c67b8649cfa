"""Raw moments of the cascaded channel sum.

The quantity of interest is S, the sum over M surface elements of the
product of two independent Rayleigh magnitudes. The first four raw
moments of S admit closed forms in M and the per-hop parameter sigma2;
those closed forms feed the density fit and every bound downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import chunk_counts, chunk_rng, element_sums, substreams

_PI = math.pi


@dataclass(frozen=True)
class Moments:
    mu1: float
    mu2: float
    mu3: float
    mu4: float

    def as_tuple(self):
        return (self.mu1, self.mu2, self.mu3, self.mu4)

    @property
    def variance(self) -> float:
        return self.mu2 - self.mu1 ** 2


def analytic_moments(M: int, sigma2: float) -> Moments:
    """Closed-form raw moments of S for M elements.

    The general-M expressions are the only ones evaluated. The
    hand-expanded small-M listings (``_mu3_listed``, ``_mu4_listed``) are
    compared with them by check 2 and the tests, not on every call.
    """
    _check_scenario(M, sigma2)
    M = int(M)
    v = float(sigma2)

    mu1 = M * _PI * v / 2.0
    mu2 = (4.0 + (M - 1) * _PI ** 2 / 4.0) * M * v ** 2
    mu3 = M * _PI * (4.5 + 6.0 * (M - 1)
                     + (M - 1) * (M - 2) * _PI ** 2 / 8.0) * v ** 3
    mu4 = (64.0 * M
           + 48.0 * M * (M - 1)
           + 9.0 * M * (M - 1) * _PI ** 2
           + 6.0 * M * (M - 1) * (M - 2) * _PI ** 2
           + M * (M - 1) * (M - 2) * (M - 3) * _PI ** 4 / 16.0) * v ** 4

    return Moments(mu1, mu2, mu3, mu4)


def _mu3_listed(M, v):
    # hand-expanded special cases; None where only the general form exists
    if M == 1:
        return 4.5 * _PI * v ** 3
    if M == 2:
        return 21.0 * _PI * v ** 3
    return None


def _mu4_listed(M, v):
    if M == 1:
        return 64.0 * v ** 4
    if M == 2:
        return (224.0 + 18.0 * _PI ** 2) * v ** 4
    if M == 3:
        return (480.0 + 90.0 * _PI ** 2) * v ** 4
    return None


@dataclass(frozen=True)
class EmpiricalMoments:
    mu: tuple
    se: tuple
    samples: int
    seed: int


# fewest samples the jackknife standard errors are computed from
MIN_SAMPLES = 10_000


def empirical_moments(M: int, sigma2: float, samples: int = 10_000_000,
                      seed: int = 0) -> EmpiricalMoments:
    """Monte Carlo raw moments of S with jackknife standard errors.

    Sampling is chunked; each chunk gets an independent substream keyed on
    (seed, chunk index) and runs on the substream pool, and the chunk sums
    are collected in chunk order, so the result is reproducible for a
    given seed regardless of execution order or CPU count. A substream
    keeps its chunk's sums and forms the four powers of one jackknife
    block at a time, in a (4, block) array.
    """
    _check_scenario(M, sigma2)
    if samples < MIN_SAMPLES:
        raise ValueError("need at least 1e4 samples")
    M = int(M)
    scale = math.sqrt(float(sigma2))

    # chunk sums of S^k for k = 1..4; jackknife blocks are finer than the
    # draw chunks so runs smaller than one chunk still get an error bar
    block = max(2500, -(-int(samples) // 64))

    def chunk_sums(key):
        idx, n = key
        s = element_sums(chunk_rng(seed, idx), n, M, scale)
        p = np.empty((4, min(n, block)))
        out = []
        for a in range(0, n, block):
            m = min(n, a + block) - a
            rows = p[:, :m]
            rows[0] = s[a:a + m]
            for k in range(1, 4):
                np.multiply(rows[k - 1], rows[0], out=rows[k])
            out.append((rows.sum(axis=1), m))
        return out

    sums = []
    counts = []
    for part in substreams(chunk_sums, chunk_counts(int(samples))):
        for row, count in part:
            sums.append(row)
            counts.append(count)
    sums = np.array(sums)          # (C, 4)
    counts = np.array(counts, dtype=float)
    total = counts.sum()

    mu = sums.sum(axis=0) / total

    # delete-one-block jackknife for the mean of each power
    C = len(counts)
    se = np.empty(4)
    for k in range(4):
        loo = (sums[:, k].sum() - sums[:, k]) / (total - counts)
        se[k] = math.sqrt((C - 1) / C * np.sum((loo - loo.mean()) ** 2))

    return EmpiricalMoments(tuple(mu), tuple(se), int(total), int(seed))


def _check_scenario(M, sigma2):
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    _check_sigma2(sigma2)


def _check_sigma2(sigma2):
    # nan and inf fail too
    if not 0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be positive")
