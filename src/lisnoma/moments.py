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

from ._util import SMALL_CHUNK, chunk_counts, chunk_rng, element_sums

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

    The general M expressions are canonical; the hand-expanded small-M
    forms are kept as a consistency check and must agree to machine
    precision.
    """
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    _check_sigma2(sigma2)
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

    for got, want in ((mu3, _mu3_listed(M, v)), (mu4, _mu4_listed(M, v))):
        if want is not None and not math.isclose(got, want, rel_tol=1e-14):
            raise AssertionError("general branch disagrees with small-M listing")

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

    def as_tuple(self):
        return self.mu


def empirical_moments(M: int, sigma2: float, samples: int = 10_000_000,
                      seed: int = 0) -> EmpiricalMoments:
    """Monte Carlo raw moments of S with jackknife standard errors.

    Sampling is chunked; each chunk gets an independent substream keyed on
    (seed, chunk index), so the result is reproducible for a given seed
    regardless of execution order.
    """
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    _check_sigma2(sigma2)
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    M = int(M)
    scale = math.sqrt(float(sigma2))

    # chunk sums of S^k for k = 1..4; jackknife blocks are finer than the
    # draw chunks so runs smaller than one chunk still get an error bar
    block = max(2500, -(-int(samples) // 64))
    buf = np.empty(2 * M * min(int(samples), SMALL_CHUNK))
    sums = []
    counts = []
    for idx, n in chunk_counts(int(samples), SMALL_CHUNK):
        s = element_sums(chunk_rng(seed, idx), n, M, scale, buf)
        p = np.empty((4, n))
        p[0] = s
        for k in range(1, 4):
            p[k] = p[k - 1] * s
        for a in range(0, n, block):
            b = min(n, a + block)
            sums.append(p[:, a:b].sum(axis=1))
            counts.append(b - a)
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


def _check_sigma2(sigma2):
    if not (sigma2 > 0):
        raise ValueError("sigma2 must be positive")
