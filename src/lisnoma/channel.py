"""Monte Carlo reference chain: cascade sampling, SIC detection, exact PEP.

Phases at the surface are ideally aligned to the served user, so only the
two Rayleigh magnitudes per element are ever drawn; the complex channel is
never materialized. Everything here is pure given (config, seed): draws run
in fixed-size chunks with per-chunk substreams, and the substreams run on
a pool of one thread per CPU (`_util.substreams`) while the caller folds
their partial sums in substream order. So identical inputs give
bit-identical outputs no matter how the work is batched or how many CPUs
run it. Plain sampling draws through `_util.element_sums`, which takes
each block's first hop and then its second from the chunk's generator,
several whole blocks per call at small M, so a substream allocates a few
blocks of element magnitudes for itself, not a whole hop; no scratch
passes between substreams. `simulate_ber` keeps the gains q, beside one
small-integer symbol index per frame and user; the link's symbols, noise
and SIC decisions go block by block. Each `simulate_pep`
substream does its chunk's whole job: it draws the gains, plain or
tilted with their weights, runs the conditional kernel on them under
the module lock `_KERNEL`, so that kernel calls come one at a time, and
returns four sums, of the values, their squares, the weights and their
squares; the calling thread only adds those in key order. Tilted
substreams draw their (M, 3, rows) uniforms a group of element rows at
a time (`_tilt_uniforms`) and fold each group into the chunk's sums over
elements.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import (_BLOCK, CHUNK, chunk_counts, chunk_rng, element_sums,
                    sample_sums, substreams, wilson_interval)
from .config import SystemConfig, _resolve_count, _resolve_n0
from .moments import analytic_moments
from .pep import ErrorEvent, _distance_factor, pep_conditional


@dataclass(frozen=True, eq=False)
class CascadeBatch:
    """Cascade draws: the sums ``s`` and the scaled gains q = s / sqrt(D)."""

    s: np.ndarray
    q: np.ndarray


def sample_cascade(config: SystemConfig, user: int, count: int,
                   seed: int = 0) -> CascadeBatch:
    """Draw `count` end-to-end channel gains for one user."""
    config._check_user(user)
    count = _resolve_count(count, "count")
    s = sample_sums(config.M, config.sigma2, count, seed)
    # multiply by the reciprocal root so q == s * D**-0.5 holds exactly
    return CascadeBatch(s, s * config.distance_factor(user) ** -0.5)


@dataclass(frozen=True)
class BerCurve:
    user: int
    snr_db: tuple
    errors: tuple
    frames: int
    ber: tuple
    ci_low: tuple
    ci_high: tuple


def _slice_symbols(y: np.ndarray, gain: np.ndarray,
                   constellation: Sequence[float]) -> np.ndarray:
    """Nearest-symbol decision of y against gain * c over the alphabet."""
    const = np.asarray(constellation, dtype=float)
    if const.size == 2:
        # binary shortcut: threshold at the midpoint
        mid = gain * (const[0] + const[1]) / 2.0
        hi = np.where(const[1] > const[0], const[1], const[0])
        lo = const[0] + const[1] - hi
        return np.where(y >= mid, hi, lo)
    d = np.abs(y[:, None] - gain[:, None] * const[None, :])
    return const[np.argmin(d, axis=1)]


def simulate_ber(config: SystemConfig, snr_db: Sequence[float], frames: int,
                 seed: int = 0) -> dict:
    """Full transmit -> SIC detect chain; per-user BER with Wilson 95% CI.

    ``snr_db`` is a sequence of mean SNR points in dB, each finite.

    SIC at user l detects and subtracts users 1..l-1 sequentially before
    deciding its own symbol, so detection errors propagate into the
    residual rather than being assumed away.
    """
    frames = _resolve_count(frames, "frames")
    snr_db = tuple(float(v) for v in snr_db)
    N0 = [_resolve_n0(v) for v in snr_db]
    scale = math.sqrt(config.sigma2)
    roots = [math.sqrt(p) for p in config.P]
    L = config.L

    consts = [np.asarray(c) for c in config.constellation]

    def frame_errors(key):
        """Errors per user over one chunk of frames at one SNR point."""
        pi, idx, n = key
        nstd = math.sqrt(N0[pi] / 2.0)
        sym_rng = chunk_rng(seed, pi, 0, idx)
        # one whole draw per user, all before the blocks: the users' draws
        # follow one another in sym_rng's stream, and every user's blocks
        # read all users' symbols
        sym = [sym_rng.integers(0, c.size, n).astype(
            np.min_scalar_type(c.size - 1)) for c in consts]
        errs = np.zeros(L, dtype=np.int64)
        q = np.empty(n)
        for user in range(1, L + 1):
            rng = chunk_rng(seed, pi, user, idx)
            element_sums(rng, n, config.M, scale, out=q)
            q /= math.sqrt(config.distance_factor(user))
            # the noise follows the sums in rng's stream; normal keeps no
            # bits between calls, so block draws equal one whole draw
            for a in range(0, n, _BLOCK):
                b = min(n, a + _BLOCK)
                qb = q[a:b]
                xs = [c[k[a:b]] for c, k in zip(consts, sym)]
                tx = sum(r * x for r, x in zip(roots, xs))
                residual = qb * tx + rng.normal(0.0, nstd, b - a)
                for i in range(user - 1):
                    xhat = _slice_symbols(residual, qb * roots[i], consts[i])
                    residual = residual - qb * roots[i] * xhat
                own = _slice_symbols(residual, qb * roots[user - 1],
                                     consts[user - 1])
                errs[user - 1] += int(np.sum(own != xs[user - 1]))
        return errs

    keys = [(pi, idx, n) for pi in range(len(snr_db))
            for idx, n in chunk_counts(frames)]
    errors = np.zeros((len(snr_db), L), dtype=np.int64)
    for (pi, _, _), errs in zip(keys, substreams(frame_errors, keys)):
        errors[pi] += errs

    out = {}
    for user in range(1, L + 1):
        k = errors[:, user - 1]
        ci = [wilson_interval(int(v), frames) for v in k]
        out[user] = BerCurve(
            user=user, snr_db=tuple(snr_db), errors=tuple(int(v) for v in k),
            frames=frames, ber=tuple(float(v) / frames for v in k),
            ci_low=tuple(c[0] for c in ci), ci_high=tuple(c[1] for c in ci))
    return out


@dataclass(frozen=True)
class PepEstimate:
    value: float
    se: float
    trials: int
    ess: float          # effective sample size under the weights
    kappa: float        # tilted over true mean element sum (1 = plain sampling)
    flagged: bool       # vartheta <= 0: error probability above one half

    @property
    def se_underflowed(self) -> bool:
        """``se`` reads 0 for a positive ``value`` whose square is below
        the smallest normal float: the squared values, summed in linear
        float64, underflowed, so the interval's zero width means nothing."""
        return (self.value > 0 and self.se == 0
                and self.value * self.value < sys.float_info.min)


# Tilted proposal, per element. With u, v the two hop powers over 2 sigma2,
# the product is h g = 2 sigma2 w for w = sqrt(u v); with rho = ln(u/v) / 2
# the pair (w, rho) has density 2 w exp(-2 w cosh rho). The proposal draws
# w ~ Gamma(2, s) and |rho| ~ Exp(mean b), b = 2, so the exact weight per
# element is 4 s^2 b exp(w/s - 2 w cosh rho + |rho|/b), elementary functions
# only. The estimand depends on w alone; rho only carries the hop split.

# held around every conditional kernel call: the substreams run the
# kernel one at a time, as a caller that wraps it (the benchmark's
# tracer, with its unlocked span stack and counter) expects
_KERNEL = threading.Lock()
# rows per tilted substream: keeps the per-element arrays cache-sized
_TILT_CHUNK = 1 << 14
# uniforms per plane that a tilted substream draws at a time
_TILT_DRAW = 1 << 16


def _tilt_uniforms(rng: np.random.Generator, M: int, n: int):
    """Yield the uniforms of ``rng.random((M, 3, n))``, G element rows at
    a time, as (3, G, n) views that the next yield overwrites.

    G = min(M, max(1, ``_TILT_DRAW`` // n)), fewer in the last group.
    Each group is one draw in stream order, so the groups together are
    the whole draw's values, and ``rng`` ends where the whole draw leaves
    it.
    """
    G = min(M, max(1, _TILT_DRAW // n))
    buf = np.empty(G * 3 * n)
    for j in range(0, M, G):
        u = rng.random(out=buf[:min(G, M - j) * 3 * n].reshape(-1, 3, n))
        yield u.transpose(1, 0, 2)


def _auto_tilt(M: int, r: float) -> float:
    """Tilt for `importance=True`; 1.0 where plain sampling is kept.

    `r` is the gain at which the conditional error's Q-argument reaches
    one, over the mean gain. The proposal mean sits at the saddle of
    Q(S / (r mu1)) times a Gamma(2M, mu1 / 2M) stand-in for the sum's
    density (same mean, same S^(2M-1) onset at zero). Below a tilt of 1/2
    that proposal beats plain sampling at every M from 2 to 20 on the
    reference scenario; above it the tilt only adds weight noise, which
    grows with M, so shallow tilts are kept only for short sums (M <= 4,
    where the relative variance per trial stays below about 10) and only
    in the lower tail (r < 1).
    """
    kappa = (2 * M - 1) / (M + math.sqrt(M * M + (2 * M - 1) / (r * r)))
    if r < 1.0 and (kappa < 0.5 or M <= 4):
        return kappa
    return 1.0


def simulate_pep(config: SystemConfig, user: int, interference: ErrorEvent,
                 snr_db: float, trials: int = 1_000_000, seed: int = 0,
                 importance: bool = False) -> PepEstimate:
    """Unbiased Monte Carlo estimate of the exact unconditional PEP.

    `interference` is the user's error event, built with `build_event`.
    With `importance` set, each element product may be drawn from a
    proposal whose mean element sum is kappa times the true one, kappa
    chosen by `_auto_tilt`, and reweighted exactly; the weight depends on
    the element products and their hop split only, never on the raw
    magnitudes, which is what makes deep-tail points reachable at any M.
    Tilting is skipped for flagged events, where the estimand is not
    small, and kappa = 1 is plain sampling. Each substream draws its
    chunk's gains (a tilted one its uniforms a group of element rows at a
    time, and the weights), runs `pep_conditional` on them under
    `_KERNEL`, and returns the sums of the values and their squares, and
    of the weights and their squares; the chunks' sums are added in key
    order, so the estimate's bits do not depend on the CPU count.
    """
    event = interference
    rd = math.sqrt(_distance_factor(config, user, event))
    trials = _resolve_count(trials, "trials")

    N0 = _resolve_n0(snr_db)
    lam = event.lam_at(N0)
    th = event.vartheta
    sigma2 = config.sigma2
    scale = math.sqrt(sigma2)
    M = config.M

    kappa = 1.0
    if importance and not event.flagged:
        mu1 = analytic_moments(M, sigma2).mu1
        kappa = _auto_tilt(M, lam * rd / (abs(th) * mu1))

    # the untilted mean of w is pi/4, so the Gamma(2, s) mean 2s is kappa
    # times it; draws are in units of s
    s = kappa * math.pi / 8.0
    log_norm = M * math.log(8.0 * s * s)          # 4 s^2 b per element
    chunk = CHUNK if kappa == 1.0 else _TILT_CHUNK

    def draw(key):
        """One substream's gains, and its weights when tilted."""
        idx, n = key
        rng = chunk_rng(seed, idx)
        if kappa == 1.0:
            return element_sums(rng, n, M, scale), None
        # Three uniforms on (0, 1] per element: w / s = -ln(u1 u2) is
        # Gamma(2, 1), and |rho| = -2 ln u3 is Exp with mean b = 2, so
        # |rho| / b = -ln u3 and 2 cosh rho = u3^-2 + u3^2. Each group of
        # element rows adds into the sums of -w / s, -|rho| / b and
        # -2 w cosh rho / s over elements.
        sums = np.zeros((3, n))
        for u in _tilt_uniforms(rng, M, n):
            np.subtract(1.0, u, out=u)
            u1, u2, u3 = u
            u1 *= u2
            np.log(u1, out=u1)                # -w / s
            np.log(u3, out=u2)                # -|rho| / b
            sums[0] += u1.sum(axis=0)
            sums[1] += u2.sum(axis=0)
            u3 *= u3
            np.reciprocal(u3, out=u2)
            u2 += u3                          # 2 cosh rho
            u2 *= u1
            sums[2] += u2.sum(axis=0)
        g_sum = -sums[0]
        logw = log_norm + g_sum - sums[1]
        logw += s * sums[2]
        return (2.0 * sigma2 * s) * g_sum, np.exp(logw)

    def fold(key):
        """One substream's sums of the values and their squares, and of
        the weights and their squares (n and n when plain)."""
        vals, w = draw(key)
        vals /= rd
        with _KERNEL:
            vals = pep_conditional(vals, event, N0=N0)
        if w is None:
            wsum = w2sum = float(vals.size)
        else:
            vals *= w
            wsum = float(w.sum())
            w2sum = float((w * w).sum())
        total = float(vals.sum())
        vals *= vals
        return total, float(vals.sum()), wsum, w2sum

    # the chunks' sums are added in key order, whatever the CPU count
    total = total2 = wsum = w2sum = 0.0
    for t, t2, ws, w2s in substreams(fold, chunk_counts(trials, chunk)):
        total += t
        total2 += t2
        wsum += ws
        w2sum += w2s

    mean = total / trials
    var = max(0.0, total2 / trials - mean * mean)
    se = math.sqrt(var / trials)
    ess = wsum * wsum / w2sum if w2sum > 0 else 0.0
    return PepEstimate(value=mean, se=se, trials=trials, ess=ess,
                       kappa=kappa, flagged=event.flagged)
