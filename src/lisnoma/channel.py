"""Monte Carlo reference chain: cascade sampling, SIC detection, exact PEP.

Phases at the surface are ideally aligned to the served user, so only the
two Rayleigh magnitudes per element are ever drawn; the complex channel is
never materialized. Everything here is pure given (config, seed): draws run
in fixed-size chunks with per-chunk substreams, so identical inputs give
bit-identical outputs no matter how the work is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._util import (CHUNK, chunk_counts, chunk_rng, element_sums,
                    sample_sums, wilson_interval)
from .config import SnrGrid, SystemConfig
from .pep import ErrorEvent, build_event, pep_conditional


@dataclass(frozen=True)
class CascadeSample:
    s: float
    q: float


class CascadeBatch:
    """Vector of cascade draws; iterates as CascadeSample views."""

    __slots__ = ("s", "q")

    def __init__(self, s: np.ndarray, q: np.ndarray):
        self.s = s
        self.q = q

    def __len__(self) -> int:
        return self.s.size

    def __getitem__(self, i) -> CascadeSample:
        return CascadeSample(float(self.s[i]), float(self.q[i]))

    def __iter__(self):
        for i in range(self.s.size):
            yield self[i]


def sample_cascade(config: SystemConfig, user: int, count: int,
                   seed: int = 0) -> CascadeBatch:
    """Draw `count` end-to-end channel gains for one user."""
    config._check_user(user)
    if count < 1:
        raise ValueError("count must be at least 1")
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


def simulate_ber(config: SystemConfig, snr, frames: int,
                 seed: int = 0) -> dict:
    """Full transmit -> SIC detect chain; per-user BER with Wilson 95% CI.

    SIC at user l detects and subtracts users 1..l-1 sequentially before
    deciding its own symbol, so detection errors propagate into the
    residual rather than being assumed away.
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if isinstance(snr, SnrGrid):
        snr_db = snr.db
    else:
        snr_db = tuple(float(v) for v in snr)
    scale = math.sqrt(config.sigma2)
    roots = [math.sqrt(p) for p in config.P]
    L = config.L
    errors = np.zeros((len(snr_db), L), dtype=np.int64)
    buf = np.empty(2 * config.M * min(frames, CHUNK))

    for pi, sdb in enumerate(snr_db):
        N0 = 10.0 ** (-sdb / 10.0)
        nstd = math.sqrt(N0 / 2.0)
        for idx, n in chunk_counts(frames):
            sym_rng = chunk_rng(seed, pi, 0, idx)
            xs = [c[sym_rng.integers(0, len(c), n)]
                  for c in map(np.asarray, config.constellation)]
            tx = sum(r * x for r, x in zip(roots, xs))
            for user in range(1, L + 1):
                rng = chunk_rng(seed, pi, user, idx)
                q = element_sums(rng, n, config.M, scale, buf)
                q /= math.sqrt(config.distance_factor(user))
                y = q * tx + rng.normal(0.0, nstd, n)
                residual = y
                for i in range(user - 1):
                    xhat = _slice_symbols(residual, q * roots[i],
                                          config.constellation[i])
                    residual = residual - q * roots[i] * xhat
                own = _slice_symbols(residual, q * roots[user - 1],
                                     config.constellation[user - 1])
                errors[pi, user - 1] += int(np.sum(own != xs[user - 1]))

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

    def __float__(self) -> float:
        return self.value


# Tilted proposal, per element. With u, v the two hop powers over 2 sigma2,
# the product is h g = 2 sigma2 w for w = sqrt(u v); with rho = ln(u/v) / 2
# the pair (w, rho) has density 2 w exp(-2 w cosh rho). The proposal draws
# w ~ Gamma(2, s) and |rho| ~ Exp(mean b), b = 2, so the exact weight per
# element is 4 s^2 b exp(w/s - 2 w cosh rho + |rho|/b), elementary functions
# only. The estimand depends on w alone; rho only carries the hop split.

# rows per tilted substream: keeps the per-element arrays cache-sized
_TILT_CHUNK = 1 << 14


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


def simulate_pep(config: SystemConfig, user: int,
                 pair: Optional[Tuple[float, float]] = None,
                 interference: Optional[ErrorEvent] = None,
                 snr_db: Optional[float] = None,
                 trials: int = 1_000_000, seed: int = 0,
                 importance: Optional[object] = None) -> PepEstimate:
    """Unbiased Monte Carlo estimate of the exact unconditional PEP.

    The event comes either from `interference` (a prebuilt ErrorEvent) or
    from `pair` = (x, xbar) with all other users transmitting their first
    constellation symbol and perfect SIC. `importance` = kappa in (0, 1)
    draws each element product from a proposal whose mean element sum is
    kappa times the true one and reweights exactly; the weight depends on
    the element products and their hop split only, never on the raw
    magnitudes, which is what makes deep-tail points reachable at any M.
    True picks kappa automatically (see `_auto_tilt`); kappa = 1 is plain
    sampling. Tilting is skipped for flagged events, where the estimand
    is not small.
    """
    config._check_user(user)
    if interference is None:
        if pair is None:
            raise ValueError("need either pair or interference")
        x = [c[0] for c in config.constellation]
        x[user - 1] = float(pair[0])
        event = build_event(config, user, x, pair[1])
    else:
        event = interference
        if event.user != user:
            raise ValueError("interference event is for a different user")
        if pair is not None and (abs(event.x[user - 1] - pair[0]) > 1e-12
                                 or abs(event.xbar - pair[1]) > 1e-12):
            raise ValueError("pair disagrees with the interference event")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    N0 = config.N0 if snr_db is None else 10.0 ** (-float(snr_db) / 10.0)
    lam = event.lam_at(N0)
    th = event.vartheta
    sigma2 = config.sigma2
    scale = math.sqrt(sigma2)
    rd = math.sqrt(config.distance_factor(user))
    M = config.M

    kappa = 1.0
    if importance and not event.flagged:
        if importance is True or importance == "auto":
            from .moments import analytic_moments
            mu1 = analytic_moments(M, sigma2).mu1
            kappa = _auto_tilt(M, lam * rd / (abs(th) * mu1))
        else:
            kappa = float(importance)
            if not 0.0 < kappa <= 1.0:
                raise ValueError("importance tilt must be in (0, 1]")

    # the untilted mean of w is pi/4, so the Gamma(2, s) mean 2s is kappa
    # times it; draws are in units of s
    s = kappa * math.pi / 8.0
    log_norm = M * math.log(8.0 * s * s)          # 4 s^2 b per element
    total = 0.0
    total2 = 0.0
    wsum = 0.0
    w2sum = 0.0
    chunk = CHUNK if kappa == 1.0 else _TILT_CHUNK
    # reused across substreams; fresh per-chunk arrays cost page faults
    buf = np.empty((2 if kappa == 1.0 else 3) * M * min(trials, chunk))
    for idx, n in chunk_counts(trials, chunk):
        rng = chunk_rng(seed, idx)
        if kappa == 1.0:
            s_sum = element_sums(rng, n, M, scale, buf)
            vals = np.asarray(pep_conditional(s_sum / rd, event, N0=N0))
            wsum += n
            w2sum += n
        else:
            # Three uniforms on (0, 1] per element, element-major so that
            # sums over elements are row adds: w / s = -ln(u1 u2) is
            # Gamma(2, 1), and |rho| = -2 ln u3 is Exp with mean b = 2, so
            # |rho| / b = -ln u3 and 2 cosh rho = u3^-2 + u3^2.
            u = buf[:3 * M * n].reshape(3, M, n)
            rng.random(out=u)
            np.subtract(1.0, u, out=u)
            u1, u2, u3 = u
            u1 *= u2
            np.log(u1, out=u1)                    # -w / s
            g_sum = -u1.sum(axis=0)
            np.log(u3, out=u2)                    # -|rho| / b
            logw = log_norm + g_sum - u2.sum(axis=0)
            u3 *= u3
            np.reciprocal(u3, out=u2)
            u2 += u3                              # 2 cosh rho
            u2 *= u1
            logw += s * u2.sum(axis=0)
            w = np.exp(logw)
            s_sum = (2.0 * sigma2 * s) * g_sum
            vals = w * np.asarray(pep_conditional(s_sum / rd, event, N0=N0))
            wsum += float(w.sum())
            w2sum += float((w * w).sum())
        total += float(vals.sum())
        total2 += float((vals * vals).sum())

    mean = total / trials
    var = max(0.0, total2 / trials - mean * mean)
    se = math.sqrt(var / trials)
    ess = wsum * wsum / w2sum if w2sum > 0 else 0.0
    return PepEstimate(value=mean, se=se, trials=trials, ess=ess,
                       kappa=kappa, flagged=event.flagged)
