"""Inputs of the three benchmark workloads.

Shared by the job runner (`job.py`), the checks (`checks.py`) and the
reference command (`make_references.py`). Pure Python: importing it loads
neither `lisnoma` nor numpy, so the references stay independent of the
program they referee.

Every workload runs on the reference scenario of `lisnoma.default_config`:
sigma2 = 0.5, path-loss exponent 3, d_B = 1, d_R = (5, 2), P = (0.8, 0.2),
BPSK for both users. The benchmark restates those numbers here instead of
reading them from the program, so a change to the program's defaults shows
up as failed checks rather than silently moving the references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

WORKLOADS = ("closed_form", "referee", "monte_carlo")

SIGMA2 = 0.5
ALPHA = 3.0
D_B = 1.0
D_R = (5.0, 2.0)
POWER = (0.8, 0.2)
BPSK = (-1.0, 1.0)
USERS = (1, 2)

# --- closed_form -----------------------------------------------------------
# Surface sizes spanning 1..32: the complex-pair fits (M <= 3), the real
# fits, the Gaussian-limit range (M > 10) and M = 32, where the residue
# series of the density kernel breaks down near z = 9.
CLOSED_M = (1, 2, 3, 4, 6, 8, 11, 16, 24, 32)
CLOSED_SNR_DB = tuple(float(s) for s in range(0, 41, 2))
DENSITY_POINTS = 400
FIT_SWEEP_M = tuple(range(1, 65))
DIVERSITY_GRID_DB = (35.0, 45.0)

# --- referee ---------------------------------------------------------------
# (M, user, snr_db, pdf_model, kernel). The M = 1 fitted-density point at
# 0 dB drives the uniform panels to 1,024 and about 60,000 cold contour
# evaluations; the 6 and 12 dB points after it reuse the contour cache on
# the same nodes. M = 3, 6 and 15 converge in a few doublings, three SNR
# points per (M, user) pair. The "dr" and "clt" points bypass specfun.
REFEREE_POINTS = (
    (1, 1, 0.0, "g", "chernoff"),
    (1, 1, 6.0, "g", "chernoff"),
    (1, 1, 12.0, "g", "chernoff"),
) + tuple(
    (M, user, snr, "g", "chernoff")
    for M in (3, 6, 15) for user in USERS for snr in (0.0, 15.0, 30.0)
) + tuple(
    (1, user, snr, "dr", kernel)
    for user in USERS for snr in (0.0, 20.0, 40.0)
    for kernel in ("chernoff", "exact")
) + tuple(
    (15, user, snr, "clt", "chernoff")
    for user in USERS for snr in (0.0, 15.0, 30.0)
)
# quadrature tolerance as a share of the value, as the program's own
# checks set it: 4a for "g", 4b for "dr", the large-M adjudication for "clt"
REFEREE_REL_TOL = {"g": 1e-9, "dr": 1e-11, "clt": 1e-8}


def referee_key(M, user, snr, model, kernel) -> str:
    return f"quad/{model}/{kernel}/M{M}/u{user}/{snr:g}"


# --- monte_carlo -----------------------------------------------------------
# One full 2^20-row chunk per point: the plain-sampling points at M = 15
# then allocate the (2^20 x M) arrays whose size peak_rss_mb tracks.
PEP_M = (1, 3, 15)
PEP_SNR_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
PEP_TRIALS = 1 << 20
# SNR grid per M: only points where 2^18 frames expect several errors of
# user 2; where under one is expected (M = 6 above 20 dB) a dominance check
# tests nothing and a single error trips it
BER_SNR_DB = {3: (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
              6: (0.0, 5.0, 10.0, 15.0, 20.0)}
BER_FRAMES = 1 << 18
MOMENT_M = (1, 3, 15)
MOMENT_SAMPLES = 1 << 20
# Q-function arguments at which the conditional kernel is compared with
# mpmath's erfc; Q(30) = 4.9e-198 stays clear of float64 underflow
CONDITIONAL_T = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


def distance_factor(user: int) -> float:
    return (D_B ** ALPHA) * (D_R[user - 1] ** ALPHA)


def noise_density(snr_db: float) -> float:
    return 10.0 ** (-float(snr_db) / 10.0)


def quadrature_limit(M: int, D: float) -> float:
    """Upper end of the density tables: mean plus 12-20 standard deviations.

    The benchmark's own choice of grid, written to match the range the
    program's quadrature referee integrates over.
    """
    pi = math.pi
    mu1 = M * pi * SIGMA2 / 2.0
    mu2 = (4.0 + (M - 1) * pi ** 2 / 4.0) * M * SIGMA2 ** 2
    mult = 12.0 + max(0.0, 8.0 - 2.0 * (M - 1))
    return (mu1 + mult * math.sqrt(mu2 - mu1 * mu1)) / math.sqrt(D)


def density_grid(M: int, user: int) -> list:
    hi = quadrature_limit(M, distance_factor(user))
    n = DENSITY_POINTS
    return [hi * i / (n - 1) for i in range(n)]


@dataclass(frozen=True)
class Event:
    """One pairwise error event of the union bound, in scalar form."""

    user: int
    x: tuple
    xbar: float
    sic: tuple          # residuals x_i - xhat_i of the users detected first
    delta_bar: float
    vartheta: float


def make_event(user: int, x, xbar: float, sic=()) -> Event:
    roots = [math.sqrt(p) for p in POWER]
    delta_bar = x[user - 1] - xbar
    interference = sum(roots[i] * sic[i] for i in range(user - 1))
    interference += sum(roots[j] * x[j] for j in range(user, len(POWER)))
    vartheta = roots[user - 1] * delta_bar ** 2 + 2.0 * delta_bar * interference
    return Event(user, tuple(x), float(xbar), tuple(sic), delta_bar, vartheta)


def union_events(user: int) -> list:
    """Every transmitted tuple, wrong hypothesis and SIC decision."""
    out = []
    for x in itertools.product(BPSK, repeat=len(POWER)):
        for xbar in BPSK:
            if xbar == x[user - 1]:
                continue
            for det in itertools.product(BPSK, repeat=user - 1):
                sic = tuple(xi - di for xi, di in zip(x, det))
                out.append(make_event(user, x, xbar, sic))
    return out


def canonical_event(user: int) -> Event:
    """Largest-separation user-1 event; the clean user-2 event."""
    return make_event(user, (1.0, 1.0), -1.0, (0.0,) * (user - 1))


def conditional_gains(ev: Event, snr_db: float) -> list:
    """Channel gains q at which Q(q vartheta / lambda) hits CONDITIONAL_T."""
    lam = abs(ev.delta_bar) * math.sqrt(2.0 * noise_density(snr_db))
    return [t * lam / ev.vartheta for t in CONDITIONAL_T]
