"""System configuration for the surface-assisted downlink.

A scenario fixes the surface size M, the per-element fading scale, the
path-loss geometry, and the superposition power split. JSON scenario files
mirror the dataclass field names one to one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

BPSK = (-1.0, 1.0)

_SUM_TOL = 1e-12


def _check_scenario(M, sigma2):
    if int(M) != M or M < 1:
        raise ValueError("M must be a positive integer")
    _check_sigma2(sigma2)


def _check_sigma2(sigma2):
    # nan and inf fail too
    if not 0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be positive")


def _resolve_n0(snr_db: float) -> float:
    """Noise spectral density N0 at ``snr_db`` dB; refuses |snr_db| > 3000."""
    snr_db = float(snr_db)
    # N0 = 10^(-snr/10) stays within [1e-300, 1e300]; nan fails too
    if not abs(snr_db) <= 3000.0:
        raise ValueError(f"snr_db must be finite and within "
                         f"[-3000, 3000] dB, got {snr_db:g}")
    return 10.0 ** (-snr_db / 10.0)


def _resolve_count(value, name: str, least: int = 1) -> int:
    """A count as an int: any whole number (an int, a numpy integer or an
    integral float) of at least ``least``, or a ValueError naming ``name``."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()
            and value >= least):
        raise ValueError(f"{name} must be a whole number of at least "
                         f"{least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one downlink scenario.

    A scenario holds the physical inputs only, each once. The user count
    is the length of ``d_R``, ``P`` and ``constellation``, which must
    agree. The mean SNR 1 / N0 is not part of it: every call that needs a
    noise level takes its SNR point as an argument.

    Attributes
    ----------
    M : int
        Number of reflecting elements, M >= 1.
    sigma2 : float
        Per-element Rayleigh parameter; each hop magnitude has
        E[r^2] = 2 * sigma2.
    alpha : float
        Path-loss exponent.
    d_B : float
        Base-to-surface distance.
    d_R : tuple of float
        Surface-to-user distances, positive and strictly decreasing (far
        user first).
    P : tuple of float
        Power allocation, positive, strictly decreasing, summing to one.
    constellation : tuple of tuple of float
        Per-user symbol alphabets, each with unit average energy.
    """

    M: int
    sigma2: float = 0.5
    alpha: float = 3.0
    d_B: float = 1.0
    d_R: tuple = (5.0, 2.0)
    P: tuple = (0.8, 0.2)
    constellation: tuple = (BPSK, BPSK)

    def __post_init__(self):
        object.__setattr__(self, "d_R", tuple(float(d) for d in self.d_R))
        object.__setattr__(self, "P", tuple(float(p) for p in self.P))
        object.__setattr__(
            self, "constellation",
            tuple(tuple(float(s) for s in c) for c in self.constellation))
        # NaN fails every comparison below, so each check would pass it
        values = (self.M, self.sigma2, self.alpha, self.d_B, *self.d_R,
                  *self.P, *(s for c in self.constellation for s in c))
        if not all(math.isfinite(v) for v in values):
            raise ValueError("scenario values must be finite")
        _check_scenario(self.M, self.sigma2)
        object.__setattr__(self, "M", int(self.M))
        if not len(self.d_R) == len(self.P) == len(self.constellation):
            raise ValueError("d_R, P and constellation must agree in length")
        if self.alpha <= 0 or self.d_B <= 0:
            raise ValueError("alpha and d_B must be positive")
        if any(v <= 0 for v in self.d_R + self.P):
            raise ValueError("distances and power shares must be positive")
        # far user first
        if any(a <= b for a, b in zip(self.d_R, self.d_R[1:])):
            raise ValueError("d_R must be strictly decreasing")
        if any(a <= b for a, b in zip(self.P, self.P[1:])):
            raise ValueError("P must be strictly decreasing")
        if abs(sum(self.P) - 1.0) > _SUM_TOL:
            raise ValueError("P must sum to one")
        for c in self.constellation:
            if len(c) < 2:
                raise ValueError("constellations need at least two symbols")
            energy = sum(s * s for s in c) / len(c)
            if abs(energy - 1.0) > _SUM_TOL:
                raise ValueError("constellations must have unit average energy")

    @property
    def L(self) -> int:
        """Number of multiplexed users. User 1 is the far user."""
        return len(self.P)

    def distance_factor(self, user: int) -> float:
        """Combined path-loss factor d_B^alpha * d_R^alpha for one user."""
        self._check_user(user)
        return (self.d_B ** self.alpha) * (self.d_R[user - 1] ** self.alpha)

    def replace(self, **kw) -> "SystemConfig":
        return dataclasses.replace(self, **kw)

    def _check_user(self, user: int):
        if not 1 <= user <= self.L:
            raise ValueError(f"user must be in 1..{self.L}")


def default_config(M: int = 3, **kw) -> SystemConfig:
    """Reference two-user scenario used throughout the tests and demos."""
    return SystemConfig(M=M, **kw)


def load_scenario(path) -> SystemConfig:
    """Scenario from a JSON object whose keys are SystemConfig fields."""
    with open(path, "r", encoding="utf-8") as fh:
        return SystemConfig(**json.load(fh))


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing grid of mean SNR points in dB, each |p| <= 3000."""

    db: tuple

    def __post_init__(self):
        pts = tuple(float(x) for x in self.db)
        if len(pts) == 0:
            raise ValueError("empty grid")
        for p in pts:
            _resolve_n0(p)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "db", pts)

    @classmethod
    def from_range_db(cls, start: float, stop: float, step: float) -> "SnrGrid":
        """Points start + k * step up to stop, each computed from k."""
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError("start, stop and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        pts = []
        k = 0
        while start + k * step <= stop + 1e-9:
            pts.append(start + k * step)
            k += 1
        return cls(tuple(pts))

    @classmethod
    def parse(cls, text: str) -> "SnrGrid":
        """Parse 'a:b:step' in dB."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("expected a:b:step")
        return cls.from_range_db(float(parts[0]), float(parts[1]), float(parts[2]))
