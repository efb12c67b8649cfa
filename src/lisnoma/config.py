"""System configuration for the surface-assisted downlink.

A scenario fixes the surface size M, the per-element fading scale, the
path-loss geometry, and the superposition power split. JSON scenario files
mirror the dataclass field names one to one.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

BPSK = (-1.0, 1.0)

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one downlink scenario.

    Attributes
    ----------
    M : int
        Number of reflecting elements, M >= 1.
    L : int
        Number of multiplexed users. User 1 is the far user.
    sigma2 : float
        Per-element Rayleigh parameter; each hop magnitude has
        E[r^2] = 2 * sigma2.
    alpha : float
        Path-loss exponent.
    d_B : float
        Base-to-surface distance.
    d_R : tuple of float
        Surface-to-user distances, strictly decreasing (far user first).
    P : tuple of float
        Power allocation, strictly decreasing, summing to one.
    N0 : float
        Noise spectral density. The mean SNR is 1 / N0.
    constellation : tuple of tuple of float
        Per-user symbol alphabets, each with unit average energy.
    """

    M: int
    L: int = 2
    sigma2: float = 0.5
    alpha: float = 3.0
    d_B: float = 1.0
    d_R: tuple = (5.0, 2.0)
    P: tuple = (0.8, 0.2)
    N0: float = 1.0
    constellation: tuple = (BPSK, BPSK)

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be a positive integer")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "d_R", tuple(float(d) for d in self.d_R))
        object.__setattr__(self, "P", tuple(float(p) for p in self.P))
        object.__setattr__(
            self, "constellation",
            tuple(tuple(float(s) for s in c) for c in self.constellation))
        if self.L != len(self.d_R) or self.L != len(self.P):
            raise ValueError("L, d_R and P must agree in length")
        if self.L != len(self.constellation):
            raise ValueError("one constellation per user is required")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.alpha <= 0 or self.d_B <= 0 or self.N0 <= 0:
            raise ValueError("alpha, d_B and N0 must be positive")
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

    def distance_factor(self, user: int) -> float:
        """Combined path-loss factor d_B^alpha * d_R^alpha for one user."""
        self._check_user(user)
        return (self.d_B ** self.alpha) * (self.d_R[user - 1] ** self.alpha)

    def snr_db(self) -> float:
        return -10.0 * math.log10(self.N0)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        return dataclasses.replace(self, N0=10.0 ** (-snr_db / 10.0))

    def replace(self, **kw) -> "SystemConfig":
        return dataclasses.replace(self, **kw)

    def _check_user(self, user: int):
        if not 1 <= user <= self.L:
            raise ValueError(f"user must be in 1..{self.L}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["d_R"] = list(self.d_R)
        d["P"] = list(self.P)
        d["constellation"] = [list(c) for c in self.constellation]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        return cls.from_dict(json.loads(text))


def default_config(M: int = 3, **kw) -> SystemConfig:
    """Reference two-user scenario used throughout the tests and demos."""
    return SystemConfig(M=M, **kw)


def load_scenario(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return SystemConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class SnrGrid:
    """Strictly increasing grid of finite mean SNR points, in dB."""

    db: tuple

    def __post_init__(self):
        pts = tuple(float(x) for x in self.db)
        if len(pts) == 0:
            raise ValueError("empty grid")
        if not all(math.isfinite(p) for p in pts):
            raise ValueError("SNR points must be finite")
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

    def __len__(self):
        return len(self.db)


DEFAULT_GRID = SnrGrid.from_range_db(0.0, 40.0, 2.0)
