"""High-SNR behavior: four-term PEP expansion and diversity order.

The averaged-kernel bound decays like a sum of four power laws whose
exponents come from the fitted shape parameters. The leading exponent is
the diversity order; distance enters the bound only as a scale factor, so
the slope itself is distance-independent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy import special as sp

from .config import SystemConfig
# pep_m1 is reached by name, through closed_form
from .pep import (ErrorEvent, _fit, _resolve_n0, closed_form,
                  pep_general, pep_m1)
from .specfun import _nonpositive_int

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


@dataclass(frozen=True)
class AsymptoticPep:
    value: float
    raw: float
    terms: tuple            # complex contribution of each pole family
    exponents: tuple        # the four zeta powers, leading first
    coincident: bool        # Gamma-pole coincidence among the coefficients
    fell_back: bool         # True when the contour value was used instead

    def __float__(self) -> float:
        return self.value


def pep_asymptotic(config: SystemConfig, user: int, event: ErrorEvent,
                   snr_db: Optional[float] = None) -> AsymptoticPep:
    """Leading four-term expansion of the averaged Chernoff bound.

    Each term is the first residue of one pole family of the kernel
    transform. Parameter coincidences put Gamma poles into the
    coefficients; those are reported and the exact contour value is
    returned instead of a masked evaluation.
    """
    N0 = _resolve_n0(config, snr_db)
    lam2 = 2.0 * N0 * event.delta_bar ** 2
    D = config.distance_factor(user)
    p = _fit(config.M, config.sigma2)
    zeta = 2.0 * p.a2 ** 2 * event.vartheta ** 2 / (D * lam2)
    if zeta <= 0:
        raise ValueError("degenerate event: vartheta is zero")

    a3, a4, a5 = complex(p.a3), complex(p.a4), complex(p.a5)
    poles = (1 + a4 / 2, (1 + a4) / 2, 1 + a5 / 2, (1 + a5) / 2)
    order = sorted(range(4), key=lambda i: poles[i].real)

    coincident = False
    for j in range(4):
        for i in range(4):
            if i != j and _nonpositive_int(poles[i] - poles[j], 1e-9):
                coincident = True

    if coincident:
        exact = pep_general(config, user, event, snr_db=snr_db)
        return AsymptoticPep(value=exact.value, raw=exact.raw, terms=(),
                             exponents=tuple(poles[i] for i in order),
                             coincident=True, fell_back=True)

    log_k = (p.log_a1 + math.log(p.a2) + (p.a6 - p.a3) * _LN2 - 0.5 * _LNPI)
    lz = math.log(zeta)
    terms = []
    for j in range(4):
        qj = poles[j]
        lg = complex(sp.loggamma(qj)) - qj * lz
        for i in range(4):
            if i != j:
                lg += complex(sp.loggamma(poles[i] - qj))
        lg -= complex(sp.loggamma(1 + a3 / 2 - qj))
        lg -= complex(sp.loggamma((1 + a3) / 2 - qj))
        terms.append(cmath.exp(log_k + lg))

    total = sum(terms)
    mag = sum(abs(t) for t in terms)
    if mag > 0 and abs(total.imag) > 1e-8 * max(abs(total.real), mag * 1e-8):
        raise ArithmeticError("expansion lost conjugate symmetry")
    raw = total.real
    return AsymptoticPep(value=min(1.0, max(raw, 0.0)), raw=raw,
                         terms=tuple(terms),
                         exponents=tuple(poles[i] for i in order),
                         coincident=False, fell_back=False)


@dataclass(frozen=True)
class DiversityReport:
    user: int
    M: int
    analytic: float
    numeric: float
    rel_err: float
    grid_db: tuple
    branch: str             # which shape parameter sets the slope
    probe_note: str

    def to_dict(self) -> dict:
        return {
            "user": self.user, "M": self.M, "analytic": self.analytic,
            "numeric": self.numeric, "rel_err": self.rel_err,
            "grid_db": list(self.grid_db), "branch": self.branch,
            "probe_note": self.probe_note,
        }


def analytic_diversity(M: int, sigma2: float) -> float:
    """Slope of the PEP decay: smaller shape exponent over two, plus half."""
    p = _fit(M, sigma2)
    return min(p.a4.real, p.a5.real) / 2.0 + 0.5


def _normalized_probe(config: SystemConfig, user: int) -> SystemConfig:
    # unit distance product for the probed user; slope is scale-free, and
    # the unscaled channel reaches its asymptote inside a desk-size grid
    ref = config.d_R[user - 1]
    d_r = tuple(d / ref for d in config.d_R)
    return config.replace(d_B=1.0, d_R=d_r)


def _max_vartheta_event(config: SystemConfig, user: int) -> ErrorEvent:
    from .union_bound import enumerate_events
    events = enumerate_events(config, user).events
    return max(events, key=lambda e: e.vartheta)


def diversity_order(config: SystemConfig, user: int,
                    grid_db: Sequence[float] = (35.0, 45.0)
                    ) -> DiversityReport:
    """Analytic diversity order plus a log-log secant cross-check.

    The numeric slope is measured on a distance-normalized copy of the
    scenario (slope is distance-independent; normalizing just moves the
    asymptotic regime inside the grid) using the largest-projection error
    event for the user.
    """
    config._check_user(user)
    p = _fit(config.M, config.sigma2)
    analytic = analytic_diversity(config.M, config.sigma2)
    branch = "complex-pair" if p.complex_pair else (
        "a5" if p.a5.real < p.a4.real else "a4")

    probe = _normalized_probe(config, user)
    event = _max_vartheta_event(probe, user)
    lo, hi = min(grid_db), max(grid_db)
    f = closed_form("auto", config.M, globals())
    p_lo = f(probe, user, event, snr_db=lo)
    p_hi = f(probe, user, event, snr_db=hi)
    numeric = ((math.log10(p_lo.raw) - math.log10(p_hi.raw))
               / ((hi - lo) / 10.0))
    rel = abs(numeric - analytic) / analytic
    note = ("slope measured at unit distance product; the distance factor "
            "scales the bound without changing its decay exponent")
    return DiversityReport(user=user, M=config.M, analytic=analytic,
                           numeric=numeric, rel_err=rel,
                           grid_db=(lo, hi), branch=branch, probe_note=note)
