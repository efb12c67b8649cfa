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
from functools import lru_cache
from typing import Sequence

from . import _special as sp
from .config import SystemConfig, _resolve_n0
from .pdf_approx import fit_gparams
from .pep import (ErrorEvent, _chernoff_args, _distance_factor, pep_general,
                  pep_m1)
from .specfun import _nonpositive_int, _offsets_1443
from .union_bound import enumerate_events


@dataclass(frozen=True)
class AsymptoticPep:
    """Four-term expansion of the averaged Chernoff bound at one point."""

    value: float
    raw: float
    terms: tuple            # complex contribution of each pole family
    exponents: tuple        # the four zeta powers, leading first
    coincident: bool        # Gamma poles coincide: no terms, the contour value

    @property
    def clipped(self) -> bool:
        """``raw`` fell outside [0, 1], so ``value`` is not ``raw``."""
        return self.value != self.raw


@lru_cache(maxsize=64)
def _expansion(a3, a4, a5):
    """The part of the four-term expansion that depends on the fit alone.

    Returns the exponents (leading first), whether two pole families
    coincide, and for each pole q_j the Gamma factors of its residue's
    coefficient as logs: log Gamma(q_j), the log Gamma(q_i - q_j) of the
    other three poles and the log Gamma(d - q_j) of the two denominator
    factors. A coincident fit has no coefficients.
    """
    _, poles, den = _offsets_1443(a3, a4, a5)
    exponents = tuple(sorted(poles, key=lambda q: q.real))
    if any(i != j and _nonpositive_int(poles[i] - poles[j], 1e-9)
           for j in range(4) for i in range(4)):
        return exponents, True, ()
    coefficients = tuple(
        (qj, complex(sp.loggamma(qj)),
         tuple(complex(sp.loggamma(poles[i] - qj)) for i in range(4)
               if i != j),
         tuple(complex(sp.loggamma(d - qj)) for d in den))
        for j, qj in enumerate(poles))
    return exponents, False, coefficients


def pep_asymptotic(config: SystemConfig, user: int, event: ErrorEvent,
                   snr_db: float) -> AsymptoticPep:
    """Leading four-term expansion of the averaged Chernoff bound.

    Each term is the first residue of one pole family of the kernel
    transform. Parameter coincidences put Gamma poles into the
    coefficients; those are reported and the exact contour value is
    returned instead of a masked evaluation. Raises ValueError where a
    term overflows float64, which happens far below the SNR range the
    expansion is meant for. The coefficients' Gamma factors depend on
    the fit alone and are taken once per fit (see ``_expansion``); each
    point adds them to its own zeta power in the same order.
    """
    N0 = _resolve_n0(snr_db)
    p = fit_gparams(config.M, config.sigma2)
    zeta, log_k = _chernoff_args(p, _distance_factor(config, user, event),
                                 [event], [N0])
    exponents, coincident, coefficients = _expansion(p.a3, p.a4, p.a5)

    if coincident:
        exact = pep_general(config, user, event, snr_db=snr_db)
        return AsymptoticPep(value=exact.value, raw=exact.raw, terms=(),
                             exponents=exponents, coincident=True)

    lz = math.log(zeta[0])
    terms = []
    for qj, lg_qj, lg_gaps, lg_den in coefficients:
        lg = lg_qj - qj * lz
        for g in lg_gaps:
            lg += g
        for g in lg_den:
            lg -= g
        try:
            terms.append(cmath.exp(log_k + lg))
        except OverflowError:
            raise ValueError(
                f"four-term expansion overflows float64 at {snr_db:g} dB: a "
                f"term's log magnitude is {(log_k + lg).real:.6g}") from None

    total = sum(terms)
    mag = sum(abs(t) for t in terms)
    if mag > 0 and abs(total.imag) > 1e-8 * max(abs(total.real), mag * 1e-8):
        raise ArithmeticError("expansion lost conjugate symmetry")
    raw = total.real
    return AsymptoticPep(value=min(1.0, max(raw, 0.0)), raw=raw,
                         terms=tuple(terms), exponents=exponents,
                         coincident=False)


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


def analytic_diversity(M: int, sigma2: float) -> float:
    """Slope of the PEP decay: smaller shape exponent over two, plus half."""
    return fit_gparams(M, sigma2).min_lower_real / 2.0 + 0.5


def _normalized_probe(config: SystemConfig, user: int) -> SystemConfig:
    # unit distance product for the probed user; slope is scale-free, and
    # the unscaled channel reaches its asymptote inside a desk-size grid
    ref = config.d_R[user - 1]
    d_r = tuple(d / ref for d in config.d_R)
    return config.replace(d_B=1.0, d_R=d_r)


def _max_vartheta_event(config: SystemConfig, user: int) -> ErrorEvent:
    return max(enumerate_events(config, user), key=lambda e: e.vartheta)


def diversity_order(config: SystemConfig, user: int,
                    grid_db: Sequence[float] = (35.0, 45.0)
                    ) -> DiversityReport:
    """Analytic diversity order plus a log-log secant cross-check.

    The numeric slope is measured on a distance-normalized copy of the
    scenario (slope is distance-independent; normalizing just moves the
    asymptotic regime inside the grid) using the largest-projection error
    event for the user. Raises ValueError when ``grid_db`` holds fewer
    than two distinct points, and where the bound underflows float64 at
    a grid point, as the default grid's 45 dB point does from M = 64 on.
    """
    config._check_user(user)
    lo = min(grid_db, default=math.nan)
    hi = max(grid_db, default=math.nan)
    if not lo < hi:         # no grid, one distinct point, or a NaN end
        raise ValueError(f"the secant grid {tuple(grid_db)} (dB) needs two "
                         f"distinct points")
    p = fit_gparams(config.M, config.sigma2)
    analytic = analytic_diversity(config.M, config.sigma2)
    branch = "complex-pair" if p.complex_pair else (
        "a5" if p.a5.real < p.a4.real else "a4")

    probe = _normalized_probe(config, user)
    event = _max_vartheta_event(probe, user)
    f = pep_m1 if config.M == 1 else pep_general
    p_lo = f(probe, user, event, snr_db=lo)
    p_hi = f(probe, user, event, snr_db=hi)
    for snr, pv in ((lo, p_lo), (hi, p_hi)):
        if pv.raw <= 0:
            raise ValueError(
                f"the bound underflows float64 at the grid point {snr:g} dB "
                f"(its log is {pv.log_raw:.6g}), so the secant slope has "
                f"no value there; use a lower grid")
    numeric = ((math.log10(p_lo.raw) - math.log10(p_hi.raw))
               / ((hi - lo) / 10.0))
    rel = abs(numeric - analytic) / analytic
    note = ("slope measured at unit distance product; the distance factor "
            "scales the bound without changing its decay exponent")
    return DiversityReport(user=user, M=config.M, analytic=analytic,
                           numeric=numeric, rel_err=rel,
                           grid_db=(lo, hi), branch=branch, probe_note=note)
