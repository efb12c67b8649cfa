"""Pairwise error probabilities for the superposed downlink.

An error event fixes the transmitted symbol tuple, the detector's wrong
hypothesis for one user, and the SIC decisions for the users detected
before it. The event collapses into two scalars: the signal projection
``vartheta`` and the noise scale ``lambda``. Conditioned on the channel
gain q, the pairwise probability is Q(q * vartheta / lambda); averaging
over a density model for q gives the closed forms here.

All closed forms are Chernoff-type upper bounds driven by vartheta**2,
so they are sign-blind: events with vartheta <= 0 (interference aligned
against the decision) are flagged, since for those the exact conditional
probability exceeds one half while the bound stays small.

Callers pick a form directly, ``pep_m1`` at M = 1 and ``pep_general``
otherwise; the CLI keeps the one table from method names to forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp

from ._util import gauss_legendre_panels
from .config import SystemConfig
from .pdf_approx import (CltParams, GParams, clt_params, fit_gparams, pdf_clt,
                         pdf_double_rayleigh, pdf_g, quadrature_domain)
from .specfun import meijer_g_1443_log, q_function

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


@lru_cache(maxsize=256)
def _fit(M: int, sigma2: float) -> GParams:
    return fit_gparams(M, sigma2)


@lru_cache(maxsize=256)
def _clt(M: int, sigma2: float) -> CltParams:
    return clt_params(M, sigma2)


@dataclass(frozen=True)
class ErrorEvent:
    """One pairwise error hypothesis, reduced to its scalar form."""

    user: int
    x: tuple
    xbar: float
    sic_errors: tuple   # residual delta_i = x_i - xhat_i, users before l
    delta_bar: float
    X: float
    vartheta: float
    lam: float          # noise scale at the config's own N0

    @property
    def flagged(self) -> bool:
        # sign-blind closed forms do not upper-bound these events
        return self.vartheta <= 0

    def lam_at(self, N0: float) -> float:
        return abs(self.delta_bar) * math.sqrt(2.0 * N0)


def build_event(config: SystemConfig, user: int, x: Sequence[float],
                xbar: float, sic_errors: Optional[Sequence[float]] = None
                ) -> ErrorEvent:
    """Assemble an error event for one user.

    ``x`` is the full transmitted tuple, ``xbar`` the wrong hypothesis for
    this user's symbol, and ``sic_errors`` the cancellation residuals
    delta_i = x_i - xhat_i for users 1..user-1 (default: perfect
    cancellation, all zero). Each residual must be realizable, i.e.
    x_i - delta_i must be a constellation point.
    """
    config._check_user(user)
    x = tuple(float(v) for v in x)
    if len(x) != config.L:
        raise ValueError("x must list one symbol per user")
    for j, (v, c) in enumerate(zip(x, config.constellation), start=1):
        if all(abs(v - s) > 1e-12 for s in c):
            raise ValueError(f"symbol {v} is not in user {j}'s constellation")
    if sic_errors is None:
        sic_errors = (0.0,) * (user - 1)
    sic_errors = tuple(float(v) for v in sic_errors)
    if len(sic_errors) != user - 1:
        raise ValueError("sic_errors must cover users 1..user-1")
    for i, d in enumerate(sic_errors):
        xhat = x[i] - d
        if all(abs(xhat - s) > 1e-12 for s in config.constellation[i]):
            raise ValueError(f"residual {d} is not realizable for user {i+1}")

    delta_bar = x[user - 1] - float(xbar)
    if delta_bar == 0:
        raise ValueError("the wrong hypothesis must differ from the symbol")

    roots = [math.sqrt(p) for p in config.P]
    X = 0.0
    for i in range(user - 1):
        X += roots[i] * sic_errors[i]
    for j in range(user, config.L):
        X += roots[j] * x[j]

    vartheta = roots[user - 1] * delta_bar ** 2 + 2.0 * delta_bar * X
    lam = abs(delta_bar) * math.sqrt(2.0 * config.N0)
    return ErrorEvent(user=user, x=x, xbar=float(xbar),
                      sic_errors=sic_errors, delta_bar=delta_bar, X=X,
                      vartheta=vartheta, lam=lam)


def pep_conditional(q, event: ErrorEvent, exact: bool = True,
                    N0: Optional[float] = None):
    """Pairwise probability conditioned on the channel gain q.

    The exact path keeps the sign of vartheta (opposed interference gives
    values above one half); the Chernoff path is sign-blind.
    """
    lam = event.lam if N0 is None else event.lam_at(N0)
    q = np.asarray(q, dtype=float)
    if exact:
        return q_function(q * event.vartheta / lam)
    return np.exp(-(q * event.vartheta) ** 2 / (2.0 * lam * lam))


@dataclass(frozen=True)
class PepValue:
    value: float         # clipped to [0, 1]
    raw: float           # unclipped bound
    log_raw: float
    method: str
    flagged: bool


def _resolve_n0(config: SystemConfig, snr_db: Optional[float]) -> float:
    if snr_db is None:
        return config.N0
    return 10.0 ** (-float(snr_db) / 10.0)


def _finish(raw_log: float, method: str, event: ErrorEvent) -> PepValue:
    raw = math.exp(raw_log) if raw_log < 700 else math.inf
    return PepValue(value=min(1.0, raw), raw=raw, log_raw=raw_log,
                    method=method, flagged=event.flagged)


def _chernoff_args(p: GParams, D: float, events: Sequence[ErrorEvent],
                   N0: Sequence[float]):
    """Kernel argument zeta of each (event, N0) pair, and the log scale.

    The general-M Chernoff bound is exp(log_k) * G(zeta) with the
    averaged kernel G; ``p`` is the fit and ``D`` the distance factor.
    """
    zeta = np.array([2.0 * p.a2 ** 2 * ev.vartheta ** 2
                     / (D * (2.0 * n0 * ev.delta_bar ** 2))
                     for ev, n0 in zip(events, N0)])
    if np.any(zeta <= 0):
        raise ValueError("degenerate event: vartheta is zero")
    log_k = (p.log_a1 + math.log(p.a2) + (p.a6 - p.a3) * _LN2 - 0.5 * _LNPI)
    return zeta, log_k


def _log_pep_general(config: SystemConfig, user: int,
                     events: Sequence[ErrorEvent],
                     N0: Sequence[float]) -> np.ndarray:
    """Log of the general-M Chernoff bound for each (event, N0) pair.

    All pairs go to the averaged kernel in one call.
    """
    p = _fit(config.M, config.sigma2)
    zeta, log_k = _chernoff_args(p, config.distance_factor(user), events, N0)
    log_g, sign, _ = meijer_g_1443_log(zeta, p.a3, p.a4, p.a5)
    if np.any(sign <= 0):
        raise ValueError("kernel evaluation lost positivity")
    return log_k + log_g


def pep_general(config: SystemConfig, user: int, event: ErrorEvent,
                snr_db: Optional[float] = None) -> PepValue:
    """Closed-form Chernoff bound for any M, via the averaged kernel."""
    N0 = _resolve_n0(config, snr_db)
    log_raw = _log_pep_general(config, user, [event], [N0])[0]
    return _finish(float(log_raw), "general", event)


def pep_m1(config: SystemConfig, user: int, event: ErrorEvent,
           snr_db: Optional[float] = None) -> PepValue:
    """Exact Chernoff average against the single-element density."""
    if config.M != 1:
        raise ValueError("this form holds only for a single element")
    if event.vartheta == 0:
        raise ValueError("vartheta must be nonzero")
    N0 = _resolve_n0(config, snr_db)
    lam2 = 2.0 * N0 * event.delta_bar ** 2
    D = config.distance_factor(user)
    eta = lam2 * D / (2.0 * config.sigma2 ** 2 * event.vartheta ** 2)
    return _finish(math.log(_eta_exp_e1(eta)), "m1", event)


def _eta_exp_e1(eta: float) -> float:
    """eta * exp(eta) * E1(eta), stable for large eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eta < 30.0:
        return eta * math.exp(eta) * float(sp.exp1(eta))
    # divergent asymptotic series, truncated at its smallest term
    acc = 1.0
    term = 1.0
    for k in range(1, 25):
        nxt = term * k / eta
        if nxt >= abs(term) and k > 2:
            break
        term = nxt
        acc += term if k % 2 == 0 else -term
    return acc


def pep_clt(config: SystemConfig, user: int, event: ErrorEvent,
            snr_db: Optional[float] = None,
            variant: str = "scaled") -> PepValue:
    """Gaussian-limit Chernoff bound, intended for M above 10.

    Two published variants of the same bound exist; they differ in
    whether the distance product enters the quadratic coefficient. The
    ``scaled`` variant is the one that matches the quadrature oracle; the
    ``unscaled`` variant is kept for the adjudication tests.
    """
    if event.vartheta == 0:
        raise ValueError("vartheta must be nonzero")
    N0 = _resolve_n0(config, snr_db)
    lam2 = 2.0 * N0 * event.delta_bar ** 2
    D = config.distance_factor(user)
    cp = _clt(config.M, config.sigma2)
    mu, var = cp.mu_bar, cp.sigma_bar2
    th2 = event.vartheta ** 2

    if variant == "scaled":
        xi = (th2 * var + D * lam2) / (2.0 * var * lam2)
        arg = D * mu * mu / (4.0 * xi * var * var)
        log_raw = (0.5 * (math.log(D) - math.log(8.0 * xi * var))
                   + arg - mu * mu / (2.0 * var)
                   + math.log1p(float(sp.erf(math.sqrt(arg)))))
    elif variant == "unscaled":
        xi = (th2 * var + lam2) / (2.0 * var * lam2)
        arg = mu * mu / (4.0 * xi * var * var)
        log_raw = (-0.5 * math.log(8.0 * xi * var)
                   + arg - mu * mu / (2.0 * var)
                   + math.log1p(float(sp.erf(math.sqrt(arg)))))
    else:
        raise ValueError("variant must be 'scaled' or 'unscaled'")

    # M <= 10 is outside the intended regime; the method tag says so
    small = "-small-M" if config.M <= 10 else ""
    return _finish(log_raw, f"clt-{variant}{small}", event)


def pep_quadrature(config: SystemConfig, user: int, event: ErrorEvent,
                   snr_db: Optional[float] = None, pdf_model: str = "g",
                   kernel: str = "chernoff", abs_tol: float = 1e-10) -> float:
    """Reference numerical average of the conditional probability.

    This is the referee for every closed form. ``pdf_model`` selects the
    density of the scaled gain: the fitted ``g``, the exact single-element
    ``dr`` (M = 1 only) or the Gaussian ``clt``. Integration runs over the
    half line [0, hi] with hi leaving under 1e-9 of mass outside, on a mesh
    graded geometrically toward 0, where the M <= 3 fitted density
    oscillates log-periodically. Raises ConvergenceError if the mesh reaches its
    panel cap before meeting ``abs_tol``.
    """
    if kernel not in ("chernoff", "exact"):
        raise ValueError("kernel must be 'chernoff' or 'exact'")
    N0 = _resolve_n0(config, snr_db)
    D = config.distance_factor(user)

    # partial looks each density up here, so a replaced module attribute
    # (a tracing wrapper, say) is the one that runs
    if pdf_model == "g":
        density = partial(pdf_g, params=_fit(config.M, config.sigma2), D=D)
    elif pdf_model == "dr":
        if config.M != 1:
            raise ValueError("the exact single-element density needs M = 1")
        density = partial(pdf_double_rayleigh, sigma2=config.sigma2, D=D)
    elif pdf_model == "clt":
        density = partial(pdf_clt, params=_clt(config.M, config.sigma2), D=D)
    else:
        raise ValueError("unknown pdf model")

    hi = quadrature_domain(config.M, config.sigma2, D)
    exact = kernel == "exact"
    return gauss_legendre_panels(
        lambda x: pep_conditional(x, event, exact, N0) * density(x), 0.0, hi,
        abs_tol=abs_tol)
