"""Pairwise error probabilities for the superposed downlink.

An error event fixes the transmitted symbol tuple, the detector's wrong
hypothesis for one user, and the SIC decisions for the users detected
before it. The event collapses into two scalars: the signal projection
``vartheta`` and the hypothesis gap ``delta_bar``, which sets the noise
scale lambda = |delta_bar| sqrt(2 N0) at each SNR point. Conditioned on
the channel gain q, the pairwise probability is Q(q * vartheta / lambda);
averaging over a density model for q gives the closed forms here. Every
form takes its SNR point as a required argument.

All closed forms are Chernoff-type upper bounds driven by vartheta**2,
so they are sign-blind: events with vartheta <= 0 (interference aligned
against the decision) are flagged, since for those the exact conditional
probability exceeds one half while the bound stays small.

Callers pick a form directly, ``pep_m1`` at M = 1 and ``pep_general``
otherwise; the CLI keeps the one table from method names to forms.
"""

from __future__ import annotations

import collections
import math
import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import _special as sp
from ._util import gauss_legendre_panels
from .config import SystemConfig, _resolve_n0
from .moments import analytic_moments
from .pdf_approx import (GParams, fit_gparams, pdf_clt, pdf_double_rayleigh,
                         pdf_g, quadrature_domain)
from .specfun import meijer_g_1443_log

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
_MAX_TABLE_VALUES = 1 << 20   # floats kept in _TABLES, nodes and values: 8 MB

# (pdf model, M, sigma2, D, node count) -> (nodes, density at the nodes)
# for the quadrature meshes, least recently used first
_TABLES = collections.OrderedDict()
_TABLES_LOCK = threading.Lock()


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
    return ErrorEvent(user=user, x=x, xbar=float(xbar),
                      sic_errors=sic_errors, delta_bar=delta_bar, X=X,
                      vartheta=vartheta)


def pep_conditional(q, event: ErrorEvent, N0: float, exact: bool = True):
    """Pairwise probability conditioned on the channel gain q, at noise N0.

    The exact path keeps the sign of vartheta (opposed interference gives
    values above one half); the Chernoff path is sign-blind.
    """
    lam = event.lam_at(N0)
    q = np.asarray(q, dtype=float)
    if exact:
        # Q(q vartheta / lam) = 0.5 erfc(q vartheta / lam / sqrt(2)): these
        # operations in this order, in place on one new array
        x = np.multiply(q, event.vartheta, out=np.empty_like(q))
        x /= lam
        x /= math.sqrt(2.0)
        sp.erfc(x, out=x)
        x *= 0.5
        return x[()]
    return np.exp(-(q * event.vartheta) ** 2 / (2.0 * lam * lam))


@dataclass(frozen=True)
class PepValue:
    value: float         # clipped to [0, 1]
    raw: float           # unclipped bound
    log_raw: float
    method: str
    flagged: bool


def _distance_factor(config: SystemConfig, user: int, *events) -> float:
    """The user's distance factor; raises if an event is another user's."""
    D = config.distance_factor(user)
    if any(ev.user != user for ev in events):
        raise ValueError("error event is for a different user")
    return D


def _raw(raw_log: float) -> float:
    """The raw bound of a log: exp(raw_log), or inf from a log of 700 up."""
    return math.exp(raw_log) if raw_log < 700 else math.inf


def _finish(raw_log: float, method: str, event: ErrorEvent) -> PepValue:
    raw = _raw(raw_log)
    return PepValue(value=min(1.0, raw), raw=raw, log_raw=raw_log,
                    method=method, flagged=event.flagged)


def _chernoff_args(p: GParams, D: float, events: Sequence[ErrorEvent],
                   N0: Sequence[float]):
    """Kernel argument zeta of each (event, N0) pair, and the log scale.

    The general-M Chernoff bound is exp(log_k) * G(zeta) with the
    averaged kernel G; ``p`` is the fit and ``D`` the distance factor.
    """
    zeta = [2.0 * p.a2 ** 2 * ev.vartheta ** 2
            / (D * (2.0 * n0 * ev.delta_bar ** 2))
            for ev, n0 in zip(events, N0)]
    if any(z <= 0 for z in zeta):
        raise ValueError("degenerate event: vartheta is zero")
    log_k = (p.log_a1 + math.log(p.a2) + (p.a6 - p.a3) * _LN2 - 0.5 * _LNPI)
    return np.array(zeta), log_k


def _log_pep_general(config: SystemConfig, user: int,
                     events: Sequence[ErrorEvent],
                     N0: Sequence[float]) -> np.ndarray:
    """Log of the general-M Chernoff bound for each (event, N0) pair.

    All pairs go to the averaged kernel in one call.
    """
    p = fit_gparams(config.M, config.sigma2)
    zeta, log_k = _chernoff_args(p, _distance_factor(config, user, *events),
                                 events, N0)
    log_g, sign, _ = meijer_g_1443_log(zeta, p.a3, p.a4, p.a5)
    if np.any(sign <= 0):
        raise ValueError("kernel evaluation lost positivity")
    return log_k + log_g


def pep_general(config: SystemConfig, user: int, event: ErrorEvent,
                snr_db: float) -> PepValue:
    """Closed-form Chernoff bound for any M, via the averaged kernel."""
    N0 = _resolve_n0(snr_db)
    log_raw = _log_pep_general(config, user, [event], [N0])[0]
    return _finish(float(log_raw), "general", event)


def pep_m1(config: SystemConfig, user: int, event: ErrorEvent,
           snr_db: float) -> PepValue:
    """Exact Chernoff average against the single-element density."""
    if config.M != 1:
        raise ValueError("this form holds only for a single element")
    if event.vartheta == 0:
        raise ValueError("vartheta must be nonzero")
    N0 = _resolve_n0(snr_db)
    lam2 = 2.0 * N0 * event.delta_bar ** 2
    D = _distance_factor(config, user, event)
    eta = lam2 * D / (2.0 * config.sigma2 ** 2 * event.vartheta ** 2)
    return _finish(math.log(_eta_exp_e1(eta)), "m1", event)


def _eta_exp_e1(eta: float) -> float:
    """eta * exp(eta) * E1(eta), stable for large eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eta < 50.0:
        # direct product: within 1e-15 relative up to here, no overflow
        return eta * math.exp(eta) * float(sp.exp1(eta))
    # divergent asymptotic series, truncated after 24 terms: from eta = 50
    # each term is k / eta < 1 times the last, and the 24th falls below
    # 1e-17 relative
    acc = 1.0
    term = 1.0
    for k in range(1, 25):
        term = term * k / eta
        acc += term if k % 2 == 0 else -term
    return acc


def pep_clt(config: SystemConfig, user: int, event: ErrorEvent,
            snr_db: float) -> PepValue:
    """Gaussian-limit Chernoff bound, intended for M above 10.

    Two published readings of the same bound exist; they differ in
    whether the distance product enters the quadratic coefficient. This
    is the scaled reading, the one that matches the quadrature oracle.
    The unscaled reading is this formula at unit distance product; check
    10 of the validation suite takes it from a unit-distance copy of the
    scenario and reports both.
    """
    if event.vartheta == 0:
        raise ValueError("vartheta must be nonzero")
    N0 = _resolve_n0(snr_db)
    lam2 = 2.0 * N0 * event.delta_bar ** 2
    D = _distance_factor(config, user, event)
    mom = analytic_moments(config.M, config.sigma2)
    mu, var = mom.mu1, mom.variance
    th2 = event.vartheta ** 2

    xi = (th2 * var + D * lam2) / (2.0 * var * lam2)
    arg = D * mu * mu / (4.0 * xi * var * var)
    log_raw = (0.5 * (math.log(D) - math.log(8.0 * xi * var))
               + arg - mu * mu / (2.0 * var)
               + math.log1p(float(sp.erf(math.sqrt(arg)))))

    # M <= 10 is outside the intended regime; the method tag says so
    small = "-small-M" if config.M <= 10 else ""
    return _finish(log_raw, f"clt-scaled{small}", event)


def pep_quadrature(config: SystemConfig, user: int, event: ErrorEvent,
                   snr_db: float, pdf_model: str = "g",
                   kernel: str = "chernoff", abs_tol: float = 1e-10) -> float:
    """Reference numerical average of the conditional probability.

    This is the referee for every closed form. ``pdf_model`` names the
    density of the scaled gain (see ``_density``). Integration runs over the
    half line [0, hi] with hi leaving under 1e-9 of mass outside, on a mesh
    graded geometrically toward 0, where the M <= 3 fitted density
    oscillates log-periodically. Raises ConvergenceError if the mesh reaches its
    panel cap before meeting ``abs_tol``, and ValueError on the first mesh
    where the density is not finite. The density on each mesh is kept
    for later calls on the same density (see ``_tabulated``), so a sweep
    over SNR points or events evaluates it once per mesh.
    """
    if kernel not in ("chernoff", "exact"):
        raise ValueError("kernel must be 'chernoff' or 'exact'")
    N0 = _resolve_n0(snr_db)
    D = _distance_factor(config, user, event)

    density = _density(pdf_model, config, D)
    hi = quadrature_domain(config.M, config.sigma2, D)
    exact = kernel == "exact"
    key = (pdf_model, config.M, config.sigma2, D)
    return gauss_legendre_panels(
        lambda x: (pep_conditional(x, event, N0, exact)
                   * _tabulated(key, density, x)), 0.0, hi, abs_tol=abs_tol)


def _density(model: str, config: SystemConfig, D: float):
    """Density of the scaled gain for a model name, at distance factor D.

    The one table of names that ``pep_quadrature`` and ``lisnoma pdf``
    share: the fitted ``g``, the exact ``dr`` (M = 1 only), the Gaussian
    ``clt``. The callable raises ValueError when any value it would
    return is not finite, as the fitted density's is at M = 128.
    """
    # partial looks each density up here, so a replaced module attribute
    # (a tracing wrapper, say) is the one that runs
    if model == "g":
        label = "fitted"
        f = partial(pdf_g, params=fit_gparams(config.M, config.sigma2), D=D)
    elif model == "dr":
        if config.M != 1:
            raise ValueError("the exact single-element density needs M = 1")
        label = "exact single-element"
        f = partial(pdf_double_rayleigh, sigma2=config.sigma2, D=D)
    elif model == "clt":
        label = "Gaussian"
        f = partial(pdf_clt,
                    moments=analytic_moments(config.M, config.sigma2), D=D)
    else:
        raise ValueError("unknown pdf model")

    def density(x):
        fx = f(x)
        bad = np.size(fx) - np.count_nonzero(np.isfinite(fx))
        if bad:
            raise ValueError(
                f"the {label} density is not finite at {bad} of "
                f"{np.size(fx)} points (M = {config.M})")
        return fx
    return density


def _tabulated(key, density, x):
    """density(x) on one whole quadrature mesh, from _TABLES when it is there.

    The mesh and the density do not depend on the SNR point or the event,
    so every call on one (model, M, sigma2, D) visits the same meshes. A
    lookup hits only when ``x`` equals the stored nodes element for
    element; a miss evaluates the density on the whole of ``x``, as a
    call without the memo would, because a kernel value can depend on the
    points that share its batch. The memo keeps at most _MAX_TABLE_VALUES
    floats and drops the least recently used mesh.
    """
    key = key + (x.size,)
    with _TABLES_LOCK:
        hit = _TABLES.get(key)
        if hit is not None and np.array_equal(hit[0], x):
            _TABLES.move_to_end(key)
            return hit[1]
    fx = density(x)
    if 2 * x.size <= _MAX_TABLE_VALUES:
        nodes = x.copy()
        nodes.flags.writeable = fx.flags.writeable = False
        with _TABLES_LOCK:
            _TABLES.pop(key, None)
            kept = 2 * x.size + sum(2 * v[0].size for v in _TABLES.values())
            while kept > _MAX_TABLE_VALUES:
                kept -= 2 * _TABLES.popitem(last=False)[1][0].size
            _TABLES[key] = (nodes, fx)
    return fx
