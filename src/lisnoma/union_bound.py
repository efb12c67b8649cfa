"""Union bound on the symbol error rate from enumerated pairwise events.

The enumeration walks every transmitted tuple, every wrong hypothesis for
the target user, and every realizable SIC decision for the users detected
first, so imperfect cancellation is represented by explicit events rather
than a separate model. ``union_bound_curve`` is the one evaluation: a
bound at a single SNR point is a one-point curve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .config import SystemConfig
# pep_general stays a module attribute: bench/tracing.py wraps it by name
from .pep import (_log_pep_general, _raw, _resolve_n0, build_event,
                  pep_general, pep_m1)


def enumerate_events(config: SystemConfig, user: int) -> tuple:
    """All pairwise error events for one user, as a tuple of ErrorEvent.

    Every transmitted tuple, every wrong hypothesis for the user's own
    symbol, and every decision tuple of the users detected before it:
    the perfect-cancellation events are those whose ``sic_errors`` are
    all zero. The tuple's length is the combination count tau.
    """
    config._check_user(user)
    own = config.constellation[user - 1]

    events = []
    for x in itertools.product(*config.constellation):
        for xbar in own:
            if abs(xbar - x[user - 1]) <= 1e-12:
                continue
            for det in itertools.product(*config.constellation[:user - 1]):
                deltas = tuple(xi - di for xi, di in zip(x, det))
                events.append(build_event(config, user, x, xbar, deltas))
    return tuple(events)


def _event_raws(config: SystemConfig, user: int, events: tuple,
                snr_db: Sequence[float]) -> list:
    """Raw PEP of every event at every SNR point, one row per SNR point.

    At M = 1 the single-element form runs event by event; otherwise all
    events x SNR points go to the general form's kernel in one call.
    """
    if config.M == 1:
        return [[pep_m1(config, user, ev, snr_db=s).raw for ev in events]
                for s in snr_db]
    N0 = [_resolve_n0(s) for s in snr_db]
    logs = _log_pep_general(config, user, [ev for _ in N0 for ev in events],
                            [n0 for n0 in N0 for _ in events])
    return [[_raw(v) for v in row]
            for row in logs.reshape(len(N0), len(events)).tolist()]


@dataclass(frozen=True)
class BoundCurve:
    user: int
    snr_db: tuple
    value: tuple            # clipped to <= 1 for reporting
    raw: tuple
    tau: int
    flagged_events: int     # events with vartheta <= 0 in the sum


def union_bound_curve(config: SystemConfig, user: int,
                      snr_db: Sequence[float]) -> BoundCurve:
    """Mean PEP over all enumerated events at every SNR point.

    One event enumeration serves the whole curve, and each point is the
    same whatever other points the curve holds. At M > 1 every event at
    every point goes to the averaged kernel in one call.
    """
    events = enumerate_events(config, user)
    raw = []
    for row in _event_raws(config, user, events, snr_db):
        total = 0.0
        for v in row:   # in event order, so each bound is reproducible
            total += v
        raw.append(total / len(events))
    return BoundCurve(user=user, snr_db=tuple(float(s) for s in snr_db),
                      value=tuple(min(1.0, r) for r in raw), raw=tuple(raw),
                      tau=len(events),
                      flagged_events=sum(1 for ev in events if ev.flagged))
