"""Union bound on the symbol error rate from enumerated pairwise events.

The enumeration walks every transmitted tuple, every wrong hypothesis for
the target user, and every realizable SIC decision for the users detected
first, so imperfect cancellation is represented by explicit events rather
than a separate model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .config import SystemConfig
# pep_m1 and pep_clt are reached by name, through closed_form
from .pep import (ErrorEvent, _finish, _log_pep_general, _resolve_n0,
                  build_event, closed_form, pep_clt, pep_general, pep_m1)


@dataclass(frozen=True)
class EventEnumeration:
    user: int
    events: tuple           # ErrorEvent per combination
    tau: int                # total combination count


def enumerate_events(config: SystemConfig, user: int,
                     sic_errors: bool = True) -> EventEnumeration:
    """All pairwise error events for one user.

    `sic_errors=False` keeps only perfect-cancellation events (every
    earlier user detected correctly); the full set can only be larger.
    """
    config._check_user(user)
    own = config.constellation[user - 1]
    if len(own) < 2:
        raise ValueError("user needs at least two symbols for error events")

    events = []
    for x in itertools.product(*config.constellation):
        for xbar in own:
            if abs(xbar - x[user - 1]) <= 1e-12:
                continue
            if sic_errors:
                detected_space = itertools.product(
                    *config.constellation[:user - 1])
            else:
                detected_space = [tuple(x[:user - 1])]
            for det in detected_space:
                deltas = tuple(xi - di for xi, di in zip(x, det))
                events.append(build_event(config, user, x, xbar, deltas))
    return EventEnumeration(user=user, events=tuple(events), tau=len(events))


def _event_raws(config: SystemConfig, user: int,
                enumeration: EventEnumeration, snr_db: Sequence[float],
                pep_method: Union[str, Callable]) -> list:
    """Raw PEP of every event at every SNR point, one row per SNR point.

    When the method resolves to the general form, all events x SNR
    points go to the kernel in one call; other forms go event by event.
    """
    events = enumeration.events
    fn = (pep_method if callable(pep_method)
          else closed_form(pep_method, config.M, globals()))
    if fn is not pep_general:
        return [[fn(config, user, ev, snr_db=s).raw for ev in events]
                for s in snr_db]
    N0 = [_resolve_n0(config, s) for s in snr_db]
    logs = _log_pep_general(config, user, [ev for _ in N0 for ev in events],
                            [n0 for n0 in N0 for _ in events])
    return [[_finish(v, "general", ev).raw for v, ev in zip(row, events)]
            for row in logs.reshape(len(N0), len(events)).tolist()]


@dataclass(frozen=True)
class UnionBoundValue:
    value: float            # clipped to <= 1 for reporting
    raw: float
    tau: int
    flagged_events: int     # events with vartheta <= 0 in the sum

    def __float__(self) -> float:
        return self.value


def _sum_events(enumeration: EventEnumeration, raws: list
                ) -> UnionBoundValue:
    total = 0.0
    for v in raws:      # in event order, so each bound is reproducible
        total += v
    raw = total / enumeration.tau
    flagged = sum(1 for ev in enumeration.events if ev.flagged)
    return UnionBoundValue(value=min(1.0, raw), raw=raw,
                           tau=enumeration.tau, flagged_events=flagged)


def union_bound(config: SystemConfig, user: int, snr_db: float,
                pep_method: Union[str, Callable] = "auto",
                enumeration: Optional[EventEnumeration] = None
                ) -> UnionBoundValue:
    """Mean PEP over all enumerated events at one SNR point."""
    if enumeration is None:
        enumeration = enumerate_events(config, user)
    raws, = _event_raws(config, user, enumeration, [snr_db], pep_method)
    return _sum_events(enumeration, raws)


@dataclass(frozen=True)
class BoundCurve:
    user: int
    snr_db: tuple
    value: tuple
    raw: tuple
    tau: int
    method: str


def union_bound_curve(config: SystemConfig, user: int,
                      snr_db: Sequence[float],
                      pep_method: Union[str, Callable] = "auto"
                      ) -> BoundCurve:
    enumeration = enumerate_events(config, user)
    vals = [_sum_events(enumeration, raws) for raws in
            _event_raws(config, user, enumeration, snr_db, pep_method)]
    name = pep_method if isinstance(pep_method, str) else getattr(
        pep_method, "__name__", "custom")
    return BoundCurve(user=user, snr_db=tuple(float(s) for s in snr_db),
                      value=tuple(v.value for v in vals),
                      raw=tuple(v.raw for v in vals),
                      tau=enumeration.tau, method=name)
