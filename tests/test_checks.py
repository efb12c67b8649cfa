"""Check runners: what the detail strings say, apart from the verdicts."""

import re
import types

from lisnoma import checks


def _moment_detail(monkeypatch, seconds):
    """Check 1's detail with a clock that advances ``seconds`` per read.

    The sampled moments are stubbed with the analytic ones, so only the
    clock differs between runs.
    """
    ticks = iter(range(0, 1000 * seconds, seconds))
    monkeypatch.setattr(checks, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))
    monkeypatch.setattr(checks, "empirical_moments", lambda M, sigma2, **k:
                        types.SimpleNamespace(
                            mu=checks.analytic_moments(M, sigma2).as_tuple(),
                            se=(1.0,) * 4))
    [result] = checks.check_moments(quick=True)
    return result


def test_moment_check_detail_holds_no_timing(monkeypatch):
    fast = _moment_detail(monkeypatch, 1)
    slow = _moment_detail(monkeypatch, 7)
    assert fast.passed and slow.passed
    assert fast.elapsed != slow.elapsed
    # identical runs print identical details; the time is in elapsed only
    assert fast.detail == slow.detail
    assert not re.search(r"\d\s?s\b", fast.detail)


def test_moment_check_still_notes_an_overrun(monkeypatch):
    result = _moment_detail(monkeypatch, 200)
    assert not result.passed
    assert result.detail.endswith("(over the 120s budget)")
    assert result.elapsed > 120.0
