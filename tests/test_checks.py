"""The acceptance suite's machinery: its criteria table, the shared paths
of ``run_all``, and what the detail strings say apart from the verdicts."""

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
    [result] = checks.run_all(quick=True, only=("1",))
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


def test_criteria_table_is_pinned():
    # a loosened bound or a renamed criterion shows up here by name
    assert checks.CRITERIA == {
        "1": ("moment identities", "5.0"),
        "2": ("branch consistency", "1e-14"),
        "3a": ("fitted density vs samples", "0.01"),
        "3b": ("single-element fitted vs exact density", "1e-3"),
        "3c": ("gaussian-limit density vs samples", "0.02"),
        "4a": ("general closed form vs quadrature", "1e-6"),
        "4b": ("single-element closed form vs quadrature", "1e-8"),
        "5a": ("closed forms above exact simulation", "3.0"),
        "5b": ("simulated decay slope matches closed form", "0.10"),
        "5c": ("simulated decay slope at fifteen elements", "0.10"),
        "6": ("diversity order", "0.05"),
        "7a": ("union bound dominates simulated error rate", None),
        "7b": ("element-doubling gain at the reference error rate", "0.7"),
        "7c": ("full plotted range is desk-feasible", "1e8"),
        "8": ("power-allocation sensitivity", None),
        "9a": ("strict ordering of the lower shape exponents", None),
        "9b": ("smaller shape exponent grows with element count", None),
        "10": ("large-M reading adjudication", "0.10"),
    }
    assert checks.QUICK_SKIPS == ("3c", "5c")
    assert checks.BUDGET_S == 120.0


def _fake_suite(monkeypatch, runners, criteria, quick_skips=()):
    monkeypatch.setattr(checks, "CHECKS", runners)
    monkeypatch.setattr(checks, "CRITERIA", criteria)
    monkeypatch.setattr(checks, "QUICK_SKIPS", quick_skips)
    ticks = iter(range(1000))
    monkeypatch.setattr(checks, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))


def test_runner_that_raises_keeps_what_it_yielded(monkeypatch):
    def flaky(quick=False):
        yield "98a", True, "first half"
        raise RuntimeError("numerical failure")

    _fake_suite(monkeypatch, (("98", flaky),), {"98a": ("half", None)})
    first, crash = checks.run_all()
    assert (first.criterion, first.label, first.status, first.detail) == (
        "98a", "half", "PASS", "first half")
    assert (crash.criterion, crash.label, crash.status) == (
        "98", "flaky", "FAIL")
    assert crash.detail == "runner raised RuntimeError('numerical failure')"
    # each record is timed from the one before it, one clock tick apart
    assert first.elapsed == crash.elapsed == 1.0


def test_quick_run_adds_the_skip_records_it_names(monkeypatch):
    def two(quick=False):
        yield "98a", True, "always runs"
        if not quick:
            yield "98b", False, "full run only"

    def one(quick=False):
        yield "99", True, "always runs"

    _fake_suite(monkeypatch, (("98", two), ("99", one)),
                {"98a": ("a", None), "98b": ("b", None), "99": ("c", None)},
                quick_skips=("98b",))
    quick = checks.run_all(quick=True)
    assert [(r.criterion, r.label, r.status) for r in quick] == [
        ("98a", "a", "PASS"), ("98b", "b", "SKIP"), ("99", "c", "PASS")]
    assert quick[1].detail.startswith("skipped under quick")
    full = checks.run_all()
    assert [(r.criterion, r.status) for r in full] == [
        ("98a", "PASS"), ("98b", "FAIL"), ("99", "PASS")]
    # a skip belongs to its check: leaving the check out leaves it out
    assert [r.criterion for r in checks.run_all(quick=True, only=("99",))
            ] == ["99"]
