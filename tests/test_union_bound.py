"""Event enumeration and the averaged union bound."""

import math

import pytest

from lisnoma import (SystemConfig, default_config, enumerate_events,
                     pep_general, simulate_ber, union_bound,
                     union_bound_curve)
from lisnoma.config import BPSK, SnrGrid

from conftest import THETA_AIDED, THETA_BIG, THETA_SMALL


def test_far_user_enumeration(cfg):
    en = enumerate_events(cfg, 1)
    assert en.tau == 4
    got = sorted(e.vartheta for e in en.events)
    want = sorted([THETA_SMALL, THETA_SMALL, THETA_BIG, THETA_BIG])
    assert got == pytest.approx(want, rel=1e-12)


def test_near_user_enumeration_includes_residuals(cfg):
    en = enumerate_events(cfg, 2)
    assert en.tau == 8
    got = sorted(e.vartheta for e in en.events)
    want = sorted([-THETA_BIG, -THETA_BIG,
                   THETA_SMALL, THETA_SMALL, THETA_SMALL, THETA_SMALL,
                   THETA_AIDED, THETA_AIDED])
    assert got == pytest.approx(want, rel=1e-12)
    assert sum(1 for e in en.events if e.flagged) == 2


def test_perfect_cancellation_subset(cfg):
    full = enumerate_events(cfg, 2)
    perfect = enumerate_events(cfg, 2, sic_errors=False)
    assert perfect.tau == 4
    assert all(e.sic_errors == (0.0,) for e in perfect.events)
    # the unnormalized event sum can only grow when residuals are added
    for s in (0.0, 10.0, 20.0):
        b_full = union_bound(cfg, 2, s, enumeration=full)
        b_perf = union_bound(cfg, 2, s, enumeration=perfect)
        assert b_perf.raw * perfect.tau <= b_full.raw * full.tau + 1e-15


def test_single_user_scenario_has_no_interference_terms():
    cfg = SystemConfig(M=3, L=1, d_R=(2.0,), P=(1.0,), constellation=(BPSK,))
    en = enumerate_events(cfg, 1)
    assert en.tau == 2
    assert all(e.X == 0.0 for e in en.events)
    assert [e.vartheta for e in en.events] == pytest.approx([4.0, 4.0])


def test_bound_value_bookkeeping(cfg):
    b = union_bound(cfg, 2, 10.0)
    assert b.tau == 8
    assert b.flagged_events == 2
    assert b.value == min(1.0, b.raw)
    # the normalized bound is the weighted event average
    en = enumerate_events(cfg, 2)
    acc = sum(pep_general(cfg, 2, e, snr_db=10.0).raw for e in en.events)
    assert b.raw == pytest.approx(acc / en.tau, rel=1e-12)


def test_method_selection(cfg, cfg1):
    auto1 = union_bound(cfg1, 1, 10.0, pep_method="auto")
    m1 = union_bound(cfg1, 1, 10.0, pep_method="m1")
    assert auto1.raw == pytest.approx(m1.raw, rel=1e-12)
    auto3 = union_bound(cfg, 1, 10.0, pep_method="auto")
    gen3 = union_bound(cfg, 1, 10.0, pep_method="general")
    assert auto3.raw == pytest.approx(gen3.raw, rel=1e-12)
    custom = union_bound(cfg, 1, 10.0, pep_method=pep_general)
    assert custom.raw == pytest.approx(gen3.raw, rel=1e-12)
    with pytest.raises(ValueError):
        union_bound(cfg, 1, 10.0, pep_method="bogus")


def test_bound_dominates_simulation_spot_check(cfg):
    grid = SnrGrid.from_db([5.0, 15.0])
    sim = simulate_ber(cfg, grid, frames=150_000, seed=17)
    for user in (1, 2):
        for i, s in enumerate(grid.db):
            b = union_bound(cfg, user, s)
            assert b.value >= sim[user].ci_low[i]


def test_curve_matches_pointwise_evaluation(cfg):
    pts = (0.0, 6.0, 12.0)
    curve = union_bound_curve(cfg, 1, pts)
    assert curve.user == 1 and curve.tau == 4 and curve.method == "auto"
    assert curve.snr_db == pytest.approx(pts)
    for s, v, r in zip(curve.snr_db, curve.value, curve.raw):
        one = union_bound(cfg, 1, s)
        assert v == pytest.approx(one.value, rel=1e-12)
        assert r == pytest.approx(one.raw, rel=1e-12)
    assert all(b < a for a, b in zip(curve.raw, curve.raw[1:]))


def test_bound_saturates_at_one_at_very_low_snr(cfg):
    b = union_bound(cfg, 2, -30.0)
    assert b.value <= 1.0
    assert b.value == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("user", [1, 2])
def test_curve_is_the_per_event_sum_of_scalar_peps(cfg6, user):
    # the curve evaluates every event x SNR pair in one kernel call; each
    # value must be the one a scalar call returns
    pts = tuple(float(s) for s in range(0, 41, 4))
    curve = union_bound_curve(cfg6, user, pts, pep_method="general")
    en = enumerate_events(cfg6, user)
    for s, r in zip(pts, curve.raw):
        acc = sum(pep_general(cfg6, user, e, snr_db=s).raw
                  for e in en.events)
        assert r == pytest.approx(acc / en.tau, rel=1e-14)
