"""Event enumeration and the averaged union bound."""

import math

import pytest

from lisnoma import (SystemConfig, enumerate_events, pep_general, pep_m1,
                     simulate_ber, union_bound_curve)
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


def test_single_user_scenario_has_no_interference_terms():
    cfg = SystemConfig(M=3, L=1, d_R=(2.0,), P=(1.0,), constellation=(BPSK,))
    en = enumerate_events(cfg, 1)
    assert en.tau == 2
    assert all(e.X == 0.0 for e in en.events)
    assert [e.vartheta for e in en.events] == pytest.approx([4.0, 4.0])


def test_bound_value_bookkeeping(cfg):
    b = union_bound_curve(cfg, 2, (10.0,))
    assert b.tau == 8
    assert b.flagged_events == 2
    assert b.value[0] == min(1.0, b.raw[0])
    # the normalized bound is the weighted event average
    en = enumerate_events(cfg, 2)
    acc = sum(pep_general(cfg, 2, e, snr_db=10.0).raw for e in en.events)
    assert b.raw[0] == pytest.approx(acc / en.tau, rel=1e-12)


def test_method_selection(cfg, cfg1):
    # the single-element form at M = 1, the general form otherwise
    for c, form in ((cfg1, pep_m1), (cfg, pep_general)):
        en = enumerate_events(c, 1)
        acc = sum(form(c, 1, e, snr_db=10.0).raw for e in en.events)
        got = union_bound_curve(c, 1, (10.0,))
        assert got.raw[0] == pytest.approx(acc / en.tau, rel=1e-12)


def test_bound_dominates_simulation_spot_check(cfg):
    grid = SnrGrid((5.0, 15.0))
    sim = simulate_ber(cfg, grid, frames=150_000, seed=17)
    for user in (1, 2):
        b = union_bound_curve(cfg, user, grid.db)
        for i in range(len(grid)):
            assert b.value[i] >= sim[user].ci_low[i]


def test_curve_matches_pointwise_evaluation(cfg, cfg1):
    # check 7's root finder reads one-point curves, so each point of a
    # longer curve must be exactly the one-point curve at that SNR
    pts = (0.0, 6.0, 12.0, 27.5)
    for c in (cfg1, cfg):
        curve = union_bound_curve(c, 1, pts)
        assert curve.user == 1 and curve.tau == 4
        assert curve.snr_db == pts
        for s, v, r in zip(curve.snr_db, curve.value, curve.raw):
            one = union_bound_curve(c, 1, (s,))
            assert (v, r) == (one.value[0], one.raw[0])
        assert all(b < a for a, b in zip(curve.raw, curve.raw[1:]))


def test_bound_saturates_at_one_at_very_low_snr(cfg):
    b = union_bound_curve(cfg, 2, (-30.0,))
    assert b.value[0] <= 1.0
    assert b.value[0] == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("user", [1, 2])
def test_curve_is_the_per_event_sum_of_scalar_peps(cfg6, user):
    # the curve evaluates every event x SNR pair in one kernel call; each
    # value must be the one a scalar call returns
    pts = tuple(float(s) for s in range(0, 41, 4))
    curve = union_bound_curve(cfg6, user, pts)
    en = enumerate_events(cfg6, user)
    for s, r in zip(pts, curve.raw):
        acc = sum(pep_general(cfg6, user, e, snr_db=s).raw
                  for e in en.events)
        assert r == pytest.approx(acc / en.tau, rel=1e-14)
