"""Monte Carlo reference paths: sampling, link simulation, PEP estimation."""

import math

import numpy as np
import pytest

from lisnoma import (analytic_moments, build_event, default_config,
                     pep_general, pep_quadrature, sample_cascade,
                     simulate_ber, simulate_pep)
from lisnoma._util import wilson_interval
from lisnoma.config import SnrGrid


def test_sampling_is_reproducible(cfg):
    a = sample_cascade(cfg, 2, 30_000, seed=5)
    b = sample_cascade(cfg, 2, 30_000, seed=5)
    c = sample_cascade(cfg, 2, 30_000, seed=6)
    assert np.array_equal(a.s, b.s) and np.array_equal(a.q, b.q)
    assert not np.array_equal(a.s, c.s)


def test_scaled_gain_is_the_sum_over_root_distance(cfg):
    batch = sample_cascade(cfg, 2, 20_000, seed=5)
    np.testing.assert_allclose(batch.q, batch.s / math.sqrt(8.0), rtol=1e-14)
    assert batch.s.size == batch.q.size == 20_000
    assert batch.q[0] == pytest.approx(batch.s[0] / math.sqrt(8.0))


def test_sample_mean_matches_first_moment(cfg1):
    mom = analytic_moments(1, 0.5)
    batch = sample_cascade(cfg1, 1, 1_000_000, seed=11)
    sd = math.sqrt(mom.mu2 - mom.mu1 ** 2)
    assert abs(float(batch.s.mean()) - mom.mu1) < 5.0 * sd / 1000.0


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(0.036993498206985679, rel=1e-9)
    lo, hi = wilson_interval(50, 100)
    assert lo + hi == pytest.approx(1.0, abs=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_link_simulation_shape_and_determinism(cfg):
    grid = SnrGrid.parse("0:10:5")
    sim = simulate_ber(cfg, grid.db, frames=20_000, seed=3)
    again = simulate_ber(cfg, grid.db, frames=20_000, seed=3)
    assert set(sim) == {1, 2}
    for user in (1, 2):
        c = sim[user]
        assert c.user == user
        assert c.snr_db == pytest.approx(grid.db)
        assert len(c.ber) == len(c.errors) == len(grid.db)
        assert c.frames == 20_000
        assert all(0.0 <= lo <= b <= hi <= 1.0 for lo, b, hi
                   in zip(c.ci_low, c.ber, c.ci_high))
        assert c.errors == again[user].errors


def test_error_rate_falls_with_snr_and_with_elements():
    grid = SnrGrid.parse("0:20:10")
    small = simulate_ber(default_config(M=2), grid.db, frames=120_000, seed=9)
    for user in (1, 2):
        bers = small[user].ber
        assert bers[0] > bers[1] > bers[2]
    big = simulate_ber(default_config(M=6), grid.db, frames=120_000, seed=9)
    assert big[1].ber[1] < small[1].ber[1]
    assert big[2].ber[1] < small[2].ber[1]


def test_error_rate_approaches_coin_flip_at_very_low_snr(cfg):
    sim = simulate_ber(cfg, SnrGrid((-25.0,)).db, frames=40_000, seed=2)
    assert sim[1].ber[0] > 0.3
    assert sim[2].ber[0] > 0.3


def test_pep_estimate_sits_below_the_chernoff_bound(cfg, event_u1):
    est = simulate_pep(cfg, 1, interference=event_u1, snr_db=6.0,
                       trials=400_000, seed=21, importance=True)
    bound = pep_general(cfg, 1, event_u1, snr_db=6.0)
    assert est.value - 3.0 * est.se <= bound.raw
    assert 0 < est.ess <= est.trials
    assert est.kappa <= 1.0


def test_pep_estimate_matches_exact_average_for_one_element(cfg1,
                                                            event_u1_m1):
    est = simulate_pep(cfg1, 1, interference=event_u1_m1, snr_db=8.0,
                       trials=600_000, seed=13, importance=False)
    exact = pep_quadrature(cfg1, 1, event_u1_m1, snr_db=8.0, pdf_model="dr",
                           kernel="exact", abs_tol=1e-13)
    assert abs(est.value - exact) < 4.0 * est.se
    assert est.kappa == 1.0


def test_importance_and_naive_estimates_agree(cfg, event_u1):
    naive = simulate_pep(cfg, 1, interference=event_u1, snr_db=10.0,
                         trials=800_000, seed=4, importance=False)
    tilted = simulate_pep(cfg, 1, interference=event_u1, snr_db=10.0,
                          trials=200_000, seed=4, importance=True)
    se = math.hypot(naive.se, tilted.se)
    assert abs(naive.value - tilted.value) < 4.0 * se
    assert tilted.kappa < 1.0


def test_opposed_events_disable_the_importance_tilt(cfg):
    opposed = build_event(cfg, 2, (1.0, -1.0), 1.0, sic_errors=(2.0,))
    est = simulate_pep(cfg, 2, interference=opposed, snr_db=0.0,
                       trials=30_000, seed=3, importance=True)
    assert est.kappa == 1.0
    assert est.value > 0.5   # the residual pushes the decision the wrong way


@pytest.mark.parametrize("snr_db", [30.0, 40.0])
def test_tilted_estimate_matches_exact_average_deep_in_the_tail(
        cfg1, event_u1_m1, snr_db):
    est = simulate_pep(cfg1, 1, interference=event_u1_m1, snr_db=snr_db,
                       trials=200_000, seed=17, importance=True)
    exact = pep_quadrature(cfg1, 1, event_u1_m1, snr_db=snr_db,
                           pdf_model="dr", kernel="exact", abs_tol=1e-16)
    assert est.kappa < 1.0
    assert abs(est.value - exact) < 4.0 * est.se


def test_tilted_estimate_resolves_fifteen_elements_at_thirty_db():
    cfg15 = default_config(M=15)
    event = build_event(cfg15, 1, (1.0, 1.0), -1.0)
    est = simulate_pep(cfg15, 1, interference=event, snr_db=30.0,
                       trials=200_000, seed=17, importance=True)
    assert est.kappa < 1.0
    assert 0.0 < est.value < pep_general(cfg15, 1, event, snr_db=30.0).raw
    assert est.se / est.value < 0.05


def test_underflowed_standard_error_is_flagged():
    # at M = 64 and 40 dB the weighted values sit near 1e-187, so their
    # squares underflow in linear float64 and se reads 0; the estimate
    # says so in place of a zero-width interval
    cfg64 = default_config(M=64)
    event = build_event(cfg64, 1, (-1.0, -1.0), 1.0)
    est = {snr: simulate_pep(cfg64, 1, interference=event, snr_db=snr,
                             trials=20_000, seed=7, importance=True)
           for snr in (30.0, 40.0)}
    assert 0.0 < est[40.0].value < 1e-180 and est[40.0].se == 0.0
    assert est[40.0].se_underflowed
    assert est[30.0].se > 0.0 and not est[30.0].se_underflowed
