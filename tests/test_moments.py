"""Raw moments of the element-sum envelope.

The analytic values are checked against independently written formula
expressions, against the hand-listed small-M special cases, and against
chunked Monte Carlo with jackknife error bars.
"""

import math

import numpy as np
import pytest

from lisnoma import analytic_moments, empirical_moments, fit_gparams
from lisnoma.moments import _mu3_listed, _mu4_listed

PI = math.pi


def _reference(M, v):
    # independent transcription of the closed-form raw moments
    mu1 = M * PI * v / 2.0
    mu2 = (4.0 + (M - 1) * PI ** 2 / 4.0) * M * v ** 2
    mu3 = M * PI * (4.5 + 6.0 * (M - 1)
                    + (M - 1) * (M - 2) * PI ** 2 / 8.0) * v ** 3
    mu4 = (64.0 * M + 48.0 * M * (M - 1) + 9.0 * M * (M - 1) * PI ** 2
           + 6.0 * M * (M - 1) * (M - 2) * PI ** 2
           + M * (M - 1) * (M - 2) * (M - 3) * PI ** 4 / 16.0) * v ** 4
    return mu1, mu2, mu3, mu4


@pytest.mark.parametrize("M", [1, 2, 3, 4, 7, 16, 64])
@pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.3])
def test_analytic_moments_match_reference_formulas(M, sigma2):
    mom = analytic_moments(M, sigma2)
    for got, want in zip(mom.as_tuple(), _reference(M, sigma2)):
        assert got == pytest.approx(want, rel=1e-13)


def test_exact_anchor_values():
    # at sigma2 = 1/2 the single-element even moments are exactly 1 and 4
    mom = analytic_moments(1, 0.5)
    assert mom.mu1 == pytest.approx(PI / 4.0, rel=1e-15)
    assert mom.mu2 == 1.0
    assert mom.mu3 == pytest.approx(0.5625 * PI, rel=1e-15)
    assert mom.mu4 == 4.0


@pytest.mark.parametrize("sigma2", [0.5, 1.0, 2.3])
def test_small_m_listings_agree_with_general_branch(sigma2):
    # the hand-listed special cases and the general expressions are the
    # same polynomial, so they must agree to rounding error
    for M in (1, 2, 3):
        mom = analytic_moments(M, sigma2)
        listed3 = _mu3_listed(M, sigma2)
        if listed3 is not None:
            assert mom.mu3 == pytest.approx(listed3, rel=5e-14)
        assert mom.mu4 == pytest.approx(_mu4_listed(M, sigma2), rel=5e-14)
    assert _mu3_listed(3, sigma2) is None and _mu4_listed(4, sigma2) is None
    v = sigma2
    assert _mu3_listed(2, sigma2) == pytest.approx(21.0 * PI * v ** 3,
                                                   rel=1e-14)
    assert _mu4_listed(2, sigma2) == pytest.approx(
        (224.0 + 18.0 * PI ** 2) * v ** 4, rel=1e-14)
    assert _mu4_listed(3, sigma2) == pytest.approx(
        (480.0 + 90.0 * PI ** 2) * v ** 4, rel=1e-14)


def test_moment_validation():
    with pytest.raises(ValueError):
        analytic_moments(0, 0.5)
    with pytest.raises(ValueError):
        analytic_moments(3, -0.5)
    with pytest.raises(ValueError):
        empirical_moments(3, 0.5, samples=100)


@pytest.mark.parametrize("entry", [analytic_moments, fit_gparams,
                                   empirical_moments])
@pytest.mark.parametrize("M", [math.inf, -math.inf, math.nan])
def test_non_finite_element_count_is_refused(entry, M):
    # refused by the scenario rule, before int(M) could overflow or fail
    with pytest.raises(ValueError, match="M must be a positive integer"):
        entry(M, 0.5)


@pytest.mark.parametrize("M", [2, 5])
def test_empirical_moments_within_five_se(M):
    mom = analytic_moments(M, 0.5)
    emp = empirical_moments(M, 0.5, samples=1_000_000, seed=42)
    for got, se, want in zip(emp.mu, emp.se, mom.as_tuple()):
        assert se > 0 and np.isfinite(se)
        assert abs(got - want) < 5.0 * se


def test_empirical_moments_are_reproducible():
    a = empirical_moments(3, 0.5, samples=200_000, seed=7)
    b = empirical_moments(3, 0.5, samples=200_000, seed=7)
    c = empirical_moments(3, 0.5, samples=200_000, seed=8)
    assert a.mu == b.mu and a.se == b.se
    assert a.mu != c.mu


def test_small_runs_still_get_error_bars():
    # fewer samples than one draw chunk must not break the jackknife
    emp = empirical_moments(2, 0.5, samples=10_000, seed=1)
    assert all(np.isfinite(s) and s > 0 for s in emp.se)
    big = empirical_moments(2, 0.5, samples=400_000, seed=1)
    assert all(b < s for b, s in zip(big.se, emp.se))
