"""Density models for the element-sum envelope.

The fitted kernel is pinned against a 60-digit mpmath solve of the same
moment system, and every model is checked for unit mass and for the
moment (Mellin) identity that defines the fit.
"""

import math
import warnings
from fractions import Fraction
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.integrate import quad

from lisnoma import (analytic_moments, empirical_moments, fit_gparams,
                     pdf_approx, pdf_clt, pdf_double_rayleigh, pdf_g)
from lisnoma.pdf_approx import (FittingError, density_cdf_table, ks_distance,
                                ks_statistic, quadrature_domain)

# mpmath, 60 digits, sigma2 = 0.5: (a2, a3, a4, a5, log_a1)
MPMATH_FIT = {
    1: (0.50022029363867568046, 1.0821208762745938643,
        complex(0.78797621591743711265, 0.26886526536792604225),
        complex(0.78797621591743711265, -0.26886526536792604225),
        0.93189430815998795337),
    3: (0.49962970487160649722, 5.6832113559305000221,
        complex(4.6089071282779128406, 0.23956988381406467966),
        complex(4.6089071282779128406, -0.23956988381406467966),
        -1.5700051043642765741),
    6: (0.49940990759295563848, 12.580947883020529201,
        complex(11.000439635752007123, 0.0),
        complex(9.6786635559473702909, 0.0),
        -9.6947518663439584846),
    15: (0.49925612240266643554, 33.271197699386340382,
         complex(29.836078391018796637, 0.0),
         complex(25.225747908802563776, 0.0),
         -46.131640890270472432),
    64: (0.49916999996038770237, 145.91371620342315402,
         complex(132.13586975470716968, 0.0),
         complex(110.11908166189322854, 0.0),
         -342.15554176854163914),
}


def _mp_fit(M, sigma2=0.5):
    """(a2, a3, a4, a5, log_a1) from the moment-ratio chain at 60 digits."""
    with mp.workdps(60):
        pi, v = mp.pi, mp.mpf(sigma2)
        mu1 = M * pi * v / 2
        mu2 = (4 + (M - 1) * pi ** 2 / 4) * M * v ** 2
        mu3 = M * pi * (mp.mpf(9) / 2 + 6 * (M - 1)
                        + (M - 1) * (M - 2) * pi ** 2 / 8) * v ** 3
        mu4 = (64 * M + 48 * M * (M - 1) + 9 * M * (M - 1) * pi ** 2
               + 6 * M * (M - 1) * (M - 2) * pi ** 2
               + M * (M - 1) * (M - 2) * (M - 3) * pi ** 4 / 16) * v ** 4
        p2, p3, p4 = mu2 / mu1, mu3 / mu2, mu4 / mu3
        a3 = (4 * p4 - 9 * p3 + 6 * p2 - mu1) / (-p4 + 3 * p3 - 3 * p2 + mu1)
        a2 = a3 / 2 * (p4 - 2 * p3 + p2) + 2 * p4 - 3 * p3 + p2
        W = (a3 * (p2 - mu1) + 2 * p2 - mu1) / a2
        a7 = mp.sqrt(mp.mpc((W - 1) ** 2 - 4 * mu1 * (a3 + 1) / a2))
        a4, a5 = (W - 3 + a7) / 2, (W - 3 - a7) / 2
        log_a1 = mp.re(mp.loggamma(a3 + 1) - mp.log(a2)
                       - mp.loggamma(a4 + 1) - mp.loggamma(a5 + 1))
        return float(a2), float(a3), complex(a4), complex(a5), float(log_a1)


@pytest.mark.parametrize("M", [*sorted(MPMATH_FIT), 256, 1024, 4096])
def test_fit_matches_high_precision_solve(M):
    tol = 1e-13
    a2, a3, a4, a5, log_a1 = MPMATH_FIT[M] if M in MPMATH_FIT else _mp_fit(M)
    p = fit_gparams(M, 0.5)
    assert p.a2 == pytest.approx(a2, rel=tol)
    assert p.a3 == pytest.approx(a3, rel=tol)
    assert complex(p.a4) == pytest.approx(a4, rel=tol)
    assert complex(p.a5) == pytest.approx(a5, rel=tol)
    assert p.log_a1 == pytest.approx(log_a1, rel=tol)
    assert p.a6 == pytest.approx((a4 + a5).real, rel=tol)


# The fit's polynomial coefficients in M, highest power first, in exact
# form: {power of pi: rational coefficient}. Each float literal in
# pdf_approx must be its form evaluated at 40 digits and rounded.
FIT_COEFFS = {
    "_D": ({4: -57, 2: 1808, 0: -12288}, {4: 57, 2: -692, 0: 1280}),
    "_A3": ({4: 39, 2: -384}, {4: 111, 2: -4208, 0: 30720},
            {4: -150, 2: 1532, 0: -512}),
    "_N": ({5: Fraction(57, 2), 3: -853, 1: 10624, -1: -49152},
           {5: Fraction(-57, 2), 3: 529, 1: -784, -1: -16384}),
    "_W": ({5: -48, 3: 1408, 1: -9216},
           {5: 30, 3: -74, 1: -7168, -1: 49152},
           {5: 18, 3: -362, 1: 160, -1: 16384}),
    "_DISC": ({10: 81, 8: -46746, 6: 1383424, 4: -13959168, 2: 47185920},
              {10: -999, 8: 95214, 6: -1950944, 4: 14526464, 2: -35389440},
              {10: Fraction(15669, 4), 8: -181653, 6: 4136521,
               4: -58664704, 2: 561102848, 0: -3422552064,
               -2: 9663676416},
              {10: Fraction(-10323, 2), 8: 216048, 6: -4030770,
               4: 39873824, 2: -128987136, 0: -955252736,
               -2: 6442450944},
              {10: Fraction(8649, 4), 8: -82863, 6: 881673, 4: 1365216,
               2: -57501440, 0: 61865984, -2: 1073741824}),
}


@pytest.mark.parametrize("name", sorted(FIT_COEFFS))
def test_fit_literals_are_their_exact_forms_rounded(name):
    want = []
    with mp.workdps(40):
        for form in FIT_COEFFS[name]:
            terms = (mp.mpf(c.numerator) / c.denominator * mp.pi ** k
                     for k, c in form.items())
            want.append(float(mp.fsum(terms)))
    assert getattr(pdf_approx, name) == tuple(want)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6, 15, 32, 64])
def test_fit_reproduces_the_first_four_moments(M):
    # the defining property: the kernel's Mellin transform hits mu_1..mu_4
    p = fit_gparams(M, 0.5)
    mom = analytic_moments(M, 0.5)
    a4, a5 = complex(p.a4), complex(p.a5)
    for i, want in enumerate(mom.as_tuple(), start=1):
        lg = (p.log_a1 + (i + 1) * math.log(p.a2)
              + sp.loggamma(a4 + 1 + i) + sp.loggamma(a5 + 1 + i)
              - sp.loggamma(p.a3 + 1 + i))
        got = complex(np.exp(lg))
        assert abs(got.imag) < 1e-10 * abs(got.real)
        assert got.real == pytest.approx(want, rel=1e-9)


def test_complex_pair_appears_exactly_below_four_elements():
    for M in range(1, 65):
        p = fit_gparams(M, 0.5)
        assert p.complex_pair == (M <= 3)
        if p.complex_pair:
            assert complex(p.a5) == complex(p.a4).conjugate()
        else:
            assert complex(p.a4).imag == 0.0
            assert p.min_lower_real == pytest.approx(complex(p.a5).real)


@pytest.mark.parametrize("M,sigma2", [(1, 0.5), (3, 0.5), (3, 1.7), (15, 0.5)])
def test_fitted_density_has_unit_mass(M, sigma2):
    p = fit_gparams(M, sigma2)
    hi = quadrature_domain(M, sigma2)
    xs, cdf = density_cdf_table(lambda x: pdf_g(x, p), hi, n=8001)
    # the single-element kernel rises steeply at the origin, which the
    # trapezoid table resolves less sharply than the smooth cases
    assert cdf[-1] == pytest.approx(1.0, abs=2e-5 if M == 1 else 1e-6)


def test_fitted_density_mean_matches_first_moment():
    p = fit_gparams(3, 0.5)
    hi = quadrature_domain(3, 0.5)
    mean = quad(lambda x: x * float(pdf_g(np.array([x]), p)[0]), 0, hi,
                limit=200)[0]
    assert mean == pytest.approx(analytic_moments(3, 0.5).mu1, rel=1e-7)


@pytest.mark.parametrize("M", [1, 3, 15])
def test_fitted_density_is_essentially_nonnegative(M):
    p = fit_gparams(M, 0.5)
    hi = quadrature_domain(M, 0.5)
    xs = np.linspace(1e-3, hi, 4000)
    assert float(pdf_g(xs, p).min()) > -1e-9


def test_distance_scaling_is_a_change_of_variable():
    p = fit_gparams(3, 0.5)
    xs = np.linspace(0.05, 2.0, 50)
    D = 125.0
    direct = pdf_g(xs, p, D=D)
    changed = math.sqrt(D) * pdf_g(xs * math.sqrt(D), p)
    np.testing.assert_allclose(direct, changed, rtol=1e-12)


def test_single_element_density_closed_form():
    # x / sigma2^2 * K0(x / sigma2), checked directly against scipy
    xs = np.linspace(0.01, 8.0, 200)
    s2 = 0.5
    want = xs / s2 ** 2 * sp.k0(xs / s2)
    np.testing.assert_allclose(pdf_double_rayleigh(xs, s2), want, rtol=1e-12)
    xs2, cdf = density_cdf_table(lambda x: pdf_double_rayleigh(x, s2),
                                 quadrature_domain(1, s2), n=8001)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-5)


def test_gaussian_limit_parameters():
    mom = analytic_moments(3, 0.5)
    assert mom.mu1 == pytest.approx(3.0 * math.pi / 4.0, rel=1e-14)
    assert mom.variance == pytest.approx(0.75 * (4.0 - math.pi ** 2 / 4.0),
                                         rel=1e-12)
    xs = np.linspace(0.0, 8.0, 100)
    want = (np.exp(-(xs - mom.mu1) ** 2 / (2 * mom.variance))
            / math.sqrt(2 * math.pi * mom.variance))
    np.testing.assert_allclose(pdf_clt(xs, mom), want, rtol=1e-12)


def test_shape_parameters_are_scale_invariant():
    # sigma2 only rescales the envelope, so a3..a5 must not move
    base = fit_gparams(7, 0.5)
    for s2 in (0.05, 0.9, 4.0):
        p = fit_gparams(7, s2)
        assert p.a3 == pytest.approx(base.a3, rel=1e-9)
        assert complex(p.a4) == pytest.approx(complex(base.a4), rel=1e-9)
        assert p.a2 == pytest.approx(base.a2 * s2 / 0.5, rel=1e-9)


def test_ks_statistic_behaves():
    rng = np.random.default_rng(0)
    p = fit_gparams(6, 0.5)
    hi = quadrature_domain(6, 0.5)
    xs, cdf = density_cdf_table(lambda x: pdf_g(x, p), hi)
    mom = analytic_moments(6, 0.5)
    good = rng.normal(mom.mu1, math.sqrt(mom.mu2 - mom.mu1 ** 2), 4000)
    shifted = good + 2.0
    assert ks_statistic(shifted, xs, cdf) > ks_statistic(good, xs, cdf)
    assert ks_statistic(shifted, xs, cdf) > 0.3


@pytest.mark.parametrize("n", [1, 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                               10 ** 6, 10 ** 7])
def test_blockwise_ks_distance_equals_the_whole_sample_form(n):
    # CDF values inside each step, so the distance is decided by the
    # rounding of k/n and (k+1)/n; the blocks must build those exactly
    rng = np.random.default_rng(n)
    F = (np.arange(n) + rng.random(n)) / n
    up = np.max(np.abs(F - np.arange(1, n + 1) / n))
    dn = np.max(np.abs(F - np.arange(0, n) / n))
    assert ks_distance(F) == float(max(up, dn))


def test_densities_reject_negative_gains():
    # one input rule for all three models: a negative or non-finite gain,
    # or a distance factor that is not positive and finite, raises instead
    # of giving a silent 0, nan or inf
    densities = (partial(pdf_g, params=fit_gparams(3, 0.5)),
                 partial(pdf_double_rayleigh, sigma2=0.5),
                 partial(pdf_clt, moments=analytic_moments(3, 0.5)))
    for density in densities:
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x >= 0"):
                density(np.array([0.5, bad]))
            with pytest.raises(ValueError, match="x >= 0"):
                density(bad)
        for D in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="distance factor"):
                density(0.5, D=D)
    assert pdf_clt(0.0, analytic_moments(3, 0.5)) > 0.0


def test_the_fit_is_solved_once_per_scenario():
    assert fit_gparams(7, 0.5) is fit_gparams(7, 0.5)


def test_fit_validation():
    assert issubclass(FittingError, Exception)
    with pytest.raises(ValueError):
        fit_gparams(0, 0.5)
    with pytest.raises(ValueError):
        fit_gparams(3, -1.0)


@pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda s2: analytic_moments(3, s2),
    lambda s2: empirical_moments(2, s2),
    lambda s2: fit_gparams(3, s2),
    lambda s2: pdf_double_rayleigh(1.0, s2),
], ids=["analytic_moments", "empirical_moments", "fit_gparams",
        "pdf_double_rayleigh"])
def test_sigma2_must_be_positive_and_finite(entry, sigma2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            entry(sigma2)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(min_value=1, max_value=32),
       sigma2=st.floats(min_value=0.05, max_value=5.0))
def test_fit_moment_identity_property(M, sigma2):
    # the moment identity must hold everywhere, not just at pinned points
    p = fit_gparams(M, sigma2)
    mom = analytic_moments(M, sigma2)
    a4, a5 = complex(p.a4), complex(p.a5)
    for i, want in enumerate(mom.as_tuple(), start=1):
        lg = (p.log_a1 + (i + 1) * math.log(p.a2)
              + sp.loggamma(a4 + 1 + i) + sp.loggamma(a5 + 1 + i)
              - sp.loggamma(p.a3 + 1 + i))
        got = complex(np.exp(lg))
        assert got.real == pytest.approx(want, rel=1e-8)
    assert p.complex_pair == (M <= 3)
