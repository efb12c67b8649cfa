"""Mellin-Barnes kernel engines.

Reference values were computed with mpmath.meijerg at 40 significant
digits and are frozen here; the two evaluation paths are also checked
against each other and against elementary identities.
"""

import math
import warnings

import numpy as np
import pytest

from lisnoma import fit_gparams
from lisnoma.pdf_approx import pdf_g, quadrature_domain
from lisnoma.specfun import ConvergenceError, meijer_g_1443, meijer_g_2012

# shape parameters of the fitted kernels these engines exist for
M3_PARAMS = (5.6832113559305000221,
             complex(4.6089071282779128406, 0.23956988381406467966),
             complex(4.6089071282779128406, -0.23956988381406467966))
M6_PARAMS = (12.580947883020529201, 11.000439635752007123,
             9.6786635559473702909)

# mpmath.meijerg([[], [a3]], [[a4, a5], []], z), 40 digits
REFERENCE = {
    ("M3", 0.5): 0.0209230122314855637,
    ("M3", 5.0): 1.64295857152400119,
    ("M3", 25.0): 1.15862306620868858e-6,
    ("M6", 0.5): 0.000179227564359270338,
    ("M6", 5.0): 1622.35973471800962,
    ("M6", 25.0): 2.46071952380696433,
}


def _params(name):
    return {"M3": M3_PARAMS, "M6": M6_PARAMS}[name]


@pytest.mark.parametrize("name,z", sorted(REFERENCE))
def test_kernel_matches_mpmath(name, z):
    a3, a4, a5 = _params(name)
    got = float(meijer_g_2012(np.array([z]), a3, a4, a5)[0])
    assert got == pytest.approx(REFERENCE[(name, z)], rel=1e-9)


@pytest.mark.parametrize("name,z", sorted(REFERENCE))
def test_contour_path_matches_mpmath_tightly(name, z):
    a3, a4, a5 = _params(name)
    got = float(meijer_g_2012(np.array([z]), a3, a4, a5, method="contour")[0])
    assert got == pytest.approx(REFERENCE[(name, z)], rel=1e-12)


def test_exponential_identity():
    # a matching upper and lower parameter cancels, leaving z^0 * exp(-z)
    for z in (0.25, 1.0, 4.0):
        got = float(meijer_g_2012(np.array([z]), 1.7, 1.7, 0.0)[0])
        assert got == pytest.approx(math.exp(-z), rel=1e-12)


def test_series_and_contour_paths_agree():
    # the series may decline points where it loses digits; wherever it
    # does answer it must agree with the contour
    a3, a4, a5 = M3_PARAMS
    agreed = 0
    for z in np.linspace(0.5, 9.5, 10):
        ref = float(meijer_g_2012(np.array([z]), a3, a4, a5,
                                  method="contour")[0])
        try:
            got = float(meijer_g_2012(np.array([z]), a3, a4, a5,
                                      method="series")[0])
        except ConvergenceError:
            continue
        assert got == pytest.approx(ref, rel=1e-8)
        agreed += 1
    assert agreed >= 5


def test_series_refuses_integer_separated_parameters():
    with pytest.raises(ConvergenceError, match="integer"):
        meijer_g_2012(np.array([2.0]), 5.0, 3.0, 2.0, method="series")
    # the automatic path must still deliver a value there
    v = float(meijer_g_2012(np.array([2.0]), 5.0, 3.0, 2.0)[0])
    assert v > 0


def test_cancelled_series_falls_back_without_warnings():
    # at M = 32 the residue series sums to exactly 0 near z = 9.10, where
    # the kernel is about 5.7e38; auto mode must move such points to the
    # contour without an overflow in the error estimate
    import mpmath as mp
    p = fit_gparams(32, 0.5)
    xs = np.linspace(0.0, quadrature_domain(32, 0.5), 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = pdf_g(xs, p)
    zs = xs / p.a2
    for target in (8.77, 9.10, 9.44):
        i = int(np.argmin(np.abs(zs - target)))
        assert abs(zs[i] - target) < 0.01
        with mp.workdps(30):
            ref = mp.meijerg([[], [p.a3]], [[p.a4, p.a5], []], zs[i])
        want = math.exp(p.log_a1) * float(mp.re(ref))
        assert vals[i] == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("M", [1, 3, 24, 32])
def test_banded_contour_matches_mpmath(M):
    # one abscissa serves a whole band of arguments; bands twice as wide
    # put the line far enough off the saddle of arguments near z = 134 and
    # 156-161 to lose digits (about 1e-11 at M = 24 and 32)
    import mpmath as mp
    p = fit_gparams(M, 0.5)
    zs = np.array([10.5, 40.0, 100.0, 134.0, 156.0, 161.0])
    got = meijer_g_2012(zs, p.a3, p.a4, p.a5)
    with mp.workdps(30):
        for z, g in zip(zs, got):
            ref = mp.meijerg([[], [p.a3]], [[p.a4, p.a5], []], z)
            assert g == pytest.approx(float(mp.re(ref)), rel=1e-12)


def test_value_does_not_depend_on_the_batch():
    # a value depends on its argument alone, not on what shares its call
    a3, a4, a5 = M3_PARAMS
    zs = np.linspace(10.5, 120.0, 500)
    batch = meijer_g_2012(zs, a3, a4, a5)
    zetas = np.logspace(-2, 4, 500)
    batch_1443 = meijer_g_1443(zetas, a3, a4, a5)
    for i in (0, 137, 499):
        assert meijer_g_2012(float(zs[i]), a3, a4, a5) == batch[i]
        assert meijer_g_1443(float(zetas[i]), a3, a4, a5) == batch_1443[i]


def test_node_doubling_raises_at_its_cap():
    # a line 1e-7 from the pole of Gamma(s) carries a spike no affordable
    # node spacing resolves; the doubling must fail loudly, not settle
    a3, a4, a5 = M3_PARAMS
    with pytest.raises(ConvergenceError, match="cap"):
        meijer_g_1443(0.37, a3, a4, a5, abscissa=1e-7)


def test_kernel_input_validation():
    a3, a4, a5 = M6_PARAMS
    with pytest.raises(ValueError):
        meijer_g_2012(np.array([-1.0]), a3, a4, a5)
    assert float(meijer_g_2012(np.array([0.0]), a3, a4, a5)[0]) == 0.0
    out = meijer_g_2012(np.array([[0.5, 1.0], [2.0, 3.0]]), a3, a4, a5)
    assert out.shape == (2, 2)


def test_averaging_transform_abscissa_independence():
    # the contour value must not depend on where the line is anchored
    a3, a4, a5 = M3_PARAMS
    base, spec = meijer_g_1443(0.37, a3, a4, a5, full_output=True)
    for shift in (-0.1, 0.1):
        moved = meijer_g_1443(0.37, a3, a4, a5,
                              abscissa=spec.abscissa + shift)
        assert moved == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("M", [1, 3, 15])
def test_small_argument_limit_recovers_unit_mass(M):
    # K * G(zeta) -> 1 as zeta -> 0: the averaged bound saturates at one
    p = fit_gparams(M, 0.5)
    log_k = (p.log_a1 + math.log(p.a2) + (p.a6 - p.a3) * math.log(2.0)
             - 0.5 * math.log(math.pi))
    g = meijer_g_1443(1e-8, p.a3, p.a4, p.a5)
    assert math.exp(log_k) * g == pytest.approx(1.0, abs=1e-5)


def test_averaging_transform_is_monotone_in_its_argument():
    a3, a4, a5 = M3_PARAMS
    vals = [meijer_g_1443(z, a3, a4, a5) for z in (0.1, 1.0, 10.0, 100.0)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


# frozen from the mpmath check below, 30 digits
REFERENCE_1443 = {0.37: 0.3612580904651442, 2.0: 0.043088834642766756,
                  20.0: 0.0005199124065463303}


@pytest.mark.parametrize("zeta", sorted(REFERENCE_1443))
def test_averaging_transform_matches_mpmath(zeta):
    a3, a4, a5 = M3_PARAMS
    got = meijer_g_1443(zeta, a3, a4, a5)
    assert got == pytest.approx(REFERENCE_1443[zeta], rel=1e-8)


def test_averaging_transform_mpmath_referee_live():
    # independent evaluation through mpmath's reciprocal-argument layout
    import mpmath as mp
    a3, a4, a5 = M3_PARAMS
    upper = [1 + a3 / 2, (1 + a3) / 2]
    lower = [1 + complex(a4) / 2, (1 + complex(a4)) / 2,
             1 + complex(a5) / 2, (1 + complex(a5)) / 2]
    with mp.workdps(25):
        for zeta in (0.8, 60.0):
            ref = mp.meijerg([[1.0], upper], [lower, []], 1.0 / zeta)
            assert abs(float(mp.im(ref))) < 1e-20
            got = meijer_g_1443(zeta, a3, a4, a5)
            assert got == pytest.approx(float(mp.re(ref)), rel=1e-8)
