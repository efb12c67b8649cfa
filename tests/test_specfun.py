"""Mellin-Barnes kernel engines.

Reference values were computed with mpmath.meijerg at 40 significant
digits and are frozen here; the two evaluation paths are also checked
against each other and against elementary identities.
"""

import collections
import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy
import scipy.special

from lisnoma import (build_event, default_config, fit_gparams, pep_general,
                     specfun)
from lisnoma.pdf_approx import pdf_g, quadrature_domain
from lisnoma.specfun import (ConvergenceError, _contour_log, _family_sums,
                             _nonpositive_int, _offsets_1443, _series_2012,
                             meijer_g_1443, meijer_g_2012)

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


def _contour_2012(z, a3, a4, a5):
    # the density kernel on its contour path alone, at its 1e-10 tolerance
    log_abs, sign, _ = _contour_log(
        np.array([z]), specfun._ratio((a4, a5), (), (a3,), ()))
    return float(sign[0] * np.exp(log_abs[0]))


def _seven_factor_ratio_1443(a3, a4, a5):
    # the Chernoff kernel's integrand before Legendre's duplication folds
    # its pairs: Gamma(s) times the four ``minus`` factors over the two
    # ``den_minus`` ones, with no constant and no 4^s
    plus, minus, den_minus = _offsets_1443(a3, a4, a5)
    return specfun._ratio(plus, minus, (), den_minus)


def _contour_1443(zeta, a3, a4, a5):
    # the Chernoff kernel at its 1e-9 tolerance, each line at its saddle
    log_abs, sign, specs = specfun.meijer_g_1443_log(
        np.array([zeta]), a3, a4, a5)
    return float(sign[0] * np.exp(log_abs[0])), specs[0]


def _fixed_line_1443(zeta, c, a3, a4, a5):
    # the Chernoff kernel at its 1e-9 tolerance on the line Re s = c,
    # built and summed outside the memo, then scaled as _contour_log and
    # meijer_g_1443_log do
    ratio, log_const = specfun._integrand_1443(a3, a4, a5)
    cs = np.array([c])
    line, = specfun._new_lines(cs, ratio, ratio.log(cs).real)
    lnz = np.log(np.array([zeta]))
    sums, _ = specfun._band_sums(lnz, line, ratio, 1e-9)
    log_abs = (line.g0 - line.c * lnz[0] + math.log(abs(sums[0]))
               - specfun._LN2PI + log_const)
    return float(np.sign(sums[0]) * math.exp(log_abs))


@pytest.mark.parametrize("name,z", sorted(REFERENCE))
def test_kernel_matches_mpmath(name, z):
    a3, a4, a5 = _params(name)
    got = float(meijer_g_2012(np.array([z]), a3, a4, a5)[0])
    assert got == pytest.approx(REFERENCE[(name, z)], rel=1e-9)


@pytest.mark.parametrize("name,z", sorted(REFERENCE))
def test_contour_path_matches_mpmath_tightly(name, z):
    a3, a4, a5 = _params(name)
    got = _contour_2012(z, a3, a4, a5)
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
        ref = _contour_2012(z, a3, a4, a5)
        got, err = _series_2012(np.array([z]), a3, a4, a5)
        if err[0] > 1e-11:      # the cutoff past which auto mode declines
            continue
        assert got[0] == pytest.approx(ref, rel=1e-8)
        agreed += 1
    assert agreed >= 5


def _series_2012_complex(z, a3, a4, a5):
    # the residue series with every family summed in complex128, as the
    # kernel did before real fits ran in float64 and conjugate pairs once
    z = np.atleast_1d(np.asarray(z, dtype=float))
    total = np.zeros_like(z, dtype=complex)
    mag = np.zeros_like(z)
    for b, other in ((a4, a5), (a5, a4)):
        if _nonpositive_int(a3 - b, 1e-12):
            continue
        logpref = (scipy.special.loggamma(complex(other - b))
                   - scipy.special.loggamma(complex(a3 - b))
                   + b * np.log(z) - z)
        pref = np.exp(logpref)
        alpha = complex(a3 - other)
        beta = complex(1 + b - other)
        term = np.ones_like(z, dtype=complex)
        acc = np.ones_like(z, dtype=complex)
        accmag = np.ones_like(z)
        for k in range(specfun._SERIES_TERMS):
            term *= alpha + k
            term *= z
            term /= (beta + k) * (k + 1)
            acc += term
            size = np.abs(term)
            accmag += size
            if k > 3 and (size <= specfun._SERIES_RTOL * np.abs(acc)).all():
                break
        else:
            raise ConvergenceError("residue series exhausted its term budget")
        total = total + pref * acc
        mag = mag + np.abs(pref) * accmag
    result = np.real(total)
    err = np.full_like(result, np.inf)
    ok = np.isfinite(result) & (result != 0)
    scale = np.maximum(np.abs(result[ok]), 1e-300)
    with np.errstate(over="ignore"):
        err[ok] = mag[ok] / scale * 2e-16 + np.abs(np.imag(total[ok])) / scale
    return result, err


# the series range, evenly and by decades
SERIES_GRIDS = (np.linspace(0.025, 10.0, 400), np.geomspace(1e-3, 10.0, 400))


def _assert_series_bits(a3, a4, a5):
    for zs in SERIES_GRIDS:
        got = _series_2012(zs, a3, a4, a5)
        want = _series_2012_complex(zs, a3, a4, a5)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("M", range(1, 65))
def test_series_equals_the_all_complex_loop(M):
    # float64 sums at real fits (M >= 4) and one loop per conjugate pair
    # (M <= 3) must leave every value and error estimate unchanged
    p = fit_gparams(M, 0.5)
    assert p.complex_pair == (M <= 3)
    _assert_series_bits(p.a3, p.a4, p.a5)


@pytest.mark.parametrize("a3,a4,a5", [(1.7, 1.7, 0.0), (2.5, 3.5, 0.3),
                                      (0.4, 1.4, 2.25)])
def test_series_with_one_family_skipped_equals_the_all_complex_loop(
        a3, a4, a5):
    # a3 - a4 is 0 or -1, so the reciprocal gamma drops the first family
    assert _nonpositive_int(a3 - a4, 1e-12)
    _assert_series_bits(a3, a4, a5)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_conjugate_families_sum_to_exact_conjugates(M):
    # the reuse of the first family's sums rests on numpy's complex
    # product, quotient and modulus being symmetric under conjugation
    p = fit_gparams(M, 0.5)
    alpha, beta = complex(p.a3 - p.a5), complex(1 + p.a4 - p.a5)
    assert alpha.imag != 0
    for zs in SERIES_GRIDS:
        acc, accmag = _family_sums(zs, alpha, beta)
        acc2, accmag2 = _family_sums(zs, alpha.conjugate(),
                                     beta.conjugate())
        assert np.array_equal(acc2, np.conj(acc))
        assert np.array_equal(accmag2, accmag)


def test_real_family_sums_in_float64():
    p = fit_gparams(6, 0.5)
    acc, accmag = _family_sums(SERIES_GRIDS[0], complex(p.a3 - p.a5),
                               complex(1 + p.a4 - p.a5))
    assert acc.dtype == accmag.dtype == np.float64


@pytest.mark.parametrize("M", [3, 6])
def test_series_out_of_terms_raises_on_either_branch(M, monkeypatch):
    # M = 3 sums a conjugate pair in complex128, M = 6 real families in
    # float64; neither may return a sum cut short by its term budget
    monkeypatch.setattr(specfun, "_SERIES_TERMS", 3)
    p = fit_gparams(M, 0.5)
    with pytest.raises(ConvergenceError, match="term budget"):
        _series_2012(SERIES_GRIDS[0], p.a3, p.a4, p.a5)


def test_integer_separated_parameters_take_the_contour():
    # the residue series is invalid when a4 - a5 is an integer; auto mode
    # must send such points to the contour and still meet its tolerance
    import mpmath as mp
    zs = np.array([0.5, 2.0, 9.0, 25.0])
    got = meijer_g_2012(zs, 5.0, 3.0, 2.0)
    with mp.workdps(30):
        for z, g in zip(zs, got):
            ref = mp.meijerg([[], [5.0]], [[3.0, 2.0], []], z)
            assert g == pytest.approx(float(mp.re(ref)), rel=1e-12)


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


@pytest.mark.parametrize("M", [1, 3, 15, 64])
def test_lines_sized_by_pole_distance_meet_mpmath(M):
    # a line's first level is spaced a quarter of its pole distance, with
    # at least 33 nodes: both kernels must still meet 30-digit mpmath to
    # 1e-10, some lines must converge on fewer than 257 nodes (the least
    # that a 129-node floor allowed), and the first doubling must confirm
    # the first level on all but one of the 37 lines (a line at M = 15
    # and one at M = 64 need a second doubling)
    import mpmath as mp
    specfun._LINES.clear()
    p = fit_gparams(M, 0.5)
    zetas = 10.0 ** (np.arange(-4, 29) / 2)     # 1e-2 to 1e14
    zs = np.array([12.0, 40.0, 150.0, 500.0])
    log_abs, sign, specs = specfun.meijer_g_1443_log(zetas, p.a3, p.a4,
                                                     p.a5)
    _, _, specs_2012 = _contour_log(
        zs, specfun._ratio((p.a4, p.a5), (), (p.a3,), ()))
    vals = meijer_g_2012(zs, p.a3, p.a4, p.a5)
    a3, a4, a5 = p.a3, complex(p.a4), complex(p.a5)
    upper = [1 + a3 / 2, (1 + a3) / 2]
    lower = [1 + a4 / 2, (1 + a4) / 2, 1 + a5 / 2, (1 + a5) / 2]
    with mp.workdps(30):
        for zeta, la, sg in zip(zetas, log_abs, sign):
            ref = mp.re(mp.meijerg([[1], upper], [lower, []], 1 / zeta))
            assert sg == mp.sign(ref)
            assert abs(math.expm1(la - float(mp.log(abs(ref))))) <= 1e-10
        for z, v in zip(zs, vals):
            ref = mp.meijerg([[], [a3]], [[a4, a5], []], z)
            assert v == pytest.approx(float(mp.re(ref)), rel=1e-10)
    assert min(s.nodes for s in specs) < 257
    assert min(s.nodes for s in specs_2012) < 257
    # a cold line that converges at its first doubling holds two levels
    lines = list(specfun._LINES.values())
    assert len(lines) == len(specs) + len(specs_2012) == 37
    assert sum(len(line.levels) > 2 for line in lines) <= 1


# fits at which every contour value is compared between a one-argument
# call and a batch: one-argument calls sum a (factors, 1) array of gamma
# logs, so a reordered sum of the factors shows there first
SINGLE_M = (1, 3, 4, 6, 16)
SINGLE_ZETAS = np.geomspace(1e-4, 1e6, 200)
SINGLE_ZS = np.geomspace(10.05, 400.0, 200)     # all on the contour path


# fits at which each one-argument call also builds its line cold: a
# conjugate pair (M = 3) and a real fit (M = 6). A lone band runs its
# saddle bracket and its doubling test on Python floats, a batch on arrays.
COLD_M = (3, 6)


def test_value_does_not_depend_on_the_batch():
    # on the contour path (z > 10 here, and the Chernoff kernel
    # everywhere) a value depends on its argument alone, not on what
    # shares its call; series-path values depend on their batch
    assert fit_gparams(3, 0.5).complex_pair
    assert not fit_gparams(6, 0.5).complex_pair
    moved = []
    for M in SINGLE_M:
        p = fit_gparams(M, 0.5)
        for kernel, args in ((meijer_g_1443, SINGLE_ZETAS),
                             (meijer_g_2012, SINGLE_ZS)):
            batch = kernel(args, p.a3, p.a4, p.a5)
            moved += [(M, kernel.__name__, float(v))
                      for v, b in zip(args, batch)
                      if kernel(float(v), p.a3, p.a4, p.a5) != b]
            if M not in COLD_M:
                continue
            for v, b in zip(args, batch):
                specfun._LINES.clear()
                if kernel(float(v), p.a3, p.a4, p.a5) != b:
                    moved.append((M, kernel.__name__, float(v), "cold"))
    assert moved == []


def _log_by_rows(ratio, s):
    # log F(s) as explicit row additions, one gamma factor after another
    offset, direction, sign = ratio._columns[s.ndim]
    terms = sign * scipy.special.loggamma(offset + direction * s)
    out = terms[0]
    for row in terms[1:]:
        out = out + row
    if ratio._log_base:
        out = out + s * ratio._log_base
    return out


@pytest.mark.parametrize("shape", [(1,), (2,), (17,), (257,), (1, 1),
                                   (1, 17), (3, 17), (5, 1)])
def test_gamma_ratio_log_adds_its_factors_row_by_row(shape):
    # log F must add its factors row by row, in order, signed zeros
    # included, on points of one and two dimensions. numpy's sum over the
    # factor axis would not: it sums a lone point's column pairwise, and
    # it starts from +0, so negative zeros would sum to +0
    ratios = []
    for M in (3, 8):
        p = fit_gparams(M, 0.5)
        ratios.append(specfun._integrand_1443(p.a3, p.a4, p.a5)[0])
        ratios.append(_seven_factor_ratio_1443(p.a3, p.a4, p.a5))
        ratios.append(specfun._ratio((p.a4, p.a5), (), (p.a3,), ()))
    # denominator factors alone, each Gamma between 1 and 2 at s = 0.9:
    # on the real axis every factor's log has imaginary part -0
    ratios.append(specfun._GammaRatio((), (), (0.5, 0.7), (2.5,)))
    # one call on all the nodes, or a lone point per call at each of 33
    size = math.prod(shape)
    grids = ([np.linspace(0.0, 40.0, size).reshape(shape)] if size > 1
             else [np.full(shape, v) for v in np.linspace(0.0, 40.0, 33)])
    negative_zeros = 0
    for ratio in ratios:
        c = ratio.lo + 0.3 if math.isfinite(ratio.lo) else 0.9
        for tk in grids:
            for s in (c + 1j * tk, np.conj(c + 1j * tk)):
                got, want = ratio.log(s), _log_by_rows(ratio, s)
                assert got.shape == want.shape == shape
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))
                negative_zeros += np.count_nonzero(
                    (want.imag == 0) & np.signbit(want.imag))
    assert negative_zeros > 0


def test_node_doubling_raises_at_its_cap():
    # a line 1e-7 from the pole of Gamma(s) carries a spike no affordable
    # node spacing resolves; the doubling must fail loudly, not settle
    a3, a4, a5 = M3_PARAMS
    with pytest.raises(ConvergenceError, match="cap"):
        _fixed_line_1443(0.37, 1e-7, a3, a4, a5)


def test_kernel_input_validation():
    a3, a4, a5 = M6_PARAMS
    with pytest.raises(ValueError):
        meijer_g_2012(np.array([-1.0]), a3, a4, a5)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            meijer_g_1443(bad, a3, a4, a5)
    # rejected up front, not after the contour's tail search gives up
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            meijer_g_2012(np.array([2.0, bad]), a3, a4, a5)
        with pytest.raises(ValueError, match="finite"):
            meijer_g_1443(np.array([2.0, bad]), a3, a4, a5)
    assert float(meijer_g_2012(np.array([0.0]), a3, a4, a5)[0]) == 0.0
    out = meijer_g_2012(np.array([[0.5, 1.0], [2.0, 3.0]]), a3, a4, a5)
    assert out.shape == (2, 2)


def test_chernoff_kernel_keeps_the_shape_of_its_argument():
    # the log form takes 1-D arrays only; meijer_g_1443 ravels an N-D
    # argument on the way in and restores its shape on the way out
    a3, a4, a5 = M3_PARAMS
    zeta = np.array([[0.05, 0.37, 2.0], [9.0, 40.0, 300.0]])
    flat = meijer_g_1443(zeta.ravel(), a3, a4, a5)
    out = meijer_g_1443(zeta, a3, a4, a5)
    assert out.shape == (2, 3)
    assert out.ravel().tolist() == flat.tolist()
    one = meijer_g_1443(0.37, a3, a4, a5)
    assert type(one) is float
    assert one == meijer_g_1443(np.array([0.37]), a3, a4, a5)[0]


@pytest.mark.filterwarnings("error")
def test_chernoff_kernel_refuses_a_value_past_float64():
    # at M = 256 the log form holds log G = 1464.8 at zeta = 1e-2, past
    # float64: the value form must refuse it, not return inf under an
    # overflow warning. log G = -779.3 at zeta = 1e3 rounds to 0.0
    p = fit_gparams(256, 0.5)
    log_abs, sign, _ = specfun.meijer_g_1443_log(np.array([1e-2, 1e3]),
                                                 p.a3, p.a4, p.a5)
    assert log_abs.tolist() == pytest.approx([1464.77, -779.32], abs=0.01)
    assert sign.tolist() == [1.0, 1.0]
    for zeta in (1e-2, np.array([1e3, 1e-2])):
        with pytest.raises(ValueError, match="meijer_g_1443_log"):
            meijer_g_1443(zeta, p.a3, p.a4, p.a5)
    assert meijer_g_1443(1e3, p.a3, p.a4, p.a5) == 0.0


def test_averaging_transform_abscissa_independence():
    # the contour value must not depend on where the line is anchored
    a3, a4, a5 = M3_PARAMS
    base, spec = _contour_1443(0.37, a3, a4, a5)
    assert base == meijer_g_1443(0.37, a3, a4, a5)
    for shift in (-0.1, 0.1):
        moved = _fixed_line_1443(0.37, spec.abscissa + shift, a3, a4, a5)
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


# sha256 of the float64 bytes of each kernel on a fixed grid, at the fits
# for M = 1, 3, 6, 15 and 32. The 2012 grid covers the series range too,
# where M >= 3 sends many points to the contour (above z = 2 at M = 32).
# loggamma, exp and cos come from the platform's libm and numpy's own
# vector loops, so the bits are pinned only for the versions below.
KERNEL_VERSIONS = ("2.4.6", "1.17.1")     # numpy, scipy
KERNEL_ZETAS = np.geomspace(1e-4, 1e6, 161)
KERNEL_ZS = np.concatenate([np.linspace(0.25, 10.0, 40),
                            np.geomspace(10.05, 400.0, 120)])
KERNEL_GOLDEN = {
    1: ("ec431a6776041c1dff5927dadc13a2354ac915555d057863ce758c5a762508eb",
        "65e00cf4aef3d2cae6eff16db05cec0becf9e9075fac1b8709d757da553e3fbb"),
    3: ("b2551a8a717bdc9315076e4ad879b5c12550f41b6a5881b8538ae7e4a26e7345",
        "461cb9df079ba0a33c85e2a75581f4bbffe76d0873964e251a39244c1f1e6d7e"),
    6: ("13957ca832fdf37adc6d9a14c90f02a2d328ebd7519836d3f4c78c143262ec9a",
        "896da4a23f8d9f1d18d1ecd0b71f180b345f3daea29f038b99a9f3651330cd57"),
    15: ("3638264c1ec8e6d38df4422ee33ae048ab37021ef4afe4ae4e8b06fb6e825b43",
         "1afc519ab8c5391ed1f21044c73bcaf6ad55a9703a65c801e0680b5b5984e3dd"),
    32: ("57f7b8a11b5bda89f540d7a4104af9d1c4ca3c7a90db17dca064e1fd78dad8e1",
         "35b0c4f886d952cdd0573cc58e60d95509cfd3b868346cf50236f91705dcc8ae"),
}


def _kernel_digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("M", sorted(KERNEL_GOLDEN))
def test_kernel_bits_are_pinned(M):
    if (np.__version__, scipy.__version__) != KERNEL_VERSIONS:
        pytest.skip("kernel digests were recorded with numpy %s and scipy %s"
                    % KERNEL_VERSIONS)
    p = fit_gparams(M, 0.5)
    got = (_kernel_digest(meijer_g_1443(KERNEL_ZETAS, p.a3, p.a4, p.a5)),
           _kernel_digest(meijer_g_2012(KERNEL_ZS, p.a3, p.a4, p.a5)))
    assert got == KERNEL_GOLDEN[M]


# conjugate-pair fits (M <= 3) and real fits up to M = 64
@pytest.mark.parametrize("M", [1, 2, 3, 6, 15, 32, 64])
def test_folded_integrand_equals_the_seven_factor_contour(M):
    # folding the kernel's duplication pairs must leave every value within
    # 1e-12 and every band's line (abscissa, half-length, nodes) unchanged
    p = fit_gparams(M, 0.5)
    ratio, _ = specfun._integrand_1443(p.a3, p.a4, p.a5)
    seven = _seven_factor_ratio_1443(p.a3, p.a4, p.a5)
    assert (ratio.lo, ratio.hi, ratio.decay) == (seven.lo, seven.hi,
                                                 seven.decay)
    assert ratio._columns[1][0].size == 4
    log_abs, sign, specs = specfun.meijer_g_1443_log(KERNEL_ZETAS, p.a3,
                                                     p.a4, p.a5)
    log7, sign7, specs7 = _contour_log(KERNEL_ZETAS, seven, rtol=1e-9)
    assert np.array_equal(sign, sign7)
    assert np.max(np.abs(np.expm1(log_abs - log7))) <= 1e-12
    line = [(s.band, s.abscissa, s.half_length, s.nodes) for s in specs]
    assert line == [(s.band, s.abscissa, s.half_length, s.nodes)
                    for s in specs7]
    assert {s.integrand for s in specs} == {ratio.key}


# sha256 of the float64 bytes of pep_general's raw values, one SNR point
# per call on 0:40:2 dB, for user 1's and then user 2's canonical event,
# at each of SINGLE_M; pinned for the versions in KERNEL_VERSIONS
PEP_SNR_DB = tuple(float(s) for s in range(0, 41, 2))
PEP_GOLDEN = {
    1: "4f4e8d536bd80cb59426cd7ffc6dae3e03651ae924079a1a3d2453dcf1cb6de9",
    3: "a0e42079f86323f06f126d194c5080b6090ce463f098014a6d07ece449ee7ce4",
    4: "05406cd623b4b67c65ef7d05936a7c850d260e547c1547f34acab9b72eee3778",
    6: "66fb803672837c94b297317e392af6844544c23da1d137c0158a3e31439c9129",
    16: "24d4f27aad9ec49a652d7ef2ac3ce4516f47a9e0d7de271ef467fff376dae436",
}


@pytest.mark.parametrize("M", SINGLE_M)
def test_one_point_pep_bits_are_pinned(M):
    if (np.__version__, scipy.__version__) != KERNEL_VERSIONS:
        pytest.skip("pep digests were recorded with numpy %s and scipy %s"
                    % KERNEL_VERSIONS)
    cfg = default_config(M=M)
    raws = []
    for user, sic in ((1, ()), (2, (0.0,))):
        ev = build_event(cfg, user, (1.0, 1.0), -1.0, sic)
        raws += [pep_general(cfg, user, ev, snr_db=s).raw for s in PEP_SNR_DB]
    assert _kernel_digest(raws) == PEP_GOLDEN[M]


# arguments for the memo tests: the 2012 grid reaches the contour above
# z = 10 (and below it where the series declines); together the two grids
# span 51 bands, fewer than the memo keeps
MEMO_ZS = np.concatenate([np.linspace(2.0, 10.0, 9),
                          np.geomspace(10.5, 150.0, 40)])
MEMO_ZETAS = np.geomspace(1e-2, 1e1, 60)


def _memo_values(M):
    p = fit_gparams(M, 0.5)
    return (meijer_g_2012(MEMO_ZS, p.a3, p.a4, p.a5),
            meijer_g_1443(MEMO_ZETAS, p.a3, p.a4, p.a5))


def _touch_many_bands():
    # more bands than the memo keeps, at offsets the tests do not use
    a3, a4, a5 = M6_PARAMS
    zetas = np.geomspace(1e-6, 1e12, 400)
    assert np.unique(np.floor(np.log(zetas) / specfun._BAND_LOG)).size \
        > specfun._MAX_LINES
    meijer_g_1443(zetas, a3, a4, a5)


@pytest.mark.parametrize("M", [1, 3, 32])
def test_value_does_not_depend_on_the_call_history(M):
    specfun._LINES.clear()
    cold = _memo_values(M)

    # warm: some of the same bands built by sparser and denser calls,
    # other bands, and other offsets
    specfun._LINES.clear()
    p = fit_gparams(M, 0.5)
    meijer_g_1443(MEMO_ZETAS[::7], p.a3, p.a4, p.a5)
    meijer_g_1443(np.geomspace(5e-4, 3e2, 301), p.a3, p.a4, p.a5)
    meijer_g_2012(MEMO_ZS[-5:], p.a3, p.a4, p.a5)
    meijer_g_2012(np.geomspace(40.0, 900.0, 80), *M3_PARAMS)
    warm = _memo_values(M)

    _touch_many_bands()
    evicted = _memo_values(M)
    for a, b, c in zip(cold, warm, evicted):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_warm_band_evaluates_no_gamma_factors(monkeypatch):
    specfun._LINES.clear()
    _memo_values(3)
    calls = []
    log = specfun._GammaRatio.log

    def counted(self, s):
        calls.append(np.size(s))
        return log(self, s)

    monkeypatch.setattr(specfun._GammaRatio, "log", counted)
    again = _memo_values(3)
    assert calls == []
    specfun._LINES.clear()
    assert all(np.array_equal(a, b) for a, b in zip(again, _memo_values(3)))
    assert calls        # a cold memo does evaluate them


def test_memo_never_exceeds_its_cap(monkeypatch):
    sizes = []

    class Watched(collections.OrderedDict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(specfun, "_LINES", Watched())
    for M in (1, 3, 32):
        _memo_values(M)
    _touch_many_bands()
    assert max(sizes) == len(specfun._LINES) == specfun._MAX_LINES


def test_threads_sharing_the_memo_get_the_cold_values():
    # threads building and extending the same lines at once: a doubling
    # level lost or appended twice would shift values or break a shape
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for M in (3, 32):
            specfun._LINES.clear()
            cold = _memo_values(M)
            for _ in range(5):
                specfun._LINES.clear()
                got, errors = [], []

                def work():
                    try:
                        got.append(_memo_values(M))
                    except Exception as exc:    # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=work) for _ in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert errors == []
                assert len(got) == 6
                for vals in got:
                    assert all(np.array_equal(a, b)
                               for a, b in zip(vals, cold))
    finally:
        sys.setswitchinterval(interval)
