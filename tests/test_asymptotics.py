"""High-SNR expansion and the diversity order it predicts."""

import cmath
import dataclasses
import math
import re
from types import SimpleNamespace

import pytest
from scipy import special as sp

import lisnoma.asymptotics as asym
from lisnoma import (analytic_diversity, build_event, default_config,
                     diversity_order, pep_asymptotic, pep_general)
from lisnoma.pep import _chernoff_args, _distance_factor, _resolve_n0
from lisnoma.specfun import _nonpositive_int, _offsets_1443

# (min real lower shape exponent + 1) / 2, from the 60-digit fit solve
ANALYTIC_ORDER = {
    1: 0.89398810795871856,
    3: 2.8044535641389564,
    6: 5.3393317779736851,
    15: 13.112873954401282,
    64: 55.559540830946614,
}


@pytest.mark.parametrize("M", sorted(ANALYTIC_ORDER))
def test_analytic_order_reference_values(M):
    assert analytic_diversity(M, 0.5) == pytest.approx(ANALYTIC_ORDER[M],
                                                       rel=5e-9)


def test_analytic_order_grows_with_element_count():
    vals = [analytic_diversity(M, 0.5) for M in range(1, 65)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # and it does not depend on the fading scale
    assert analytic_diversity(5, 2.0) == pytest.approx(
        analytic_diversity(5, 0.5), rel=1e-9)


def test_expansion_converges_to_the_closed_form(cfg, event_u1):
    errs = []
    for s in (25.0, 35.0, 45.0):
        g = pep_general(cfg, 1, event_u1, snr_db=s).raw
        a = pep_asymptotic(cfg, 1, event_u1, snr_db=s)
        assert not a.coincident
        assert len(a.terms) == 4 and len(a.exponents) == 4
        errs.append(abs(a.raw / g - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_expansion_leading_exponent_is_the_diversity_order(cfg, event_u1):
    a = pep_asymptotic(cfg, 1, event_u1, snr_db=40.0)
    lead = a.exponents[0]
    assert lead.real == pytest.approx(ANALYTIC_ORDER[3], rel=1e-6)


def test_pole_coincidence_falls_back_to_the_exact_value(cfg, event_u1,
                                                        monkeypatch):
    # integer-separated poles would put Gamma poles into the coefficients
    fake = SimpleNamespace(a2=0.5, a3=6.0, a4=3.0, a5=1.0, a6=4.0,
                           log_a1=0.0)
    monkeypatch.setattr(asym, "fit_gparams", lambda M, s2: fake)
    out = pep_asymptotic(cfg, 1, event_u1, snr_db=20.0)
    assert out.coincident
    exact = pep_general(cfg, 1, event_u1, snr_db=20.0)
    assert out.value == pytest.approx(exact.value, rel=1e-12)
    assert out.terms == ()


def test_overflowing_term_is_a_named_error():
    cfg = default_config(M=64).replace(sigma2=0.016)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    with pytest.raises(ValueError, match="overflows float64 at -57 dB"):
        pep_asymptotic(cfg, 1, ev, snr_db=-57.0)


def test_pole_separation_predicate():
    f = lambda w: _nonpositive_int(w, 1e-9)
    assert f(0.0) and f(-1.0) and f(-3.0 + 1e-12j)
    assert not f(1.0) and not f(-0.5) and not f(-2.0 + 0.3j)


@pytest.mark.parametrize("user", [1, 2])
def test_numeric_order_matches_analytic(cfg, user):
    rep = diversity_order(cfg, user)
    assert rep.user == user and rep.M == 3
    assert rep.analytic == pytest.approx(ANALYTIC_ORDER[3], rel=1e-9)
    assert rep.rel_err == pytest.approx(
        abs(rep.numeric - rep.analytic) / rep.analytic, rel=1e-12)
    assert rep.rel_err < 0.05
    assert rep.branch == "complex-pair"
    d = dataclasses.asdict(rep)
    assert d["analytic"] == rep.analytic and d["numeric"] == rep.numeric


def test_numeric_order_is_distance_independent(cfg6):
    # the slope is taken on the normalized bound, so geometry only moves
    # the probing event, not the decay; users agree to secant resolution
    r1 = diversity_order(cfg6, 1)
    r2 = diversity_order(cfg6, 2)
    assert r1.analytic == r2.analytic
    assert r1.numeric == pytest.approx(r2.numeric, rel=0.02)
    assert r1.rel_err < 0.05 and r2.rel_err < 0.05
    assert r1.branch == "a5"


@pytest.mark.parametrize("M", [1, 8])
def test_clipped_flags_every_value_that_is_not_raw(M):
    # the benchmark's closed-form grid, 0 to 40 dB in 2 dB steps, on both
    # canonical events: at M = 1 the sum runs above one at low SNR and
    # below zero after; at M = 8 it is negative at every point
    cfg = default_config(M=M)
    flags = []
    for user in (1, 2):
        ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                         sic_errors=(0.0,) if user == 2 else None)
        for snr in range(0, 41, 2):
            a = pep_asymptotic(cfg, user, ev, snr_db=float(snr))
            assert a.value == min(1.0, max(a.raw, 0.0))
            assert a.clipped == (not 0.0 <= a.raw <= 1.0)
            flags.append(a.clipped)
    if M == 8:
        assert all(flags)
    else:
        assert 0 < sum(flags) < len(flags)


def _asymptotic_by_points(config, user, event, snr_db):
    # pep_asymptotic's raw value and terms with every Gamma factor taken
    # at the point itself, in the order the expansion adds them
    N0 = _resolve_n0(snr_db)
    p = asym.fit_gparams(config.M, config.sigma2)
    zeta, log_k = _chernoff_args(p, _distance_factor(config, user, event),
                                 [event], [N0])
    _, poles, den = _offsets_1443(p.a3, p.a4, p.a5)
    coincident = False
    for j in range(4):
        for i in range(4):
            if i != j and _nonpositive_int(poles[i] - poles[j], 1e-9):
                coincident = True
    if coincident:
        return pep_general(config, user, event, snr_db=snr_db).raw, ()
    lz = math.log(zeta[0])
    terms = []
    for j in range(4):
        qj = poles[j]
        lg = complex(sp.loggamma(qj)) - qj * lz
        for i in range(4):
            if i != j:
                lg += complex(sp.loggamma(poles[i] - qj))
        for d in den:
            lg -= complex(sp.loggamma(d - qj))
        terms.append(cmath.exp(log_k + lg))
    return sum(terms).real, tuple(terms)


def _hex(raw, terms):
    return raw.hex(), [(t.real.hex(), t.imag.hex()) for t in terms]


def test_expansion_equals_the_point_by_point_sum():
    # the benchmark's closed-form grid: its ten fits, 0 to 40 dB in 2 dB
    # steps, both canonical events; the Gamma factors are taken once per
    # fit, and every bit of every term must stay as a point computes it
    moved = []
    for M in (1, 2, 3, 4, 6, 8, 11, 16, 24, 32):
        cfg = default_config(M=M)
        for user in (1, 2):
            ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                             sic_errors=(0.0,) if user == 2 else None)
            for snr in range(0, 41, 2):
                a = pep_asymptotic(cfg, user, ev, snr_db=float(snr))
                want = _asymptotic_by_points(cfg, user, ev, float(snr))
                if a.coincident or _hex(a.raw, a.terms) != _hex(*want):
                    moved.append((M, user, snr))
    assert moved == []


def test_coincident_expansion_still_takes_the_closed_form(cfg, event_u1,
                                                          monkeypatch):
    fake = SimpleNamespace(a2=0.5, a3=6.0, a4=3.0, a5=1.0, a6=4.0,
                           log_a1=0.0)
    monkeypatch.setattr(asym, "fit_gparams", lambda M, s2: fake)
    for snr in (0.0, 20.0, 40.0):
        a = pep_asymptotic(cfg, 1, event_u1, snr_db=snr)
        assert a.coincident and a.terms == ()
        assert _hex(a.raw, a.terms) == _hex(
            *_asymptotic_by_points(cfg, 1, event_u1, snr))


def test_underflowed_secant_point_is_a_named_error():
    # the default grid's 45 dB bound underflows float64 from M = 64 on
    cfg = default_config(M=64)
    with pytest.raises(ValueError, match=r"grid point 45 dB \(its log is "
                                         r"-754\.197\)"):
        diversity_order(cfg, 1)
    rep = diversity_order(default_config(M=56), 1)
    assert math.isfinite(rep.numeric) and rep.rel_err < 0.05


@pytest.mark.parametrize("grid", [(35.0, 35.0), (), (45.0, math.nan)])
def test_secant_grid_needs_two_distinct_points(grid):
    # no grid, a repeated point, or a NaN that min and max pass over
    # gives no secant; the message names the grid
    with pytest.raises(ValueError, match=re.escape(
            f"the secant grid {grid} (dB) needs two distinct points")):
        diversity_order(default_config(M=3), 1, grid_db=grid)
