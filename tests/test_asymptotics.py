"""High-SNR expansion and the diversity order it predicts."""

import math
from types import SimpleNamespace

import pytest

import lisnoma.asymptotics as asym
from lisnoma import (analytic_diversity, diversity_order, pep_asymptotic,
                     pep_general)
from lisnoma.specfun import _nonpositive_int

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
        assert not a.coincident and not a.fell_back
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
    monkeypatch.setattr(asym, "_fit", lambda M, s2: fake)
    out = pep_asymptotic(cfg, 1, event_u1, snr_db=20.0)
    assert out.coincident and out.fell_back
    exact = pep_general(cfg, 1, event_u1, snr_db=20.0)
    assert out.value == pytest.approx(exact.value, rel=1e-12)
    assert out.terms == ()


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
    d = rep.to_dict()
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
