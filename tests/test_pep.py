"""Pairwise error probabilities: event algebra and the closed forms."""

import collections
import math
import random
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.special import exp1

from lisnoma import (ConvergenceError, build_event, default_config,
                     diversity_order, pep, pep_asymptotic, pep_clt,
                     pep_conditional, pep_general, pep_m1, pep_quadrature,
                     simulate_ber, simulate_pep, union_bound_curve)
from lisnoma.asymptotics import _normalized_probe
from lisnoma.pep import _eta_exp_e1

from conftest import THETA_AIDED, THETA_BIG, THETA_SMALL


# ---------------------------------------------------------------------------
# event algebra

def test_far_user_event_magnitudes(cfg):
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    assert ev.delta_bar == pytest.approx(2.0)
    assert ev.X == pytest.approx(math.sqrt(0.2), rel=1e-12)
    assert ev.vartheta == pytest.approx(THETA_BIG, rel=1e-12)
    opposed = build_event(cfg, 1, (1.0, -1.0), -1.0)
    assert opposed.vartheta == pytest.approx(THETA_SMALL, rel=1e-12)


def test_near_user_event_magnitudes(cfg):
    perfect = build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(0.0,))
    assert perfect.vartheta == pytest.approx(THETA_SMALL, rel=1e-12)
    assert not perfect.flagged
    # an uncancelled residual can help or oppose depending on its sign
    aided = build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(2.0,))
    assert aided.vartheta == pytest.approx(THETA_AIDED, rel=1e-12)
    opposed = build_event(cfg, 2, (1.0, -1.0), 1.0, sic_errors=(2.0,))
    assert opposed.vartheta == pytest.approx(-THETA_BIG, rel=1e-12)
    assert opposed.flagged


def test_omitted_residuals_default_to_perfect_cancellation(cfg):
    a = build_event(cfg, 2, (1.0, 1.0), -1.0)
    b = build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(0.0,))
    assert a.vartheta == b.vartheta and a.X == b.X


def test_noise_scale_tracks_the_hypothesis_gap(cfg):
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    assert ev.lam_at(1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert ev.lam_at(0.01) == pytest.approx(2.0 * math.sqrt(0.02), rel=1e-12)


def test_event_validation(cfg):
    with pytest.raises(ValueError, match="differ"):
        build_event(cfg, 1, (1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="realizable"):
        build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(1.0,))
    with pytest.raises(ValueError, match="constellation"):
        build_event(cfg, 1, (0.5, 1.0), -1.0)
    with pytest.raises(ValueError, match="user"):
        build_event(cfg, 3, (1.0, 1.0), -1.0)
    with pytest.raises(ValueError):
        build_event(cfg, 1, (1.0,), -1.0)


# ---------------------------------------------------------------------------
# conditional kernels

def test_conditional_at_zero_gain(event_u1):
    assert float(pep_conditional(0.0, event_u1, N0=1.0)) == pytest.approx(0.5)
    assert float(pep_conditional(0.0, event_u1, N0=1.0, exact=False)) == 1.0


def test_chernoff_dominates_the_exact_kernel(event_u1):
    qs = np.linspace(0.0, 5.0, 200)
    exact = pep_conditional(qs, event_u1, N0=1.0)
    chern = pep_conditional(qs, event_u1, N0=1.0, exact=False)
    assert np.all(exact <= chern + 1e-15)


def test_opposed_events_exceed_one_half(cfg):
    opposed = build_event(cfg, 2, (1.0, -1.0), 1.0, sic_errors=(2.0,))
    lo = float(pep_conditional(0.5, opposed, N0=1.0))
    hi = float(pep_conditional(2.0, opposed, N0=1.0))
    assert 0.5 < lo < hi < 1.0
    # the Chernoff kernel is sign-blind, so it cannot see the excess
    assert float(pep_conditional(2.0, opposed, N0=1.0, exact=False)) <= 1.0


# ---------------------------------------------------------------------------
# closed forms against quadrature

@pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
def test_general_closed_form_matches_quadrature(cfg, event_u1, snr_db):
    closed = pep_general(cfg, 1, event_u1, snr_db=snr_db)
    ref = pep_quadrature(cfg, 1, event_u1, snr_db=snr_db,
                         abs_tol=max(closed.raw * 1e-9, 1e-280))
    assert closed.raw == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("snr_db", [0.0, 20.0])
def test_single_element_closed_form_matches_quadrature(cfg1, event_u1_m1,
                                                       snr_db):
    closed = pep_m1(cfg1, 1, event_u1_m1, snr_db=snr_db)
    ref = pep_quadrature(cfg1, 1, event_u1_m1, snr_db=snr_db, pdf_model="dr",
                         abs_tol=closed.raw * 1e-11)
    assert closed.raw == pytest.approx(ref, rel=1e-8)


def test_single_element_closed_form_expression(cfg1, event_u1_m1):
    # eta e^eta E1(eta) with eta = lam^2 D / (2 sigma2^2 vartheta^2)
    s = 10.0
    got = pep_m1(cfg1, 1, event_u1_m1, snr_db=s)
    N0 = 10.0 ** (-s / 10.0)
    lam2 = 2.0 * N0 * event_u1_m1.delta_bar ** 2
    eta = lam2 * 125.0 / (2.0 * 0.5 ** 2 * event_u1_m1.vartheta ** 2)
    want = eta * math.exp(eta) * exp1(eta)
    assert got.raw == pytest.approx(want, rel=1e-12)
    assert got.method == "m1"


def test_eta_exp_e1_matches_mpmath():
    # both sides of the switch to the asymptotic series at eta = 50, and
    # the points 30 <= eta < 50 where that series is still short of 1e-15
    import mpmath as mp
    etas = list(np.geomspace(1e-3, 1e3, 121)) + [
        29.999, 30.0, 31.0, 39.43, 40.0, 43.82, 49.999, 50.0, 50.001]
    with mp.workdps(40):
        for eta in etas:
            want = mp.mpf(eta) * mp.exp(eta) * mp.e1(eta)
            assert abs(_eta_exp_e1(eta) - want) <= 1e-15 * want, eta


def test_single_element_scale_consistency():
    # doubling sigma2 is the same as a 10*log10(4) dB SNR shift
    a = default_config(M=1)
    b = default_config(M=1, sigma2=1.0)
    ea = build_event(a, 1, (1.0, 1.0), -1.0)
    eb = build_event(b, 1, (1.0, 1.0), -1.0)
    va = pep_m1(a, 1, ea, snr_db=10.0)
    vb = pep_m1(b, 1, eb, snr_db=10.0 - 10.0 * math.log10(4.0))
    assert va.raw == pytest.approx(vb.raw, rel=1e-12)


def test_closed_form_bookkeeping(cfg, event_u1):
    v = pep_general(cfg, 1, event_u1, snr_db=12.0)
    assert v.method == "general"
    assert not v.flagged
    assert v.value == min(1.0, v.raw)
    assert v.raw == pytest.approx(math.exp(v.log_raw), rel=1e-12)
    opposed = build_event(cfg, 2, (1.0, -1.0), 1.0, sic_errors=(2.0,))
    assert pep_general(cfg, 2, opposed, snr_db=12.0).flagged


def test_bound_decreases_with_snr_and_saturates(cfg, event_u1):
    vals = [pep_general(cfg, 1, event_u1, snr_db=s).raw
            for s in (-20.0, 0.0, 10.0, 20.0, 30.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 1.0 + 1e-9   # the averaged kernel never exceeds one


# ---------------------------------------------------------------------------
# Gaussian-limit closed form

def test_gaussian_limit_tag_and_referee():
    cfg15 = default_config(M=15)
    ev = build_event(cfg15, 1, (1.0, 1.0), -1.0)
    scaled = pep_clt(cfg15, 1, ev, snr_db=10.0)
    assert scaled.method == "clt-scaled"
    ref = pep_quadrature(cfg15, 1, ev, snr_db=10.0, pdf_model="clt",
                         abs_tol=scaled.raw * 1e-12)
    assert scaled.raw == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("M", [6, 15])
def test_unscaled_gaussian_limit_is_the_scaled_one_at_unit_distance(M):
    # the unscaled reading leaves the distance product out; check 10 takes
    # it as the scaled reading on a copy of the scenario where that
    # product is exactly one, and the two readings differ
    cfg = default_config(M=M)
    for user in (1, 2):
        unit = _normalized_probe(cfg, user)
        assert unit.distance_factor(user) == 1.0
        ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                         sic_errors=(0.0,) if user == 2 else None)
        assert (pep_clt(cfg, user, ev, snr_db=10.0).raw
                != pytest.approx(pep_clt(unit, user, ev, snr_db=10.0).raw,
                                 rel=0.5))


def test_gaussian_limit_flags_small_element_counts(cfg6):
    ev = build_event(cfg6, 1, (1.0, 1.0), -1.0)
    assert pep_clt(cfg6, 1, ev, snr_db=10.0).method == "clt-scaled-small-M"


def test_method_restrictions(cfg, event_u1):
    assert cfg.M == 3
    with pytest.raises(ValueError):
        pep_m1(cfg, 1, event_u1, snr_db=10.0)   # needs M = 1
    # the referee reads the density name table that `lisnoma pdf` reads
    with pytest.raises(ValueError, match="needs M = 1"):
        pep_quadrature(cfg, 1, event_u1, snr_db=10.0, pdf_model="dr")
    with pytest.raises(ValueError, match="unknown pdf model"):
        pep_quadrature(cfg, 1, event_u1, snr_db=10.0, pdf_model="exact")


def test_quadrature_stops_at_a_density_that_is_not_finite(monkeypatch):
    # the fitted density overflows at M = 128; the referee names that on
    # its first mesh, where it used to double the mesh to the panel cap
    meshes, density = [], pep.pdf_g

    def counted(x, **kwargs):
        meshes.append(x.size)
        return density(x, **kwargs)

    monkeypatch.setattr(pep, "pdf_g", counted)
    cfg = default_config(M=128)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="fitted density is not finite"):
            pep_quadrature(cfg, 1, ev, snr_db=10.0)
    assert len(meshes) == 1


# every form that takes a user and its event, with the element count of
# the scenario it is called on
_FORMS = {
    "general": (3, pep_general), "m1": (1, pep_m1), "clt": (3, pep_clt),
    "quadrature": (3, pep_quadrature), "asymptotic": (3, pep_asymptotic),
    "simulate": (3, partial(simulate_pep, trials=1000)),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_every_form_rejects_an_event_of_another_user(form):
    # the distance factor comes from the user argument, so a user-1 event
    # at user 2 would be averaged with user 2's path loss
    M, f = _FORMS[form]
    cfg = default_config(M=M)
    event = build_event(cfg, 1, (1.0, 1.0), -1.0)
    with pytest.raises(ValueError, match="different user"):
        f(cfg, 2, event, snr_db=20.0)


# ... and every other entry point that turns dB into N0: the link
# simulator, which takes a sequence of points
_SNR_FORMS = dict(_FORMS, ber=(3, lambda cfg, user, event, snr_db:
                               simulate_ber(cfg, (10.0, snr_db), frames=1000)))


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", sorted(_SNR_FORMS))
def test_every_form_rejects_a_non_finite_snr(form, snr_db):
    # each form turns dB into N0 in one place; a non-finite point used to
    # give nan, inf or an unrelated error depending on the form
    M, f = _SNR_FORMS[form]
    cfg = default_config(M=M)
    event = build_event(cfg, 1, (1.0, 1.0), -1.0)
    with pytest.raises(ValueError, match="snr_db must be finite"):
        f(cfg, 1, event, snr_db=snr_db)


# ... and the two that take several points: one bad point refuses the call
_RANGE_FORMS = dict(
    _SNR_FORMS,
    union=(3, lambda cfg, user, event, snr_db:
           union_bound_curve(cfg, user, (10.0, snr_db))),
    diversity=(3, lambda cfg, user, event, snr_db:
               diversity_order(cfg, user, grid_db=(35.0, snr_db))))


@pytest.mark.parametrize("snr_db", [-4000.0, -3100.0, 3100.0, 4000.0])
@pytest.mark.parametrize("form", sorted(_RANGE_FORMS))
def test_every_form_refuses_an_snr_beyond_3000_db(form, snr_db):
    # N0 = 10^(-snr/10) leaves float64 beyond about 3080 dB either way;
    # past 3000 dB every form names the point instead of dividing by
    # zero, overflowing or returning 0 with a warning
    M, f = _RANGE_FORMS[form]
    cfg = default_config(M=M)
    event = build_event(cfg, 1, (1.0, 1.0), -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"within \[-3000, 3000\] dB, "
                                             rf"got {snr_db:g}$"):
            f(cfg, 1, event, snr_db=snr_db)


# ---------------------------------------------------------------------------
# density tables of the quadrature referee

# the coarsest mesh: 41 graded levels of one 48-node panel each
_FIRST_MESH = 41 * 48


def _sweep():
    """Quadrature calls over every density model, user, kernel and SNR.

    The tolerance varies with the SNR point, so calls stop after different
    numbers of meshes and later calls reuse tables of earlier ones. At 0
    and 40 dB it is 1e-9 of the model's closed form, as check 4a takes it,
    which every call meets on its second mesh. At 20 dB on user 1's event
    with the exact kernel it is 0, which no mesh meets, so those calls
    evaluate all seven meshes and raise.
    """
    closed = {"g": pep_general, "dr": pep_m1, "clt": pep_clt}
    calls = []
    for M, model in ((1, "g"), (3, "g"), (15, "g"), (1, "dr"), (15, "clt")):
        cfg = default_config(M=M)
        for user in (1, 2):
            ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                             sic_errors=(0.0,) * (user - 1))
            for kernel in ("chernoff", "exact"):
                for snr in (0.0, 20.0, 40.0):
                    deep = (snr, user, kernel) == (20.0, 1, "exact")
                    tol = 0.0 if deep else 1e-9 * closed[model](
                        cfg, user, ev, snr_db=snr).raw
                    calls.append((cfg, user, ev, snr, model, kernel, tol))
    return calls


def _run(call):
    """The call's value, or for a zero tolerance its error's message.

    The message names the last two meshes' values, so it carries their
    bits as a value would.
    """
    cfg, user, ev, snr, model, kernel, tol = call
    if tol:
        return pep_quadrature(cfg, user, ev, snr_db=snr, pdf_model=model,
                              kernel=kernel, abs_tol=tol)
    with pytest.raises(ConvergenceError) as err:
        pep_quadrature(cfg, user, ev, snr_db=snr, pdf_model=model,
                       kernel=kernel, abs_tol=tol)
    return str(err.value)


@pytest.fixture(scope="module")
def cold_values():
    calls = _sweep()
    values = []
    for call in calls:
        pep._TABLES.clear()
        values.append(_run(call))
    return calls, values


def test_warm_tables_give_the_cold_values_in_any_order(cold_values):
    calls, cold = cold_values
    order = list(range(len(calls)))
    pep._TABLES.clear()
    for i in order[::-1]:
        assert _run(calls[i]) == cold[i]
    random.Random(11).shuffle(order)
    for i in order:                 # every table is warm now
        assert _run(calls[i]) == cold[i]
    assert pep._TABLES


def test_tables_never_exceed_their_bound(monkeypatch, cold_values):
    kept, stored, evaluated = [], set(), set()

    class Watched(collections.OrderedDict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            stored.add(value[0].size)
            kept.append(sum(2 * v[0].size for v in self.values()))

    density = pep.pdf_g

    def recorded(x, *args, **kwargs):
        evaluated.add(x.size)
        return density(x, *args, **kwargs)

    # the meshes hold 1, 2, 4, ..., 64 times the coarsest one's nodes:
    # room for the third and fourth together, never for the fifth
    bound = 2 * 12 * _FIRST_MESH
    monkeypatch.setattr(pep, "_MAX_TABLE_VALUES", bound)
    monkeypatch.setattr(pep, "_TABLES", Watched())
    monkeypatch.setattr(pep, "pdf_g", recorded)
    calls, cold = cold_values
    for call, value in zip(calls, cold):
        assert _run(call) == value
    assert max(kept) == bound       # evicting down to the bound, not below
    assert 16 * _FIRST_MESH in evaluated - stored
    assert {1, 2, 4, 8} == {n // _FIRST_MESH for n in stored}


def test_each_mesh_reaches_the_density_once(monkeypatch):
    seen = []
    density = pep.pdf_g

    def recorded(x, *args, **kwargs):
        seen.append(x.tobytes())
        return density(x, *args, **kwargs)

    monkeypatch.setattr(pep, "pdf_g", recorded)
    monkeypatch.setattr(pep, "_TABLES", collections.OrderedDict())
    cfg = default_config(M=3)
    ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
    for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
        for kernel in ("chernoff", "exact"):
            pep_quadrature(cfg, 1, ev, snr_db=snr, kernel=kernel,
                           abs_tol=1e-13)
    assert len(seen) > 1
    assert len(set(seen)) == len(seen)


def test_threads_sharing_the_tables_get_the_cold_values(cold_values):
    calls, cold = cold_values
    picked = [i for i, c in enumerate(calls) if c[0].M == 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pep._TABLES.clear()
        got, errors = [], []

        def work(seed):
            order = picked[:]
            random.Random(seed).shuffle(order)
            try:
                got.append({i: _run(calls[i]) for i in order})
            except Exception as exc:    # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(got) == 4
    assert all(run == {i: cold[i] for i in picked} for run in got)
