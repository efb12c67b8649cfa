"""Cross-model validation suite shared by the CLI and the test suite.

Each runner exercises one published claim end to end and returns
:class:`CheckResult` records. Runners never weaken a tolerance in quick
mode; quick only trims the element counts and sample sizes, so a red
check stays red. Checks that cannot run under the quick subset are
reported as skipped rather than silently passed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp

from ._util import SMALL_CHUNK, sample_sums
from .asymptotics import analytic_diversity, diversity_order
from .channel import simulate_ber, simulate_pep
from .config import SystemConfig, default_config
from .moments import analytic_moments, empirical_moments, _mu3_listed, _mu4_listed
from .pdf_approx import (clt_params, density_cdf_table, fit_gparams,
                         ks_statistic, pdf_double_rayleigh, pdf_g,
                         quadrature_domain)
from .pep import (build_event, closed_form, pep_clt, pep_general, pep_m1,
                  pep_quadrature)
from .union_bound import enumerate_events, union_bound


@dataclass
class CheckResult:
    criterion: str
    label: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    skipped: bool = False

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return (f"[{self.status}] {self.criterion:>3}  {self.label}: "
                f"{self.detail} ({self.elapsed:.1f}s)")


def _result(criterion, label, passed, detail, t0, skipped=False):
    return CheckResult(criterion=criterion, label=label, passed=passed,
                       detail=detail, elapsed=time.perf_counter() - t0,
                       skipped=skipped)


def _draw_s(M: int, sigma2: float, n: int, seed: int) -> np.ndarray:
    return sample_sums(M, sigma2, n, seed, SMALL_CHUNK)


def _canonical_events(config: SystemConfig):
    """Largest-separation user-1 event and the clean user-2 event."""
    e1 = build_event(config, 1, (1.0, 1.0), -1.0)
    e2 = build_event(config, 2, (1.0, 1.0), -1.0, sic_errors=(0.0,))
    return e1, e2


# ---------------------------------------------------------------------------
# 1: analytic vs simulated moments

def check_moments(quick: bool = False):
    t0 = time.perf_counter()
    ms = (1, 3, 6) if quick else (1, 2, 3, 4, 8, 16)
    samples = 2_000_000 if quick else 10_000_000
    sigma2 = 0.5
    worst = 0.0
    fails = []
    for M in ms:
        ana = analytic_moments(M, sigma2).as_tuple()
        emp = empirical_moments(M, sigma2, samples=samples, seed=101)
        for i in range(4):
            dev = abs(emp.mu[i] - ana[i]) / emp.se[i]
            worst = max(worst, dev)
            if dev > 5.0:
                fails.append(f"M={M} order {i + 1}: {dev:.2f} SE")
    elapsed = time.perf_counter() - t0
    budget_ok = elapsed < 120.0
    passed = not fails and budget_ok
    detail = (f"max deviation {worst:.2f} SE over M in {list(ms)}, "
              f"{samples:.0e} samples in {elapsed:.0f}s"
              + ("" if budget_ok else " (over the 120s budget)")
              + ("" if not fails else "; " + "; ".join(fails)))
    return [_result("1", "moment identities", passed, detail, t0)]


# ---------------------------------------------------------------------------
# 2: general-branch moments reproduce the hand-expanded small-M forms

def check_branch_consistency(quick: bool = False):
    t0 = time.perf_counter()
    worst = 0.0
    for sigma2 in (0.5, 1.0, 2.3):
        for M in (1, 2, 3):
            mom = analytic_moments(M, sigma2)
            for got, want in ((mom.mu3, _mu3_listed(M, sigma2)),
                              (mom.mu4, _mu4_listed(M, sigma2))):
                if want is None:
                    continue
                worst = max(worst, abs(got - want) / abs(want))
    passed = worst <= 1e-14
    detail = f"general branch vs small-M listings: max rel dev {worst:.1e}"
    return [_result("2", "branch consistency", passed, detail, t0)]


# ---------------------------------------------------------------------------
# 3: density fidelity

def check_density_fit(quick: bool = False):
    out = []

    t0 = time.perf_counter()
    ms = (1, 3, 6) if quick else (1, 3, 6, 9)
    samples = 2_000_000 if quick else 10_000_000
    sigma2 = 0.5
    worst = ("", 0.0)
    for M in ms:
        params = fit_gparams(M, sigma2)
        hi = quadrature_domain(M, sigma2)
        xs, cdf = density_cdf_table(lambda x: pdf_g(x, params), hi)
        sample = _draw_s(M, sigma2, samples, seed=303 + M)
        ks = ks_statistic(sample, xs, cdf)
        if ks > worst[1]:
            worst = (f"M={M}", ks)
    passed = worst[1] < 0.01
    out.append(_result(
        "3a", "fitted density vs samples",
        passed, f"max KS {worst[1]:.1e} at {worst[0]} (threshold 0.01)", t0))

    t0 = time.perf_counter()
    params = fit_gparams(1, sigma2)
    hi = quadrature_domain(1, sigma2)
    xs = np.linspace(1e-3, hi, 2400)
    dr = pdf_double_rayleigh(xs, sigma2)
    ga = pdf_g(xs, params)
    sup = float(np.max(np.abs(ga - dr)))
    at = float(xs[int(np.argmax(np.abs(ga - dr)))])
    # the exact density (x/s^4) K0(x/s^2) vanishes at the origin like
    # (x/s^4) ln(s^2/x), while the kernel rises like x^Re(a4) = x^0.79 with
    # a log-periodic factor; the sup gap sits at the first node, x = 1e-3,
    # and is below 7.5e-4 from x = 0.02 on. Kernel values agree with mpmath
    # to 1e-15, so this is a model gap, not an evaluation error
    out.append(_result(
        "3b", "single-element fitted vs exact density",
        sup < 1e-3,
        f"sup-norm {sup:.2e} at x={at:.3f} (threshold 1e-3)", t0))

    t0 = time.perf_counter()
    if quick:
        out.append(_result(
            "3c", "gaussian-limit density vs samples", True,
            "skipped under quick (element count outside the quick set)",
            t0, skipped=True))
        return out
    M = 15
    cp = clt_params(M, sigma2)
    sample = np.sort(_draw_s(M, sigma2, samples, seed=404))
    z = (sample - cp.mu_bar) / math.sqrt(cp.sigma_bar2)
    F = sp.ndtr(z)
    n = len(sample)
    up = np.arange(1, n + 1) / n
    dn = np.arange(0, n) / n
    ks = float(max(np.max(np.abs(F - up)), np.max(np.abs(F - dn))))
    # the residual skew of a 15-term sum is above the threshold; real gap,
    # not sampling noise (noise scale here is ~3e-4). The first Edgeworth
    # term predicts KS ~ g1 / (6 sqrt(2 pi)) = 0.0275 for skewness
    # g1 = 1.60 / sqrt(M), first under 0.02 at M = 29
    out.append(_result(
        "3c", "gaussian-limit density vs samples",
        ks < 0.02, f"KS {ks:.4f} at M={M} (threshold 0.02)", t0))
    return out


# ---------------------------------------------------------------------------
# 4: closed forms against the quadrature referee

def check_integral_identities(quick: bool = False):
    out = []
    sigma2 = 0.5
    snrs = (0.0, 15.0, 30.0) if quick else (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)

    t0 = time.perf_counter()
    ms = (1, 3, 6) if quick else (1, 3, 6, 15)
    worst = ("", 0.0)
    for M in ms:
        cfg = default_config(M=M)
        e1, e2 = _canonical_events(cfg)
        aided = build_event(cfg, 2, (1.0, 1.0), -1.0, sic_errors=(2.0,))
        for user, ev in ((1, e1), (2, e2), (2, aided)):
            for s in snrs:
                closed = pep_general(cfg, user, ev, snr_db=s)
                ref = pep_quadrature(cfg, user, ev, snr_db=s, pdf_model="g",
                                     abs_tol=max(closed.raw * 1e-9, 1e-280))
                rel = abs(closed.raw - ref) / ref
                if rel > worst[1]:
                    worst = (f"M={M} user {user} at {s:g} dB", rel)
    out.append(_result(
        "4a", "general closed form vs quadrature",
        worst[1] <= 1e-6, f"max rel {worst[1]:.1e} at {worst[0]} "
        f"(threshold 1e-6)", t0))

    t0 = time.perf_counter()
    cfg = default_config(M=1)
    e1, e2 = _canonical_events(cfg)
    worst = ("", 0.0)
    for user, ev in ((1, e1), (2, e2)):
        for s in snrs:
            closed = pep_m1(cfg, user, ev, snr_db=s)
            ref = pep_quadrature(cfg, user, ev, snr_db=s, pdf_model="dr",
                                 abs_tol=max(closed.raw * 1e-11, 1e-280))
            rel = abs(closed.raw - ref) / ref
            if rel > worst[1]:
                worst = (f"user {user} at {s:g} dB", rel)
    out.append(_result(
        "4b", "single-element closed form vs quadrature",
        worst[1] <= 1e-8, f"max rel {worst[1]:.1e} at {worst[0]} "
        f"(threshold 1e-8)", t0))
    return out


# ---------------------------------------------------------------------------
# 5: closed forms dominate the exact Monte Carlo estimate

def _closed_forms(M: int):
    forms: list = [("general", pep_general)]
    if M == 1:
        forms.append(("m1", pep_m1))
    if M > 10:
        forms.append(("clt", lambda c, u, e, snr_db: pep_clt(
            c, u, e, snr_db=snr_db, variant="scaled")))
    return forms


def check_bound_dominance(quick: bool = False):
    out = []
    grid = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials = 200_000 if quick else 2_000_000
    ms = (1, 3) if quick else (1, 3, 15)

    t0 = time.perf_counter()
    margins = []
    mc_by_m = {}
    for M in ms:
        cfg = default_config(M=M)
        ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
        curve = {}
        for s in grid:
            est = simulate_pep(cfg, 1, interference=ev, snr_db=s,
                               trials=trials, seed=551, importance=True)
            curve[s] = est
            for name, fn in _closed_forms(M):
                closed = fn(cfg, 1, ev, snr_db=s)
                margins.append((closed.raw - (est.value - 3.0 * est.se),
                                f"{name} M={M} {s:g} dB"))
        mc_by_m[M] = curve
    bad = [tag for m, tag in margins if m < 0]
    least = min(margins, key=lambda p: p[0])
    out.append(_result(
        "5a", "closed forms above exact simulation",
        not bad,
        (f"all {len(margins)} comparisons dominate; smallest margin "
         f"{least[0]:.2e} at {least[1]}" if not bad
         else "violations: " + ", ".join(bad)), t0))

    t0 = time.perf_counter()
    devs = []
    for M in (1, 3):
        if M not in mc_by_m:
            continue
        lo, hi = mc_by_m[M][30.0], mc_by_m[M][40.0]
        slope_mc = math.log10(lo.value / hi.value)
        cfg = default_config(M=M)
        ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
        fn = closed_form("auto", M, globals())
        slope_cf = math.log10(fn(cfg, 1, ev, snr_db=30.0).raw
                              / fn(cfg, 1, ev, snr_db=40.0).raw)
        devs.append((M, abs(slope_mc - slope_cf) / slope_cf, slope_mc,
                     slope_cf))
    worst = max(devs, key=lambda d: d[1])
    out.append(_result(
        "5b", "simulated decay slope matches closed form",
        worst[1] <= 0.10,
        f"max slope mismatch {worst[1] * 100:.1f}% at M={worst[0]} "
        f"(mc {worst[2]:.3f} vs closed {worst[3]:.3f} decades/10dB)", t0))

    t0 = time.perf_counter()
    if quick:
        out.append(_result(
            "5c", "simulated decay slope at fifteen elements", True,
            "skipped under quick (element count outside the quick set)",
            t0, skipped=True))
        return out
    curve = mc_by_m[15]
    lo, hi = curve[30.0], curve[40.0]
    if lo.value > 0.0 and hi.value > 0.0 and hi.se / hi.value < 0.2:
        slope_mc = math.log10(lo.value / hi.value)
        cfg = default_config(M=15)
        ev = build_event(cfg, 1, (1.0, 1.0), -1.0)
        slope_cf = math.log10(pep_general(cfg, 1, ev, snr_db=30.0).raw
                              / pep_general(cfg, 1, ev, snr_db=40.0).raw)
        rel = abs(slope_mc - slope_cf) / slope_cf
        out.append(_result(
            "5c", "simulated decay slope at fifteen elements",
            rel <= 0.10, f"slope mismatch {rel * 100:.1f}%", t0))
    else:
        out.append(_result(
            "5c", "simulated decay slope at fifteen elements", False,
            f"estimate at 40 dB too noisy to measure a slope "
            f"({hi.value:.2e} +/- {hi.se:.1e} from {hi.trials:.0e} trials, "
            f"tilt {hi.kappa:.3f}, effective sample size {hi.ess:.1f})",
            t0))
    return out


# ---------------------------------------------------------------------------
# 6: diversity order

def check_diversity(quick: bool = False):
    t0 = time.perf_counter()
    ms = (3, 6) if quick else (3, 6, 9, 12, 15)
    sigma2 = 0.5
    rels = []
    for M in ms:
        rep = diversity_order(default_config(M=M), 1)
        rels.append((M, rep.rel_err, rep.analytic, rep.numeric))
    rep2 = diversity_order(default_config(M=ms[0]), 2)
    ana = [analytic_diversity(M, sigma2) for M in ms]
    increasing = all(b > a for a, b in zip(ana, ana[1:]))
    users_equal = (analytic_diversity(ms[0], sigma2) == rep2.analytic
                   and rep2.rel_err <= 0.05)
    worst = max(rels, key=lambda r: r[1])
    passed = all(r[1] <= 0.05 for r in rels) and increasing and users_equal
    detail = (f"max secant mismatch {worst[1] * 100:.1f}% at M={worst[0]} "
              f"(analytic {worst[2]:.3f}, numeric {worst[3]:.3f}); order "
              + ("strictly increasing" if increasing else "NOT increasing")
              + ("; users agree" if users_equal else "; users DIFFER"))
    return [_result("6", "diversity order", passed, detail, t0)]


# ---------------------------------------------------------------------------
# 7: union bound vs simulation, gap, and feasibility

def _bound_crossing(cfg, user, enum, target, lo=2.0, hi=70.0):
    # imported here: loading scipy.optimize costs every CLI command ~0.3 s
    from scipy import optimize
    f = lambda s: (math.log10(union_bound(cfg, user, s,
                                          enumeration=enum).raw)
                   - math.log10(target))
    return optimize.brentq(f, lo, hi, xtol=1e-4)


def check_union_bound(quick: bool = False):
    out = []
    frames = 40_000 if quick else 200_000
    grid = tuple(float(s) for s in range(0, 31, 5))
    target = 1.8e-3

    t0 = time.perf_counter()
    viol = []
    cross = {}
    for M in (3, 6):
        cfg = default_config(M=M)
        sim = simulate_ber(cfg, grid, frames=frames, seed=771)
        for user in (1, 2):
            enum = enumerate_events(cfg, user)
            for i, s in enumerate(grid):
                b = union_bound(cfg, user, s, enumeration=enum).value
                if b < sim[user].ci_low[i]:
                    viol.append(f"M={M} user {user} at {s:g} dB")
            cross[(M, user)] = _bound_crossing(cfg, user, enum, target)
    out.append(_result(
        "7a", "union bound dominates simulated error rate",
        not viol,
        ("bound >= simulation lower CI at all "
         f"{len(grid) * 4} points ({frames:.0e} frames)" if not viol
         else "violations: " + ", ".join(viol)), t0))

    t0 = time.perf_counter()
    gap1 = cross[(3, 1)] - cross[(6, 1)]
    gap2 = cross[(3, 2)] - cross[(6, 2)]
    ok = abs(gap1 - 9.8) <= 0.7 and abs(gap2 - 10.0) <= 0.7
    out.append(_result(
        "7b", "element-doubling gain at the reference error rate",
        ok, f"measured {gap1:.2f} dB (user 1, target 9.8) and "
        f"{gap2:.2f} dB (user 2, target 10.0), tolerance 0.7", t0))

    t0 = time.perf_counter()
    # each curve is simulable out to where it reaches 1e-5; a hundred
    # observed errors at that floor cost 1e7 bits, well inside desk scale
    floors = {}
    for M in (3, 6):
        cfg = default_config(M=M)
        for user in (1, 2):
            enum = enumerate_events(cfg, user)
            floors[(M, user)] = _bound_crossing(cfg, user, enum, 1e-5)
    bits = 100.0 / 1e-5
    inside = all(cross[k] < floors[k] for k in cross)
    deepest = max(floors.values())
    out.append(_result(
        "7c", "full plotted range is desk-feasible",
        inside and bits <= 1e8,
        "every curve stays above 1e-5 through its reference crossing "
        f"(simulable windows end at {deepest:.1f} dB at the widest); "
        f"{bits:.0e} bits per point suffice at the floor", t0))
    return out


# ---------------------------------------------------------------------------
# 8: power-allocation sensitivity ordering

def check_power_sensitivity(quick: bool = False):
    # Fails for two reasons. The ordering itself does not hold at M = 2:
    # simulated at 15 dB (2e6 frames) the far user's BER shift is 0.0570
    # and the near user's 0.0583 to 0.0588. And the user-2 values at
    # P = (0.6, 0.4) are not bounds: they sit below the simulated BER at
    # every M (0.106 vs 0.169 at M = 2, 2.6e-8 vs 2.5e-3 at M = 10),
    # because SIC-error events with vartheta <= 0 get sign-blind Chernoff
    # terms. The rows that pass for M >= 3 rest on those same values.
    t0 = time.perf_counter()
    ms = (2, 3, 6) if quick else tuple(range(2, 11))
    snr = 15.0
    rows = []
    viol = []
    for M in ms:
        deltas = []
        for user in (1, 2):
            vals = []
            for p1 in (0.8, 0.6):
                cfg = default_config(M=M, P=(p1, 1.0 - p1))
                vals.append(union_bound(cfg, user, snr).value)
            deltas.append(abs(vals[0] - vals[1]))
        rows.append((M, deltas[0], deltas[1]))
        if not deltas[0] > deltas[1]:
            viol.append(f"M={M} ({deltas[0]:.3e} vs {deltas[1]:.3e})")
    passed = not viol
    tight = min(rows, key=lambda r: r[1] - r[2])
    detail = (f"user-1 shift exceeds user-2 shift for all M in {list(ms)}; "
              f"tightest at M={tight[0]}" if passed else
              "ordering fails at " + ", ".join(viol))
    return [_result("8", "power-allocation sensitivity", passed, detail, t0)]


# ---------------------------------------------------------------------------
# 9: fitted shape-parameter trend

def check_parameter_trend(quick: bool = False):
    out = []
    sigma2 = 0.5
    t0 = time.perf_counter()
    fits = {M: fit_gparams(M, sigma2) for M in range(1, 65)}
    # Where the fit's discriminant is negative (M <= 3) the lower pair is
    # complex conjugate with equal real parts, so no ordering exists; there
    # the check pins the labelling that min_lower_real and the diversity
    # order rely on: a5 = conj(a4) with Im a5 < 0.
    viol = []
    for M, p in fits.items():
        a4, a5 = complex(p.a4), complex(p.a5)
        ok = (a5 == a4.conjugate() and a5.imag < 0 if p.complex_pair
              else a5.real < a4.real)
        if not ok:
            viol.append(M)
    pairs = [M for M, p in fits.items() if p.complex_pair]
    out.append(_result(
        "9a", "strict ordering of the lower shape exponents",
        not viol,
        (f"a5 < a4 for all real pairs in M = 1..64; a5 = conj(a4) with "
         f"Im a5 < 0 for the conjugate pairs at M in {pairs}" if not viol
         else f"ordering or labelling fails for M in {viol}"), t0))

    t0 = time.perf_counter()
    seq = [fits[M].a5.real for M in range(1, 65)]
    inc = all(b > a for a, b in zip(seq, seq[1:]))
    out.append(_result(
        "9b", "smaller shape exponent grows with element count",
        inc, f"a5 rises from {seq[0]:.3f} at M=1 to {seq[-1]:.3f} at M=64"
        if inc else "a5 is not monotone", t0))
    return out


# ---------------------------------------------------------------------------
# 10: adjudication of the two published large-M readings

def run_adjudication(snrs: Sequence[float] = (0.0, 10.0, 20.0, 30.0),
                     M: int = 15) -> dict:
    """Evaluate both large-M closed-form readings against quadrature.

    The two readings differ in whether the distance product enters the
    quadratic coefficient of the Gaussian average. Returns a report of
    per-point relative errors and which reading (if either) stays within
    ten percent of the oracle.
    """
    cfg = default_config(M=M)
    points = []
    worst = {"scaled": 0.0, "unscaled": 0.0}
    for user in (1, 2):
        ev = build_event(cfg, user, (1.0, 1.0), -1.0,
                         sic_errors=(0.0,) if user == 2 else None)
        for s in snrs:
            sc = pep_clt(cfg, user, ev, snr_db=s, variant="scaled")
            un = pep_clt(cfg, user, ev, snr_db=s, variant="unscaled")
            ref = pep_quadrature(cfg, user, ev, snr_db=s, pdf_model="clt",
                                 abs_tol=max(sc.raw * 1e-8, 1e-280))
            rel_s = abs(sc.raw - ref) / ref
            rel_u = abs(un.raw - ref) / ref
            worst["scaled"] = max(worst["scaled"], rel_s)
            worst["unscaled"] = max(worst["unscaled"], rel_u)
            points.append({"user": user, "snr_db": s, "oracle": ref,
                           "scaled": sc.raw, "unscaled": un.raw,
                           "rel_scaled": rel_s, "rel_unscaled": rel_u})
    within = {k: v <= 0.10 for k, v in worst.items()}
    if within["scaled"] and not within["unscaled"]:
        verdict = "scaled"
    elif within["unscaled"] and not within["scaled"]:
        verdict = "unscaled"
    elif within["scaled"] and within["unscaled"]:
        verdict = "both"
    else:
        verdict = "neither"
    return {"M": M, "snr_db": list(snrs), "points": points,
            "max_rel": worst, "within_10pct": within, "verdict": verdict}


def check_adjudication(quick: bool = False):
    t0 = time.perf_counter()
    try:
        report = run_adjudication()
    except Exception as exc:   # report must exist even on numerical failure
        return [_result("10", "large-M reading adjudication", False,
                        f"adjudication did not produce a report: {exc!r}",
                        t0)]
    detail = (f"report produced at M={report['M']}: scaled reading max rel "
              f"{report['max_rel']['scaled']:.1e}, unscaled "
              f"{report['max_rel']['unscaled']:.1e}; within 10%: "
              f"{report['verdict']}")
    return [_result("10", "large-M reading adjudication", True, detail, t0)]


# ---------------------------------------------------------------------------

CHECKS: tuple = (
    ("1", check_moments),
    ("2", check_branch_consistency),
    ("3", check_density_fit),
    ("4", check_integral_identities),
    ("5", check_bound_dominance),
    ("6", check_diversity),
    ("7", check_union_bound),
    ("8", check_power_sensitivity),
    ("9", check_parameter_trend),
    ("10", check_adjudication),
)


def run_all(quick: bool = False,
            only: Optional[Sequence[str]] = None) -> list:
    results = []
    for cid, fn in CHECKS:
        if only is not None and cid not in only:
            continue
        try:
            results.extend(fn(quick=quick))
        except Exception as exc:
            results.append(CheckResult(
                criterion=cid, label=fn.__name__.replace("check_", ""),
                passed=False, detail=f"runner raised {exc!r}", elapsed=0.0))
    return results


def format_table(results: Sequence[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed and not r.skipped)
    skipped = sum(1 for r in results if r.skipped)
    total = len(results) - skipped
    lines.append(f"{total - failed}/{total} checks passed"
                 + (f", {skipped} skipped" if skipped else "")
                 + (f", {failed} FAILED" if failed else ""))
    return "\n".join(lines)
