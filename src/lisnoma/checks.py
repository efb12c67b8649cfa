"""Cross-model validation suite shared by the CLI and the test suite.

Each criterion is one row of :data:`CRITERIA`: its label and the bound
its verdict is read against, written once. Each runner exercises one
published claim end to end and yields ``(criterion, passed, detail)``
for each of its criteria; :func:`run_all` times them, attaches the
labels and turns a runner that raises into a FAIL record. Runners never
weaken a bound in quick mode; quick only trims the element counts and
sample sizes, so a red check stays red. The criteria in
:data:`QUICK_SKIPS` cannot run under the quick subset and are reported
as skipped rather than silently passed.
"""

from __future__ import annotations

import math
import string
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _special as sp
from ._util import sample_sums
from .asymptotics import _normalized_probe, analytic_diversity, diversity_order
from .channel import simulate_ber, simulate_pep
from .config import SystemConfig, default_config
from .moments import analytic_moments, empirical_moments, _mu3_listed, _mu4_listed
from .pdf_approx import (density_cdf_table, fit_gparams, ks_distance,
                         ks_statistic, pdf_double_rayleigh, pdf_g,
                         quadrature_domain)
from .pep import build_event, pep_clt, pep_general, pep_m1, pep_quadrature
from .union_bound import union_bound_curve


# criterion -> (label, bound). A bound is the text a detail quotes ("1e-3",
# not 0.001) and _bound reads it as a number; None marks a criterion with
# no numeric bound
CRITERIA: dict = {
    "1": ("moment identities", "5.0"),  # SE
    "2": ("branch consistency", "1e-14"),
    "3a": ("fitted density vs samples", "0.01"),
    "3b": ("single-element fitted vs exact density", "1e-3"),
    "3c": ("gaussian-limit density vs samples", "0.02"),
    "4a": ("general closed form vs quadrature", "1e-6"),
    "4b": ("single-element closed form vs quadrature", "1e-8"),
    "5a": ("closed forms above exact simulation", "3.0"),  # SE
    "5b": ("simulated decay slope matches closed form", "0.10"),
    "5c": ("simulated decay slope at fifteen elements", "0.10"),
    "6": ("diversity order", "0.05"),
    "7a": ("union bound dominates simulated error rate", None),
    "7b": ("element-doubling gain at the reference error rate", "0.7"),
    "7c": ("full plotted range is desk-feasible", "1e8"),  # bits
    "8": ("power-allocation sensitivity", None),
    "9a": ("strict ordering of the lower shape exponents", None),
    "9b": ("smaller shape exponent grows with element count", None),
    "10": ("large-M reading adjudication", "0.10"),
}

# criteria whose element counts lie outside the quick set
QUICK_SKIPS: tuple = ("3c", "5c")


def _bound(criterion: str) -> float:
    return float(CRITERIA[criterion][1])


def _threshold(criterion: str) -> str:
    return f"(threshold {CRITERIA[criterion][1]})"


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


def _canonical_events(config: SystemConfig):
    """Largest-separation user-1 event and the clean user-2 event."""
    e1 = build_event(config, 1, (1.0, 1.0), -1.0)
    e2 = build_event(config, 2, (1.0, 1.0), -1.0, sic_errors=(0.0,))
    return e1, e2


# ---------------------------------------------------------------------------
# 1: analytic vs simulated moments

BUDGET_S = 120.0     # check 1's wall-time budget


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
            if dev > _bound("1"):
                fails.append(f"M={M} order {i + 1}: {dev:.2f} SE")
    budget_ok = time.perf_counter() - t0 < BUDGET_S
    # the time itself goes to CheckResult.elapsed, not into the detail
    detail = (f"max deviation {worst:.2f} SE over M in {list(ms)}, "
              f"{samples:.0e} samples"
              + ("" if budget_ok else f" (over the {BUDGET_S:g}s budget)")
              + ("" if not fails else "; " + "; ".join(fails)))
    yield "1", not fails and budget_ok, detail


# ---------------------------------------------------------------------------
# 2: general-branch moments reproduce the hand-expanded small-M forms

def check_branch_consistency(quick: bool = False):
    worst = 0.0
    for sigma2 in (0.5, 1.0, 2.3):
        for M in (1, 2, 3):
            mom = analytic_moments(M, sigma2)
            for got, want in ((mom.mu3, _mu3_listed(M, sigma2)),
                              (mom.mu4, _mu4_listed(M, sigma2))):
                if want is None:
                    continue
                worst = max(worst, abs(got - want) / abs(want))
    yield ("2", worst <= _bound("2"),
           f"general branch vs small-M listings: max rel dev {worst:.1e}")


# ---------------------------------------------------------------------------
# 3: density fidelity

def check_density_fit(quick: bool = False):
    ms = (1, 3, 6) if quick else (1, 3, 6, 9)
    samples = 2_000_000 if quick else 10_000_000
    sigma2 = 0.5
    worst = ("", 0.0)
    for M in ms:
        params = fit_gparams(M, sigma2)
        hi = quadrature_domain(M, sigma2)
        xs, cdf = density_cdf_table(lambda x: pdf_g(x, params), hi)
        sample = sample_sums(M, sigma2, samples, 303 + M)
        ks = ks_statistic(sample, xs, cdf)
        if ks > worst[1]:
            worst = (f"M={M}", ks)
    yield ("3a", worst[1] < _bound("3a"),
           f"max KS {worst[1]:.1e} at {worst[0]} {_threshold('3a')}")

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
    yield ("3b", sup < _bound("3b"),
           f"sup-norm {sup:.2e} at x={at:.3f} {_threshold('3b')}")

    if quick:
        return
    M = 15
    mom = analytic_moments(M, sigma2)
    sample = np.sort(sample_sums(M, sigma2, samples, 404))
    z = (sample - mom.mu1) / math.sqrt(mom.variance)
    ks = ks_distance(sp.ndtr(z))
    # the residual skew of a 15-term sum is above the threshold; real gap,
    # not sampling noise (noise scale here is ~3e-4). The first Edgeworth
    # term predicts KS ~ g1 / (6 sqrt(2 pi)) = 0.0275 for skewness
    # g1 = 1.60 / sqrt(M), first under 0.02 at M = 29
    yield ("3c", ks < _bound("3c"),
           f"KS {ks:.4f} at M={M} {_threshold('3c')}")


# ---------------------------------------------------------------------------
# 4: closed forms against the quadrature referee

def check_integral_identities(quick: bool = False):
    snrs = (0.0, 15.0, 30.0) if quick else (0.0, 6.0, 12.0, 18.0, 24.0, 30.0)

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
    yield ("4a", worst[1] <= _bound("4a"),
           f"max rel {worst[1]:.1e} at {worst[0]} {_threshold('4a')}")

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
    yield ("4b", worst[1] <= _bound("4b"),
           f"max rel {worst[1]:.1e} at {worst[0]} {_threshold('4b')}")


# ---------------------------------------------------------------------------
# 5: closed forms dominate the exact Monte Carlo estimate

def _closed_forms(M: int):
    forms: list = [("general", pep_general)]
    if M == 1:
        forms.append(("m1", pep_m1))
    if M > 10:
        forms.append(("clt", pep_clt))
    return forms


def check_bound_dominance(quick: bool = False):
    grid = (0.0, 10.0, 20.0, 30.0, 40.0)
    trials = 200_000 if quick else 2_000_000
    ms = (1, 3) if quick else (1, 3, 15)

    margins = []
    mc = {}          # (M, snr) -> Monte Carlo estimate
    cf = {}          # (form, M, snr) -> closed-form value
    for M in ms:
        cfg = default_config(M=M)
        ev = _canonical_events(cfg)[0]
        for s in grid:
            est = mc[M, s] = simulate_pep(cfg, 1, interference=ev, snr_db=s,
                                          trials=trials, seed=551,
                                          importance=True)
            for name, fn in _closed_forms(M):
                closed = cf[name, M, s] = fn(cfg, 1, ev, snr_db=s).raw
                margins.append((closed - (est.value - _bound("5a") * est.se),
                                f"{name} M={M} {s:g} dB"))
    bad = [tag for m, tag in margins if m < 0]
    least = min(margins, key=lambda p: p[0])
    yield ("5a", not bad,
           f"all {len(margins)} comparisons dominate; smallest margin "
           f"{least[0]:.2e} at {least[1]}" if not bad
           else "violations: " + ", ".join(bad))

    def mismatch(M):
        """Relative slope gap, Monte Carlo and closed-form decay from 30
        to 40 dB in decades/10dB."""
        name = "m1" if M == 1 else "general"
        slope_mc = math.log10(mc[M, 30.0].value / mc[M, 40.0].value)
        slope_cf = math.log10(cf[name, M, 30.0] / cf[name, M, 40.0])
        return abs(slope_mc - slope_cf) / slope_cf, slope_mc, slope_cf

    # M = 1 and 3 are in both the quick and the full set
    worst = max(((M,) + mismatch(M) for M in (1, 3)), key=lambda d: d[1])
    yield ("5b", worst[1] <= _bound("5b"),
           f"max slope mismatch {worst[1] * 100:.1f}% at M={worst[0]} "
           f"(mc {worst[2]:.3f} vs closed {worst[3]:.3f} decades/10dB)")

    if quick:
        return
    lo, hi = mc[15, 30.0], mc[15, 40.0]
    if lo.value > 0.0 and hi.value > 0.0 and hi.se / hi.value < 0.2:
        rel = mismatch(15)[0]
        yield "5c", rel <= _bound("5c"), f"slope mismatch {rel * 100:.1f}%"
    else:
        yield ("5c", False,
               f"estimate at 40 dB too noisy to measure a slope "
               f"({hi.value:.2e} +/- {hi.se:.1e} from {hi.trials:.0e} "
               f"trials, tilt {hi.kappa:.3f}, effective sample size "
               f"{hi.ess:.1f})")


# ---------------------------------------------------------------------------
# 6: diversity order

def check_diversity(quick: bool = False):
    ms = (3, 6) if quick else (3, 6, 9, 12, 15)
    sigma2 = 0.5
    tol = _bound("6")
    rels = []
    for M in ms:
        rep = diversity_order(default_config(M=M), 1)
        rels.append((M, rep.rel_err, rep.analytic, rep.numeric))
    rep2 = diversity_order(default_config(M=ms[0]), 2)
    ana = [analytic_diversity(M, sigma2) for M in ms]
    increasing = all(b > a for a, b in zip(ana, ana[1:]))
    users_equal = (analytic_diversity(ms[0], sigma2) == rep2.analytic
                   and rep2.rel_err <= tol)
    worst = max(rels, key=lambda r: r[1])
    passed = all(r[1] <= tol for r in rels) and increasing and users_equal
    yield ("6", passed,
           f"max secant mismatch {worst[1] * 100:.1f}% at M={worst[0]} "
           f"(analytic {worst[2]:.3f}, numeric {worst[3]:.3f}); order "
           + ("strictly increasing" if increasing else "NOT increasing")
           + ("; users agree" if users_equal else "; users DIFFER"))


# ---------------------------------------------------------------------------
# 7: union bound vs simulation, gap, and feasibility

def _bound_crossing(cfg, user, target):
    """SNR in dB, between 2 and 70, where the union bound reaches target."""
    # imported here: loading scipy.optimize costs every CLI command ~0.3 s
    from scipy import optimize
    f = lambda s: (math.log10(union_bound_curve(cfg, user, (s,)).raw[0])
                   - math.log10(target))
    return optimize.brentq(f, 2.0, 70.0, xtol=1e-4)


def check_union_bound(quick: bool = False):
    frames = 40_000 if quick else 200_000
    grid = tuple(float(s) for s in range(0, 31, 5))
    target = 1.8e-3

    viol = []
    cross = {}
    for M in (3, 6):
        cfg = default_config(M=M)
        sim = simulate_ber(cfg, grid, frames=frames, seed=771)
        for user in (1, 2):
            bound = union_bound_curve(cfg, user, grid)
            for i, s in enumerate(grid):
                if bound.value[i] < sim[user].ci_low[i]:
                    viol.append(f"M={M} user {user} at {s:g} dB")
            cross[(M, user)] = _bound_crossing(cfg, user, target)
    yield ("7a", not viol,
           "bound >= simulation lower CI at all "
           f"{len(grid) * 4} points ({frames:.0e} frames)" if not viol
           else "violations: " + ", ".join(viol))

    gains = {1: 9.8, 2: 10.0}          # dB per user, the paper's reading
    tol = _bound("7b")
    gap = {u: cross[(3, u)] - cross[(6, u)] for u in gains}
    yield ("7b", all(abs(gap[u] - gains[u]) <= tol for u in gains),
           f"measured {gap[1]:.2f} dB (user 1, target {gains[1]}) and "
           f"{gap[2]:.2f} dB (user 2, target {gains[2]}), tolerance "
           f"{CRITERIA['7b'][1]}")

    # each curve is simulable out to where it reaches 1e-5; a hundred
    # observed errors at that floor cost 1e7 bits, well inside desk scale
    floor = 1e-5
    floors = {}
    for M in (3, 6):
        cfg = default_config(M=M)
        for user in (1, 2):
            floors[(M, user)] = _bound_crossing(cfg, user, floor)
    bits = 100.0 / floor
    inside = all(cross[k] < floors[k] for k in cross)
    deepest = max(floors.values())
    yield ("7c", inside and bits <= _bound("7c"),
           "every curve stays above 1e-5 through its reference crossing "
           f"(simulable windows end at {deepest:.1f} dB at the widest); "
           f"{bits:.0e} bits per point suffice at the floor")


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
                vals.append(union_bound_curve(cfg, user, (snr,)).value[0])
            deltas.append(abs(vals[0] - vals[1]))
        rows.append((M, deltas[0], deltas[1]))
        if not deltas[0] > deltas[1]:
            viol.append(f"M={M} ({deltas[0]:.3e} vs {deltas[1]:.3e})")
    tight = min(rows, key=lambda r: r[1] - r[2])
    yield ("8", not viol,
           f"user-1 shift exceeds user-2 shift for all M in {list(ms)}; "
           f"tightest at M={tight[0]}" if not viol else
           "ordering fails at " + ", ".join(viol))


# ---------------------------------------------------------------------------
# 9: fitted shape-parameter trend

def check_parameter_trend(quick: bool = False):
    sigma2 = 0.5
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
    yield ("9a", not viol,
           f"a5 < a4 for all real pairs in M = 1..64; a5 = conj(a4) with "
           f"Im a5 < 0 for the conjugate pairs at M in {pairs}" if not viol
           else f"ordering or labelling fails for M in {viol}")

    seq = [fits[M].a5.real for M in range(1, 65)]
    inc = all(b > a for a, b in zip(seq, seq[1:]))
    yield ("9b", inc,
           f"a5 rises from {seq[0]:.3f} at M=1 to {seq[-1]:.3f} at M=64"
           if inc else "a5 is not monotone")


# ---------------------------------------------------------------------------
# 10: adjudication of the two published large-M readings

def check_adjudication(quick: bool = False):
    """Both large-M closed-form readings against quadrature at M = 15.

    The two readings differ in whether the distance product enters the
    quadratic coefficient of the Gaussian average; the unscaled one is
    ``pep_clt`` on a copy of the scenario at unit distance product. The
    detail reports the worst relative error of each and which (if
    either) stays within the bound of the oracle.
    """
    M = 15
    cfg = default_config(M=M)
    worst = {"scaled": 0.0, "unscaled": 0.0}
    for user, ev in enumerate(_canonical_events(cfg), start=1):
        unit = _normalized_probe(cfg, user)
        for s in (0.0, 10.0, 20.0, 30.0):
            sc = pep_clt(cfg, user, ev, snr_db=s)
            un = pep_clt(unit, user, ev, snr_db=s)
            ref = pep_quadrature(cfg, user, ev, snr_db=s, pdf_model="clt",
                                 abs_tol=max(sc.raw * 1e-8, 1e-280))
            worst["scaled"] = max(worst["scaled"], abs(sc.raw - ref) / ref)
            worst["unscaled"] = max(worst["unscaled"],
                                    abs(un.raw - ref) / ref)
    within = [k for k, v in worst.items() if v <= _bound("10")]
    verdict = ("both" if len(within) == 2 else within[0] if within
               else "neither")
    # the verdict is that the report exists, whichever reading it favours
    yield ("10", True,
           f"report produced at M={M}: scaled reading max rel "
           f"{worst['scaled']:.1e}, unscaled {worst['unscaled']:.1e}; "
           f"within {_bound('10'):.0%}: {verdict}")


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
    """Run the selected checks in order and return one record a criterion.

    Each criterion is timed from the record before it. A runner that
    raises keeps the records it yielded and adds one FAIL record.
    """
    results = []

    def record(criterion, passed, detail, label=None, skipped=False):
        nonlocal t0
        now = time.perf_counter()
        results.append(CheckResult(
            criterion, label or CRITERIA[criterion][0], passed, detail,
            now - t0, skipped))
        t0 = now

    for cid, fn in CHECKS:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        try:
            for criterion, passed, detail in fn(quick=quick):
                record(criterion, passed, detail)
        except Exception as exc:
            record(cid, False, f"runner raised {exc!r}",
                   label=fn.__name__.replace("check_", ""))
            continue
        for criterion in QUICK_SKIPS if quick else ():
            if criterion.rstrip(string.ascii_lowercase) == cid:
                record(criterion, True, "skipped under quick (element "
                       "count outside the quick set)", skipped=True)
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
