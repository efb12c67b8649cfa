"""Rebuild `references.json` with mpmath alone.

    python3 bench/make_references.py

Every value the benchmark checks a deterministic output against, and the
exact values its Monte Carlo checks use, are computed here from the
workload inputs in `spec.py` without importing `lisnoma`:

* the moment fit, solved at 60 digits from the textbook moments;
* the density kernel and the Chernoff kernel through `mpmath.meijerg`, in
  the layouts the program's specfun tests use;
* the single-element form eta * exp(eta) * E1(eta);
* `mpmath.quad` of the exact kernel against (x D / sigma^4) K0(x sqrt(D) /
  sigma^2), and of the Chernoff kernel against the Gaussian density;
* union bounds as means over the error events `spec.union_events` lists;
* the textbook moments.

Kernels are evaluated at 30 digits; a sample is recomputed at 45 digits
and must agree to 1e-20, or the build stops.
"""

import json
import os
import sys
import time

import mpmath as mp

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import spec  # noqa: E402

DPS = 30
FIT_DPS = 60


def textbook_moments(M):
    M, v, pi = mp.mpf(M), mp.mpf(spec.SIGMA2), mp.pi
    mu1 = M * pi * v / 2
    mu2 = (4 + (M - 1) * pi ** 2 / 4) * M * v ** 2
    mu3 = M * pi * (mp.mpf(9) / 2 + 6 * (M - 1)
                    + (M - 1) * (M - 2) * pi ** 2 / 8) * v ** 3
    mu4 = (64 * M + 48 * M * (M - 1) + 9 * M * (M - 1) * pi ** 2
           + 6 * M * (M - 1) * (M - 2) * pi ** 2
           + M * (M - 1) * (M - 2) * (M - 3) * pi ** 4 / 16) * v ** 4
    return mu1, mu2, mu3, mu4


_FITS = {}


def fit(M):
    """Four-moment fit of the density kernel, solved at 60 digits."""
    if M not in _FITS:
        with mp.workdps(FIT_DPS):
            mu1, mu2, mu3, mu4 = textbook_moments(M)
            p2, p3, p4 = mu2 / mu1, mu3 / mu2, mu4 / mu3
            a3 = (4 * p4 - 9 * p3 + 6 * p2 - mu1) / (-p4 + 3 * p3 - 3 * p2
                                                     + mu1)
            a2 = (a3 / 2) * (p4 - 2 * p3 + p2) + 2 * p4 - 3 * p3 + p2
            W = (a3 * (p2 - mu1) + 2 * p2 - mu1) / a2
            a6 = W - 3
            a7 = mp.sqrt(mp.mpc((W - 1) ** 2 - 4 * mu1 * (a3 + 1) / a2))
            a4, a5 = (a6 + a7) / 2, (a6 - a7) / 2
            log_a1 = mp.re(mp.loggamma(a3 + 1) - mp.log(a2)
                           - mp.loggamma(a4 + 1) - mp.loggamma(a5 + 1))
            _FITS[M] = dict(a2=a2, a3=a3, a4=a4, a5=a5, a6=a6, log_a1=log_a1)
    return _FITS[M]


def _real(v):
    v = mp.mpc(v)
    if abs(v.imag) > mp.mpf(10) ** (8 - mp.mp.dps) * max(abs(v.real), 1e-300):
        raise ArithmeticError(f"complex kernel value {v}")
    return v.real


def g2012(z, p):
    return _real(mp.meijerg([[], [p["a3"]]], [[p["a4"], p["a5"]], []], z))


def g1443(zeta, p):
    upper = [1 + p["a3"] / 2, (1 + p["a3"]) / 2]
    lower = [1 + p["a4"] / 2, (1 + p["a4"]) / 2,
             1 + p["a5"] / 2, (1 + p["a5"]) / 2]
    return _real(mp.meijerg([[1], upper], [lower, []], 1 / mp.mpf(zeta)))


def log_k(p):
    return (p["log_a1"] + mp.log(p["a2"]) + (p["a6"].real - p["a3"])
            * mp.log(2) - mp.log(mp.pi) / 2)


def lam2(ev, snr):
    """Squared noise scale of the event at this SNR."""
    return 2 * mp.mpf(spec.noise_density(snr)) * mp.mpf(ev.delta_bar) ** 2


def zeta(M, ev, snr, D):
    p = fit(M)
    return 2 * p["a2"] ** 2 * mp.mpf(ev.vartheta) ** 2 / (D * lam2(ev, snr))


def chernoff_general(M, ev, snr, D):
    p = fit(M)
    return mp.exp(log_k(p)) * g1443(zeta(M, ev, snr, D), p)


def chernoff_m1(ev, snr, D):
    eta = lam2(ev, snr) * D / (2 * mp.mpf(spec.SIGMA2) ** 2
                               * mp.mpf(ev.vartheta) ** 2)
    return eta * mp.exp(eta) * mp.e1(eta)


def chernoff_auto(M, ev, snr, D):
    """The closed form the union bound sums: single-element form at M = 1."""
    if M == 1:
        return chernoff_m1(ev, snr, D)
    return chernoff_general(M, ev, snr, D)


def _quad(f, points):
    val, err = mp.quad(f, points, error=True, maxdegree=10)
    if err > abs(val) * mp.mpf(10) ** -15:
        raise ArithmeticError(f"mpmath.quad stopped at error {err} of {val}")
    return val


def chernoff_clt(M, ev, snr, D):
    """Chernoff kernel averaged over the Gaussian density on [0, inf)."""
    mu1, mu2, _, _ = textbook_moments(M)
    var = mu2 - mu1 ** 2
    rd = mp.sqrt(D)
    th2, l2 = mp.mpf(ev.vartheta) ** 2, lam2(ev, snr)

    def f(x):
        return (mp.exp(-x * x * th2 / (2 * l2)) * rd
                / mp.sqrt(2 * mp.pi * var)
                * mp.exp(-(x * rd - mu1) ** 2 / (2 * var)))
    # the integrand is one Gaussian bump; split at its centre and spread
    a = th2 / l2 + D / var
    centre = mu1 * rd / var / a
    width = 1 / mp.sqrt(a)
    knots = sorted({max(centre + k * width, 0) for k in (-8, 0, 8)} - {0})
    return _quad(f, [0] + knots + [mp.inf])


def exact_dr(ev, snr, D):
    """Exact kernel Q averaged over the single-element density."""
    s2 = mp.mpf(spec.SIGMA2)
    rd = mp.sqrt(D)
    scale = mp.mpf(ev.vartheta) / mp.sqrt(lam2(ev, snr))

    def f(x):
        return (mp.erfc(x * scale / mp.sqrt(2)) / 2
                * x * D / s2 ** 2 * mp.besselk(0, x * rd / s2))
    knots = sorted({1 / scale, s2 / rd, 10 * s2 / rd})
    return _quad(f, [0] + knots + [mp.inf])


def asymptotic(M, ev, snr, D):
    """First residue of each of the four pole families of the kernel.

    Returns the sum and the sum of the terms' moduli: their ratio is the
    cancellation the float evaluation suffers.
    """
    p = fit(M)
    a3, a4, a5 = p["a3"], p["a4"], p["a5"]
    poles = (1 + a4 / 2, (1 + a4) / 2, 1 + a5 / 2, (1 + a5) / 2)
    lz = mp.log(zeta(M, ev, snr, D))
    terms = []
    for j, q in enumerate(poles):
        lg = mp.loggamma(q) - q * lz
        lg += sum(mp.loggamma(poles[i] - q) for i in range(4) if i != j)
        lg -= mp.loggamma(1 + a3 / 2 - q) + mp.loggamma((1 + a3) / 2 - q)
        terms.append(mp.exp(log_k(p) + lg))
    return _real(mp.fsum(terms)), mp.fsum(abs(t) for t in terms)


def union(M, user, snr, D):
    # the closed forms see an event only through vartheta^2 and delta_bar^2
    events = spec.union_events(user)
    values = {}
    for ev in events:
        key = (ev.vartheta ** 2, ev.delta_bar ** 2)
        if key not in values:
            values[key] = chernoff_auto(M, ev, snr, D)
    return mp.fsum(values[(ev.vartheta ** 2, ev.delta_bar ** 2)]
                   for ev in events) / len(events)


def density(M, user):
    p = fit(M)
    D = mp.mpf(spec.distance_factor(user))
    scale = mp.exp(p["log_a1"]) * mp.sqrt(D)
    return [scale * g2012(mp.mpf(x) * mp.sqrt(D) / p["a2"], p) if x > 0
            else mp.mpf(0) for x in spec.density_grid(M, user)]


def diversity(M, user):
    """Analytic order and the 35/45 dB secant on the unit-distance probe."""
    p = fit(M)
    analytic = min(p["a4"].real, p["a5"].real) / 2 + mp.mpf(1) / 2
    ev = max(spec.union_events(user), key=lambda e: e.vartheta)
    lo, hi = spec.DIVERSITY_GRID_DB
    p_lo, p_hi = (chernoff_auto(M, ev, s, mp.mpf(1)) for s in (lo, hi))
    numeric = (mp.log10(p_lo) - mp.log10(p_hi)) / ((hi - lo) / 10)
    return [analytic, numeric]


def closed_form():
    out = {}
    for M in spec.FIT_SWEEP_M:
        p = fit(M)
        out[f"fit/M{M}"] = [p["a2"], p["a3"], p["a4"].real, p["a4"].imag,
                            p["a5"].real, p["a5"].imag, p["log_a1"]]
    for M in spec.CLOSED_M:
        for user in spec.USERS:
            tag = f"M{M}/u{user}"
            D = mp.mpf(spec.distance_factor(user))
            ev = spec.canonical_event(user)
            grid = spec.CLOSED_SNR_DB
            out[f"density/{tag}"] = density(M, user)
            out[f"general/{tag}"] = [chernoff_general(M, ev, s, D)
                                     for s in grid]
            if M == 1:
                out[f"m1/{tag}"] = [chernoff_m1(ev, s, D) for s in grid]
            if M > 10:
                out[f"clt/{tag}"] = [chernoff_clt(M, ev, s, D) for s in grid]
            out[f"asymptotic/{tag}"], out[f"asymptotic-scale/{tag}"] = zip(
                *(asymptotic(M, ev, s, D) for s in grid))
            out[f"union/{tag}"] = [union(M, user, s, D) for s in grid]
            out[f"diversity/{tag}"] = diversity(M, user)
        print(f"closed_form M = {M} done", file=sys.stderr)
    return out


def referee():
    out = {}
    for M, user, snr, model, kernel in spec.REFEREE_POINTS:
        D = mp.mpf(spec.distance_factor(user))
        ev = spec.canonical_event(user)
        if model == "g":
            val = chernoff_general(M, ev, snr, D)
        elif model == "clt":
            val = chernoff_clt(M, ev, snr, D)
        elif kernel == "chernoff":
            val = chernoff_m1(ev, snr, D)
        else:
            val = exact_dr(ev, snr, D)
        out[spec.referee_key(M, user, snr, model, kernel)] = [val]
    return out


def monte_carlo():
    out = {}
    for M in spec.PEP_M:
        for user in spec.USERS:
            D = mp.mpf(spec.distance_factor(user))
            ev = spec.canonical_event(user)
            forms = {"general": [chernoff_general(M, ev, s, D)
                                 for s in spec.PEP_SNR_DB]}
            if M == 1:
                forms["m1"] = [chernoff_m1(ev, s, D) for s in spec.PEP_SNR_DB]
                out[f"exact/M1/u{user}"] = [exact_dr(ev, s, D)
                                            for s in spec.PEP_SNR_DB]
            if M > 10:
                forms["clt"] = [chernoff_clt(M, ev, s, D)
                                for s in spec.PEP_SNR_DB]
            out[f"closed/M{M}/u{user}"] = forms
    for M, grid in spec.BER_SNR_DB.items():
        for user in spec.USERS:
            D = mp.mpf(spec.distance_factor(user))
            out[f"union/M{M}/u{user}"] = [union(M, user, s, D) for s in grid]
    for M in spec.MOMENT_M:
        out[f"moments/M{M}"] = list(textbook_moments(M))
    for user in spec.USERS:
        ev = spec.canonical_event(user)
        out[f"conditional/u{user}"] = [
            [mp.erfc(mp.mpf(q) * ev.vartheta / mp.sqrt(lam2(ev, s))
                     / mp.sqrt(2)) / 2 for q in spec.conditional_gains(ev, s)]
            for s in spec.PEP_SNR_DB]
    return out


def _floats(v):
    if isinstance(v, dict):
        return {k: _floats(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_floats(x) for x in v]
    return float(v)


def _spot_check():
    """Recompute one value of each kind at 45 digits."""
    ev1, ev2 = spec.canonical_event(1), spec.canonical_event(2)
    D1, D2 = (mp.mpf(spec.distance_factor(u)) for u in (1, 2))
    cases = [
        lambda: chernoff_general(32, ev1, 40.0, D1),
        lambda: chernoff_general(3, ev2, 0.0, D2),
        lambda: g2012(mp.mpf("9.1"), fit(32)),
        lambda: asymptotic(2, ev1, 20.0, D1)[0],
        lambda: chernoff_clt(15, ev2, 30.0, D2),
        lambda: exact_dr(ev1, 40.0, D1),
    ]
    for case in cases:
        lo = case()
        with mp.workdps(45):
            hi = case()
        if abs(lo - hi) > abs(hi) * mp.mpf(10) ** -20:
            raise ArithmeticError(f"30 and 45 digits disagree: {lo} vs {hi}")


def main():
    mp.mp.dps = DPS
    t0 = time.time()
    _spot_check()
    refs = {"meta": {"mpmath": mp.__version__, "dps": DPS,
                     "fit_dps": FIT_DPS}}
    for name, build in (("closed_form", closed_form), ("referee", referee),
                        ("monte_carlo", monte_carlo)):
        refs[name] = _floats(build())
        print(f"{name}: {len(refs[name])} entries, "
              f"{time.time() - t0:.0f} s", file=sys.stderr)
    path = os.path.join(BENCH, "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
