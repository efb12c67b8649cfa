"""Checks of one round's outputs against the mpmath references.

Every operation of a workload gets one verdict: "ok", "wrong" (its output
missed its reference or broke a property) or "error" (it raised, or its
output is missing or malformed). Deterministic outputs also give accuracy
digits, -log10 of their relative error against mpmath; Monte Carlo
outputs give precision digits, -log10(SE / estimate).

Tolerances:

* closed forms and the density table: 1e-8 relative up to M = 15 (the
  specfun tests' tolerance for the Chernoff kernel against mpmath), 1e-7
  above, where the float64 moment fit drifts from the 60-digit one (the
  fit tests' tolerance for M > 15);
* the fit itself: 1e-9 up to M = 15, 1e-7 above, as in the fit tests;
* the four-term asymptote: 1e-6 (criterion 4a's tolerance for a closed
  form) of the sum of its terms' moduli rather than of its value, because
  the terms cancel, and because the fit's drift reaches it amplified by
  |ln zeta| and by gamma factors near their poles (3.4e-7 at M = 32);
* quadrature against the closed form it referees: 1e-6 (criterion 4a);
  on the exact single-element density, with either kernel: 1e-8
  (criterion 4b);
* the single-element and Gaussian closed forms, which use no fit: 1e-8;
* the conditional kernel against erfc: 1e-12.

Properties:

* the asymptote's relative gap to the closed form is smaller at every
  point of the upper half of the SNR grid than anywhere in the lower half;
* M = 1 estimates lie within 4 SE of the exact-kernel value;
* every closed form lies at or above the estimate minus 3 SE;
* union bounds lie at or above the simulated BER's lower Wilson limit at
  4 sigma, like the 4 SE above; the 95% limit `simulate_ber` reports
  (checked against the formula at 1e-8) would trip in about one run in a
  hundred at M = 6, user 2, 20 dB, where the bound (2.31e-5) sits within
  15% of the BER;
* sampled moments lie within 5 SE of the textbook values.
"""

import math

import spec

DIGITS_CAP = 17.0
TOL_QUAD = 1e-6
TOL_ASYMPTOTE = 1e-6
TOL_EXACT = 1e-8
TOL_CONDITIONAL = 1e-12
EXACT_SE = 4.0
BOUND_SE = 3.0
MOMENT_SE = 5.0
WILSON_Z95 = 1.959963984540054
BOUND_Z = 4.0


def tol_closed(M):
    return 1e-8 if M <= 15 else 1e-7


def tol_fit(M):
    return 1e-9 if M <= 15 else 1e-7


def digits(err):
    """Digits of a relative error, capped at float64's reach; 0 for NaN."""
    if not 0 <= err < math.inf:
        return 0.0
    return min(DIGITS_CAP, -math.log10(err)) if err > 0 else DIGITS_CAP


def rel_err(got, ref):
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got)


class Verdict:
    def __init__(self, key):
        self.key = key
        self.status = "ok"
        self.accuracy = []      # digits of deterministic values
        self.precision = []     # digits of simulated values
        self.detail = ""

    def fail(self, detail):
        if self.status == "ok":
            self.status = "wrong"
            self.detail = detail

    def close(self, got, ref, tol, what, scale=None):
        """Relative comparison; `scale` replaces |ref| as the yardstick."""
        got, ref = float(got), float(ref)
        err = abs(got - ref) / (scale if scale is not None else
                                (abs(ref) or 1.0))
        self.accuracy.append(digits(rel_err(got, ref)))
        if not err <= tol:
            self.fail(f"{what}: {got!r} vs {ref!r}, {err:.1e} > {tol:.0e}")


def _model_m(key):
    return int(key.split("/M")[1].split("/")[0])


def _check_closed_form(v, key, out, refs):
    kind = key.split("/")[0]
    M = _model_m(key)
    ref = refs[key]
    if kind == "fit":
        names = ("a2", "a3", "a4", "a5", "log_a1")
        got = [out[0], out[1], complex(out[2], out[3]),
               complex(out[4], out[5]), out[6]]
        want = [ref[0], ref[1], complex(ref[2], ref[3]),
                complex(ref[4], ref[5]), ref[6]]
        for name, g, w in zip(names, got, want):
            tol = max(tol_fit(M), 1e-8) if name in ("a4", "a5") else tol_fit(M)
            err = abs(g - w) / abs(w)
            v.accuracy.append(digits(err))
            if not err <= tol:
                v.fail(f"{name}: {g!r} vs {w!r}, {err:.1e} > {tol:.0e}")
        return
    tol = {"m1": TOL_EXACT, "clt": TOL_EXACT,
           "asymptotic": TOL_ASYMPTOTE}.get(kind, tol_closed(M))
    if len(out) != len(ref):
        v.status, v.detail = "error", f"{len(out)} values, {len(ref)} expected"
        return
    scales = refs.get("asymptotic-scale/" + key.split("/", 1)[1]) \
        if kind == "asymptotic" else None
    for i, (g, w) in enumerate(zip(out, ref)):
        v.close(g, w, tol, f"point {i}",
                scale=scales[i] if scales is not None else None)
    if kind == "asymptotic":
        general = refs["general/" + key.split("/", 1)[1]]
        gaps = [abs(g - c) / c for g, c in zip(out, general)]
        half = len(gaps) // 2
        if not max(gaps[half + 1:]) < min(gaps[:half + 1]):
            v.fail("relative gap to the closed form does not shrink: "
                   f"lower half min {min(gaps[:half + 1]):.2e}, "
                   f"upper half max {max(gaps[half + 1:]):.2e}")


def _check_referee(v, key, out, refs):
    model, kernel = key.split("/")[1:3]
    tol = TOL_QUAD if kernel == "chernoff" and model != "dr" else TOL_EXACT
    v.close(out[0], refs[key][0], tol, "quadrature")


def _check_pep(v, key, out, refs):
    _, _, user, snr = key.split("/")
    M = _model_m(key)
    i = spec.PEP_SNR_DB.index(float(snr))
    value, se = out[0], out[1]
    if not (value > 0 and se > 0):
        v.status, v.detail = "error", f"estimate {value!r} +/- {se!r}"
        return
    v.precision.append(-math.log10(se / value))
    if M == 1:
        exact = refs[f"exact/M1/{user}"][i]
        z = (value - exact) / se
        if not abs(z) <= EXACT_SE:
            v.fail(f"{z:+.2f} SE from the exact value {exact!r}")
    for form, values in refs[f"closed/M{M}/{user}"].items():
        if not values[i] >= value - BOUND_SE * se:
            v.fail(f"{form} closed form {values[i]!r} below "
                   f"{value!r} - {BOUND_SE:g} SE")


def wilson_low(k, n, z):
    """Lower end of the Wilson score interval for k errors in n trials."""
    p, z2 = k / n, z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return max(0.0, centre - half)


def _check_ber(v, key, out, refs):
    M = _model_m(key)
    grid = spec.BER_SNR_DB[M]
    for user in spec.USERS:
        errors, frames, ci_low = out[str(user)]
        bound = refs[f"union/M{M}/u{user}"]
        for i, (k, low) in enumerate(zip(errors, ci_low)):
            v.close(low, wilson_low(k, frames, WILSON_Z95), TOL_EXACT,
                    f"user {user} at {grid[i]:g} dB: 95% lower limit")
            if k > 0:
                p = k / frames
                v.precision.append(
                    -math.log10(math.sqrt(p * (1 - p) / frames) / p))
            strict = wilson_low(k, frames, BOUND_Z)
            if not bound[i] >= strict:
                v.fail(f"user {user} at {grid[i]:g} dB: union bound "
                       f"{bound[i]!r} below the BER's {BOUND_Z:g}-sigma "
                       f"lower limit {strict!r} ({k} errors)")


def _check_moments(v, key, out, refs):
    mu, se = out
    for k, (m, s, want) in enumerate(zip(mu, se, refs[key]), start=1):
        v.precision.append(-math.log10(s / m))
        if not abs(m - want) <= MOMENT_SE * s:
            v.fail(f"moment {k}: {(m - want) / s:+.2f} SE from {want!r}")


def _check_conditional(v, key, out, refs):
    for row, want_row in zip(out, refs[key]):
        for g, w in zip(row, want_row):
            v.close(g, w, TOL_CONDITIONAL, "conditional kernel")


CHECKS = {
    "closed_form": _check_closed_form,
    "referee": _check_referee,
    "pep": _check_pep,
    "ber": _check_ber,
    "moments": _check_moments,
    "conditional": _check_conditional,
}


def expected_ops(workload):
    """Operation keys a round of `workload` must report."""
    if workload == "closed_form":
        keys = [f"fit/M{M}" for M in spec.FIT_SWEEP_M]
        for M in spec.CLOSED_M:
            for user in spec.USERS:
                tag = f"M{M}/u{user}"
                keys += [f"density/{tag}", f"general/{tag}"]
                keys += [f"m1/{tag}"] if M == 1 else []
                keys += [f"clt/{tag}"] if M > 10 else []
                keys += [f"asymptotic/{tag}", f"union/{tag}",
                         f"diversity/{tag}"]
        return keys
    if workload == "referee":
        return [spec.referee_key(*p) for p in spec.REFEREE_POINTS]
    keys = [f"pep/M{M}/u{user}/{snr:g}" for M in spec.PEP_M
            for user in spec.USERS for snr in spec.PEP_SNR_DB]
    keys += [f"ber/M{M}" for M in spec.BER_SNR_DB]
    keys += [f"moments/M{M}" for M in spec.MOMENT_M]
    keys += [f"conditional/u{user}" for user in spec.USERS]
    return keys


def check_round(workload, outputs, refs):
    """One verdict per expected operation of the round."""
    refs = refs[workload]
    verdicts = []
    for key in expected_ops(workload):
        v = Verdict(key)
        verdicts.append(v)
        out = outputs.get(key)
        if out is None or isinstance(out, dict) and "error" in out:
            v.status = "error"
            v.detail = out["error"] if out else "missing"
            continue
        kind = workload if workload != "monte_carlo" else key.split("/")[0]
        try:
            CHECKS[kind](v, key, out, refs)
        except (TypeError, ValueError, KeyError, IndexError,
                ZeroDivisionError) as exc:
            v.status, v.detail = "error", f"malformed output: {exc!r}"
    return verdicts
