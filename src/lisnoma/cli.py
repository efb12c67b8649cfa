"""Command-line front end.

Every analysis is a subcommand emitting plot-ready CSV or JSON. Each
output carries a manifest comment (subcommand, scenario, overrides,
seed, tool version, and its hash), and identical manifests produce
byte-identical files: no timestamps, fixed float formatting, fixed row
order.

Exit codes: 0 on success, 1 on numerical failure, 2 on argument errors.
The default seed comes from the LISNOMA_SEED environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__, checks
from .asymptotics import analytic_diversity, diversity_order
from .channel import sample_cascade, simulate_ber, simulate_pep
from .config import SnrGrid, SystemConfig, default_config, load_scenario
from .moments import analytic_moments, empirical_moments
from .pdf_approx import (FittingError, clt_params, fit_gparams, pdf_clt,
                         pdf_double_rayleigh, pdf_g)
# the closed forms are reached by name, through closed_form
from .pep import (build_event, closed_form, pep_clt, pep_general, pep_m1,
                  pep_quadrature)
from .specfun import ConvergenceError
from .union_bound import enumerate_events, union_bound

SEED_ENV = "LISNOMA_SEED"


@dataclass(frozen=True)
class RunManifest:
    scenario: Optional[str]
    subcommand: str
    overrides: dict
    seed: int
    output: str
    version: str

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"))

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _fmt(v) -> str:
    return "%.12g" % float(v)


def _emit(text: str, path: Optional[str]) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(manifest: RunManifest, header: str, rows, comments=()) -> str:
    lines = [f"# manifest-sha256:{manifest.sha256}",
             f"# manifest:{manifest.canonical()}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_out(manifest: RunManifest, payload: dict) -> str:
    body = dict(payload)
    body["manifest"] = asdict(manifest)
    body["manifest_sha256"] = manifest.sha256
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _user_path(path: Optional[str], user: int) -> Optional[str]:
    if path in (None, "-"):
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.u{user}{ext or '.csv'}"


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(os.environ.get(SEED_ENV, "0"))


def _build_config(args, parser) -> tuple:
    """Scenario plus explicit overrides; argument errors exit 2 here."""
    overrides = {}
    try:
        if getattr(args, "scenario", None):
            cfg = load_scenario(args.scenario)
        else:
            cfg = default_config()
        if getattr(args, "M", None) is not None:
            cfg = cfg.replace(M=int(args.M))
            overrides["M"] = int(args.M)
        if getattr(args, "sigma2", None) is not None:
            cfg = cfg.replace(sigma2=float(args.sigma2))
            overrides["sigma2"] = float(args.sigma2)
        if getattr(args, "p1", None) is not None:
            if cfg.L != 2:
                raise ValueError("--p1 applies to two-user scenarios only")
            p1 = float(args.p1)
            cfg = cfg.replace(P=(p1, 1.0 - p1))
            overrides["p1"] = p1
    except (OSError, TypeError, ValueError) as exc:
        # unreadable or malformed scenario files are argument errors too
        parser.error(str(exc))
    return cfg, overrides


def _manifest(args, overrides, output=None) -> RunManifest:
    return RunManifest(
        scenario=getattr(args, "scenario", None),
        subcommand=args.cmd,
        overrides=dict(sorted(overrides.items())),
        seed=_resolve_seed(args),
        output=output if output is not None else (args.out or "-"),
        version=__version__)


def _parse_value_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:count")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or not b > a or a < 0:
        raise ValueError("grid needs stop > start >= 0 and count >= 2")
    return np.linspace(a, b, n)


def _canonical_cli_event(cfg: SystemConfig, user: int):
    x = tuple(c[0] for c in cfg.constellation)
    alt = [s for s in cfg.constellation[user - 1]
           if abs(s - x[user - 1]) > 1e-12]
    sic = (0.0,) * (user - 1) if user > 1 else None
    return build_event(cfg, user, x, alt[0], sic_errors=sic)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_moments(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    overrides["samples"] = args.samples
    man = _manifest(args, overrides)
    mom = analytic_moments(cfg.M, cfg.sigma2)
    payload = {"M": cfg.M, "sigma2": cfg.sigma2,
               "analytic": {f"mu{i + 1}": mom.as_tuple()[i]
                            for i in range(4)},
               "empirical": None}
    if args.samples:
        emp = empirical_moments(cfg.M, cfg.sigma2, samples=args.samples,
                                seed=_resolve_seed(args))
        payload["empirical"] = {
            "mu": list(emp.mu), "se": list(emp.se),
            "samples": emp.samples, "seed": emp.seed}
    _emit(_json_out(man, payload), args.out)
    return 0


def _params_row(M: int, sigma2: float) -> str:
    p = fit_gparams(M, sigma2)
    cells = (M, p.a2, p.a3, p.a4.real, p.a4.imag, p.a5.real, p.a5.imag,
             p.log_a1, int(p.complex_pair))
    return ",".join(_fmt(c) if not isinstance(c, int) else str(c)
                    for c in cells)


def _cmd_fit(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    if args.sweep:
        parts = args.sweep.split(":")
        if len(parts) != 2:
            parser.error("--sweep must be lo:hi")
        lo, hi = int(parts[0]), int(parts[1])
        if lo < 1 or hi < lo:
            parser.error("--sweep needs 1 <= lo <= hi")
        overrides["sweep"] = args.sweep
        man = _manifest(args, overrides)
        rows = [_params_row(M, cfg.sigma2) for M in range(lo, hi + 1)]
        _emit(_csv(man, "M,a2,a3,a4_re,a4_im,a5_re,a5_im,log_a1,complex_pair",
                   rows, comments=(f"sigma2: {_fmt(cfg.sigma2)}",)),
              args.out)
        return 0
    man = _manifest(args, overrides)
    p = fit_gparams(cfg.M, cfg.sigma2)
    payload = {"M": p.M, "sigma2": p.sigma2, "a1": p.a1, "log_a1": p.log_a1,
               "a2": p.a2, "a3": p.a3,
               "a4": {"re": p.a4.real, "im": p.a4.imag},
               "a5": {"re": p.a5.real, "im": p.a5.imag},
               "a6": p.a6, "complex_pair": p.complex_pair}
    _emit(_json_out(man, payload), args.out)
    return 0


def _cmd_pdf(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    if args.model == "dr" and cfg.M != 1:
        parser.error("model dr describes the single-element case; use --M 1")
    if args.user is not None:
        try:
            cfg._check_user(args.user)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        xs = _parse_value_grid(args.grid)
    except ValueError as exc:
        parser.error(str(exc))
    D = cfg.distance_factor(args.user) if args.user else 1.0
    overrides.update(model=args.model, grid=args.grid,
                     user=args.user, samples=args.samples)
    man = _manifest(args, overrides)

    if args.model == "g":
        vals = np.maximum(pdf_g(xs, fit_gparams(cfg.M, cfg.sigma2), D), 0.0)
    elif args.model == "dr":
        vals = pdf_double_rayleigh(xs, cfg.sigma2, D)
    elif args.model == "clt":
        vals = pdf_clt(xs, clt_params(cfg.M, cfg.sigma2), D)
    else:
        batch = sample_cascade(cfg, args.user or 1, args.samples,
                               seed=_resolve_seed(args))
        draws = batch.q if args.user else batch.s
        vals, edges = np.histogram(draws, bins=len(xs),
                                   range=(float(xs[0]), float(xs[-1])),
                                   density=True)
        xs = (edges[:-1] + edges[1:]) / 2.0
    rows = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vals)]
    _emit(_csv(man, "q,density", rows,
               comments=(f"model: {args.model}", f"D: {_fmt(D)}")),
          args.out)
    return 0


def _cmd_pep(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    try:
        cfg._check_user(args.user)
        grid = SnrGrid.parse(args.snr)
    except ValueError as exc:
        parser.error(str(exc))
    # quad rows take their tolerance from the closed form on their density
    form = args.pdf_model if args.method == "quad" else args.method
    if form in ("m1", "dr") and cfg.M != 1:
        parser.error(f"{form} describes the single-element case; use --M 1")
    overrides.update(user=args.user, method=args.method, snr=args.snr,
                     trials=args.trials, pdf_model=args.pdf_model)
    man = _manifest(args, overrides)
    event = _canonical_cli_event(cfg, args.user)
    seed = _resolve_seed(args)

    rows = []
    for s in grid.db:
        if args.method == "mc":
            est = simulate_pep(cfg, args.user, interference=event,
                               snr_db=s, trials=args.trials, seed=seed,
                               importance=True)
            lo = max(0.0, est.value - 1.959963984540054 * est.se)
            hi = min(1.0, est.value + 1.959963984540054 * est.se)
            rows.append(",".join((_fmt(s), _fmt(est.value), _fmt(lo),
                                  _fmt(hi), "mc")))
            continue
        v = closed_form(form, cfg.M, globals())(cfg, args.user, event,
                                                snr_db=s)
        if args.method == "quad":
            # tolerance as a share of the closed form on the same density,
            # since deep-tail rows sit far below any absolute tolerance
            q = pep_quadrature(cfg, args.user, event, snr_db=s,
                               pdf_model=args.pdf_model,
                               abs_tol=max(v.raw * 1e-9, 1e-280))
            tag = f"quad-{args.pdf_model}"
            rows.append(",".join((_fmt(s), _fmt(q), _fmt(q), _fmt(q), tag)))
            continue
        rows.append(",".join((_fmt(s), _fmt(v.value), _fmt(v.value),
                              _fmt(v.value), v.method)))
    comments = (f"user: {args.user}",
                f"event: x={tuple(event.x)} xbar={_fmt(event.xbar)} "
                f"vartheta={_fmt(event.vartheta)}")
    _emit(_csv(man, "snr_db,value,ci_low,ci_high,method", rows, comments),
          args.out)
    return 0


def _cmd_diversity(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    try:
        cfg._check_user(args.user)
    except ValueError as exc:
        parser.error(str(exc))
    overrides.update(user=args.user, numeric=bool(args.numeric))
    man = _manifest(args, overrides)
    payload = {"M": cfg.M, "user": args.user,
               "analytic": analytic_diversity(cfg.M, cfg.sigma2)}
    if args.numeric:
        payload["numeric"] = diversity_order(cfg, args.user).to_dict()
    _emit(_json_out(man, payload), args.out)
    return 0


def _cmd_ber(args, parser) -> int:
    cfg, overrides = _build_config(args, parser)
    try:
        grid = SnrGrid.parse(args.snr)
    except ValueError as exc:
        parser.error(str(exc))
    overrides.update(method=args.method, snr=args.snr, frames=args.frames)
    seed = _resolve_seed(args)

    sim = None
    if args.method in ("mc", "both"):
        sim = simulate_ber(cfg, grid, frames=args.frames, seed=seed)

    for user in range(1, cfg.L + 1):
        enum = enumerate_events(cfg, user)
        print(f"tau: {enum.tau} (user {user})", file=sys.stderr)
        rows = []
        if args.method in ("bound", "both"):
            for s in grid.db:
                v = union_bound(cfg, user, s, enumeration=enum).value
                rows.append(",".join((_fmt(s), _fmt(v), _fmt(v), _fmt(v),
                                      "bound")))
        if sim is not None:
            curve = sim[user]
            for i, s in enumerate(curve.snr_db):
                rows.append(",".join((
                    _fmt(s), _fmt(curve.ber[i]), _fmt(curve.ci_low[i]),
                    _fmt(curve.ci_high[i]), "mc")))
        path = _user_path(args.out, user)
        man = _manifest(args, dict(overrides, user=user),
                        output=path or "-")
        comments = (f"user: {user}", f"tau: {enum.tau}",
                    f"frames: {args.frames}")
        text = _csv(man, "snr_db,value,ci_low,ci_high,method", rows,
                    comments)
        if path in (None, "-") and user > 1:
            sys.stdout.write("\n")
        _emit(text, path)
    return 0


def _cmd_validate(args, parser) -> int:
    only = None
    if args.only:
        only = tuple(t.strip() for t in args.only.split(",") if t.strip())
    results = checks.run_all(quick=args.quick, only=only)
    _emit(checks.format_table(results) + "\n", args.out)
    failed = any(not r.passed and not r.skipped for r in results)
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def _add_common(sp, with_m=True):
    sp.add_argument("--scenario", default=None,
                    help="JSON scenario file (defaults to the built-in one)")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed (default: ${SEED_ENV} or 0)")
    sp.add_argument("--out", default="-",
                    help="output path ('-' for stdout)")
    if with_m:
        sp.add_argument("--M", type=int, default=None,
                        help="number of surface elements")
        sp.add_argument("--sigma2", type=float, default=None,
                        help="per-element Rayleigh parameter")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lisnoma",
        description="Error-rate analysis of a surface-assisted "
                    "two-hop NOMA downlink")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("moments", help="analytic (and sampled) moments")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=0,
                    help="also estimate moments from this many samples")
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("fit", help="fitted density kernel parameters")
    _add_common(sp)
    sp.add_argument("--sweep", default=None,
                    help="emit a CSV over an element-count range lo:hi")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("pdf", help="density tables for plotting")
    _add_common(sp)
    sp.add_argument("--model", required=True,
                    choices=("g", "dr", "clt", "mc"))
    sp.add_argument("--grid", required=True, help="value grid start:stop:count")
    sp.add_argument("--user", type=int, default=None,
                    help="apply this user's distance factor (default: none)")
    sp.add_argument("--samples", type=int, default=1_000_000,
                    help="sample count for the mc model")
    sp.set_defaults(func=_cmd_pdf)

    sp = sub.add_parser("pep", help="pairwise error probability curves")
    _add_common(sp)
    sp.add_argument("--user", type=int, default=1)
    sp.add_argument("--method", required=True,
                    choices=("general", "m1", "clt", "quad", "mc"))
    sp.add_argument("--snr", required=True, help="SNR grid start:stop:step (dB)")
    sp.add_argument("--trials", type=int, default=1_000_000)
    sp.add_argument("--pdf-model", dest="pdf_model", default="g",
                    choices=("g", "dr", "clt"),
                    help="density used by the quad method")
    sp.set_defaults(func=_cmd_pep)

    sp = sub.add_parser("diversity", help="diversity order report")
    _add_common(sp)
    sp.add_argument("--user", type=int, default=1)
    sp.add_argument("--numeric", action="store_true",
                    help="add the high-SNR secant cross-check")
    sp.set_defaults(func=_cmd_diversity)

    sp = sub.add_parser("ber", help="bit error rate: union bound and/or "
                                    "simulation, one CSV per user")
    _add_common(sp)
    sp.add_argument("--snr", required=True, help="SNR grid start:stop:step (dB)")
    sp.add_argument("--method", default="both",
                    choices=("bound", "mc", "both"))
    sp.add_argument("--p1", type=float, default=None,
                    help="power share of the far user")
    sp.add_argument("--frames", type=int, default=200_000)
    sp.set_defaults(func=_cmd_ber)

    sp = sub.add_parser("validate", help="run the cross-model check suite")
    sp.add_argument("--quick", action="store_true",
                    help="reduced element counts and sample sizes")
    sp.add_argument("--only", default=None,
                    help="comma-separated check ids to run")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:   # argparse errors carry exit code 2
        return exc.code if isinstance(exc.code, int) else 2
    except (ConvergenceError, FittingError, ArithmeticError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
