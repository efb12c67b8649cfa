"""Benchmark of the lisnoma reproduction: three workloads, cold processes.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

A run starts a few import-only interpreters to sample set-up time, then
repeats whole rounds of the workload, each in a fresh interpreter (so the
program's memo caches start cold, as they do for every `lisnoma` command),
one after another (a closed loop, one job at a time), until `--seconds`
have passed. Each round's outputs are checked against the mpmath values in
`references.json` after its timing ends. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. A traced run alternates untraced and traced rounds; the
difference of their medians is the tracing overhead. Round records, and
the spans of the last traced round, go to `bench/results/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import checks  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 3
ROUND_TIMEOUT_S = 170
# Mean time of one SpeedProbe slice (job.py) on the reference machine: 2
# cores, Python 3.11.7. Times are reported at that speed: each round's
# seconds are scaled by this over the mean slice time measured during it.
REFERENCE_SLICE_S = 1.6e-4

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "accuracy_digits": "digits", "precision_digits": "digits",
}

# per-layer metric: (unit, how it is computed from a traced round)
PER_LAYER = {
    "specfun.g1443.calls": ("count", ("count", "specfun.g1443.calls")),
    "specfun.g1443.self_s": ("s", ("self", "specfun.g1443")),
    "specfun.g1443.calls_per_s": ("1/s", ("rate", "specfun.g1443.calls",
                                          "specfun.g1443")),
    "specfun.g2012.points": ("count", ("count", "specfun.g2012.points")),
    "specfun.g2012.self_s": ("s", ("self", "specfun.g2012")),
    "specfun.g2012.points_per_s": ("1/s", ("rate", "specfun.g2012.points",
                                           "specfun.g2012")),
    "pdf_approx.pdf_g.points": ("count", ("count", "pdf_approx.pdf_g.points")),
    "pdf_approx.pdf_g.self_s": ("s", ("self", "pdf_approx.pdf_g")),
    "util.quad.integrals": ("count", ("count", "util.quad.integrals")),
    "util.quad.nodes": ("count", ("count", "util.quad.nodes")),
    "util.quad.capped": ("count", ("count", "util.quad.capped")),
    "util.quad.self_s": ("s", ("self", "util.quad", "util.quad.integrand")),
    "pep.quadrature.calls": ("count", ("count", "pep.quadrature.calls")),
    "pep.quadrature.self_s": ("s", ("self", "pep.quadrature")),
    "pep.general.calls": ("count", ("count", "pep.general.calls")),
    "pep.general.self_s": ("s", ("self", "pep.general")),
    "union_bound.events": ("count", ("count", "union_bound.events")),
    "union_bound.self_s": ("s", ("self", "union_bound")),
    "asymptotics.self_s": ("s", ("self", "asymptotics")),
    "channel.simulate_pep.trials": ("count", (
        "count", "channel.simulate_pep.trials")),
    "channel.simulate_pep.self_s": ("s", ("self", "channel.simulate_pep")),
    "channel.simulate_pep.trials_per_s": ("1/s", (
        "rate", "channel.simulate_pep.trials", "channel.simulate_pep")),
    "channel.simulate_pep.peak_alloc_mb": ("MB", (
        "peak", "channel.simulate_pep")),
    "channel.simulate_ber.frames": ("count", (
        "count", "channel.simulate_ber.frames")),
    "channel.simulate_ber.self_s": ("s", ("self", "channel.simulate_ber")),
    "channel.simulate_ber.frames_per_s": ("1/s", (
        "rate", "channel.simulate_ber.frames", "channel.simulate_ber")),
    "channel.simulate_ber.peak_alloc_mb": ("MB", (
        "peak", "channel.simulate_ber")),
    "pep.conditional.points": ("count", ("count", "pep.conditional.points")),
    "pep.conditional.self_s": ("s", ("self", "pep.conditional")),
    "moments.empirical.samples": ("count", (
        "count", "moments.empirical.samples")),
    "moments.empirical.self_s": ("s", ("self", "moments.empirical")),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def spawn(workload, seed, traced):
    """Run job.py once in a fresh interpreter.

    Returns the job's result and its set-up time: from the start of the
    interpreter until `import lisnoma` returned, at the reference speed.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(BENCH, "job.py"), workload,
           str(seed), "1" if traced else "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} round exited with "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        raise BenchmarkError(f"{workload} round printed no result:\n"
                             f"{proc.stderr[-2000:]}")
    result["setup_raw_s"] = result["imported"] - start
    return result, result["setup_raw_s"] * _speed(result["setup_slice_s"])


def _speed(slice_s):
    return REFERENCE_SLICE_S / slice_s if slice_s else 1.0


def layer_metrics(result):
    """Per-layer metrics of one traced round."""
    times = tracing.self_times(result["spans"])
    counts, peaks = result["counts"], result["peaks"]
    out = {}
    for name, (_, (kind, *keys)) in PER_LAYER.items():
        if kind == "count":
            out[name] = counts.get(keys[0], 0)
        elif kind == "self":
            out[name] = sum(times.get(k, (0.0,))[0] for k in keys)
        elif kind == "rate":
            inclusive = times.get(keys[1], (0.0, 0.0))[1]
            out[name] = counts.get(keys[0], 0) / inclusive if inclusive else 0.0
        else:
            out[name] = peaks.get(keys[0], 0.0)
    return out


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(workload, rounds, setups, traced_run):
    plain = [r for r in rounds if not r["traced"]]
    if not traced_run:
        accuracy = [min(r["accuracy"], default=0.0) for r in plain]
        precision = [_median(r["precision"] if workload == "monte_carlo"
                             else r["accuracy"]) for r in plain]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "accuracy_digits": statistics.median(accuracy),
            "precision_digits": statistics.median(precision),
        }
        return {k: {"value": v, "unit": END_TO_END[k]}
                for k, v in values.items()}

    traced = [r for r in rounds if r["traced"]]
    layers = [r["layers"] for r in traced]
    out = {}
    for name, (unit, (kind, *_)) in PER_LAYER.items():
        vals = [m[name] for m in layers]
        if kind == "count" and len(set(vals)) > 1:
            raise BenchmarkError(f"{name} differs between traced rounds of "
                                 f"the same seed: {vals}")
        out[name] = {"value": statistics.median(vals), "unit": unit}
    out["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    return out


def run(workload, seed, seconds, traced_run):
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)
    start = time.monotonic()
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        result, setup = spawn("setup", seed, False)
        setups.append(setup)
        raw_setups.append(result["setup_raw_s"])
    rounds, last_spans = [], None
    while not rounds or time.monotonic() - start < seconds:
        for traced in ((False, True) if traced_run else (False,)):
            result, setup = spawn(workload, seed, traced)
            setups.append(setup)
            raw_setups.append(result["setup_raw_s"])
            verdicts = checks.check_round(workload, result["outputs"], refs)
            record = {
                "traced": traced, "setup_s": setup,
                "setup_raw_s": result["setup_raw_s"],
                "wall_s": result["wall_s"] * _speed(result["wall_slice_s"]),
                "wall_raw_s": result["wall_s"],
                "peak_rss_mb": result["peak_rss_mb"],
                "attempted": len(verdicts),
                "failed": sum(v.status != "ok" for v in verdicts),
                "wrong": sum(v.status == "wrong" for v in verdicts),
                "accuracy": [d for v in verdicts for d in v.accuracy],
                "precision": [d for v in verdicts for d in v.precision],
                "failures": {v.key: f"{v.status}: {v.detail}"
                             for v in verdicts if v.status != "ok"},
            }
            if traced:
                record["layers"] = layer_metrics(result)
                last_spans = result["spans"]
            rounds.append(record)

    metrics = summarize(workload, rounds, setups, traced_run)
    summary = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results",
                        f"{workload}-seed{seed}-trace{int(traced_run)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "setups_s": setups, "setups_raw_s": raw_setups,
                   "summary": summary,
                   "rounds": [{k: v for k, v in r.items()
                               if k not in ("accuracy", "precision")}
                              for r in rounds],
                   "spans": last_spans}, fh)
    return summary, rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        summary, rounds = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in rounds:
        for key, why in list(r["failures"].items())[:5]:
            print(f"FAILED {key}: {why}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, "
          f"{summary['attempted']} operations attempted, "
          f"{summary['failed']} failed")
    for name, m in summary["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
