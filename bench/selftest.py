"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one `closed_form` round and one `monte_carlo` round (seed 1), each in
a fresh interpreter as a benchmark run does, and requires every operation
to pass its check. It then perturbs one output at a time and requires
the perturbed operation, and no other, to be reported as failed:

* one deterministic output moved by a relative 1e-6;
* one Monte Carlo estimate shifted by 5 SE away from the exact value;
* one union-bound value halved.

Exits 0 when every perturbation is caught.
"""

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import checks  # noqa: E402
import run  # noqa: E402


def _perturb_closed(outputs):
    outputs["general/M6/u1"][10] *= 1 + 1e-6
    return "general/M6/u1"


def _shift_estimate(outputs, refs):
    key = "pep/M1/u1/30"
    value, se = outputs[key][:2]
    exact = refs["monte_carlo"]["exact/M1/u1"][3]
    outputs[key][0] = value + (5.0 if value >= exact else -5.0) * se
    return key


def _halve_union(outputs):
    outputs["union/M3/u2"][10] /= 2
    return "union/M3/u2"


def _failed(workload, outputs, refs):
    return {v.key for v in checks.check_round(workload, outputs, refs)
            if v.status != "ok"}


def main():
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)
    outputs = {w: run.spawn(w, 1, False)[0]["outputs"]
               for w in ("closed_form", "monte_carlo")}
    ok = True
    for workload, out in outputs.items():
        failed = _failed(workload, out, refs)
        print(f"{workload} as computed: {len(failed)} failed operations")
        ok &= not failed

    cases = (
        ("deterministic output x (1 + 1e-6)", "closed_form", _perturb_closed),
        ("Monte Carlo estimate shifted by 5 SE", "monte_carlo",
         lambda o: _shift_estimate(o, refs)),
        ("union-bound value halved", "closed_form", _halve_union),
    )
    for label, workload, perturb in cases:
        out = copy.deepcopy(outputs[workload])
        key = perturb(out)
        failed = _failed(workload, out, refs)
        caught = failed == {key}
        print(f"{label}: {'caught' if caught else 'MISSED'} "
              f"(failed: {sorted(failed)})")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
