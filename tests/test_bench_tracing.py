"""The benchmark's traced mode patches module attributes by name.

``bench/tracing.py`` wraps the names one module calls in another
(``pep.meijer_g_1443_log``, ``union_bound.pep_m1``, ...). If such a name
stops being a module attribute, or a caller stops looking it up at call
time, the wrapper no longer sees the calls and its counters stay at zero.
This runs traced union-bound curves and diversity orders in a fresh
interpreter and checks the counts.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, types
sys.path[:0] = [{src!r}, {bench!r}]
import lisnoma, job, tracing
api = types.SimpleNamespace(
    **{{name: getattr(lisnoma, name) for name in job.ENTRY_POINTS}})
tracer = tracing.Tracer()
tracing.install(tracer, api)
grid = [float(s) for s in range(0, 41, 2)]
counts = {{}}
for M in (1, 3):
    tracer.counts.clear()
    api.union_bound_curve(lisnoma.default_config(M=M), 2, grid)
    counts[M] = dict(tracer.counts)
    tracer.counts.clear()
    api.diversity_order(lisnoma.default_config(M=M), 1, grid_db=(35.0, 45.0))
    counts[f"diversity{{M}}"] = dict(tracer.counts)
print(json.dumps(counts))
"""


def test_traced_union_curves_reach_the_patched_names():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, check=True)
    counts = json.loads(run.stdout)
    # M = 3: every event at every SNR point in one batched kernel call
    assert counts["3"].get("specfun.g1443.calls") == 1
    # M = 1: the single-element form per event, 8 events x 21 points
    assert counts["1"].get("union_bound.events") == 168
    assert counts["1"].get("pep.m1.calls") == 168
    # diversity_order: the form for M at each end of the secant
    assert counts["diversity1"].get("pep.m1.calls") == 2
    assert counts["diversity3"].get("pep.general.calls") == 2
