"""The benchmark's traced mode patches module attributes by name.

``bench/tracing.py`` wraps the names one module calls in another
(``pep.meijer_g_1443_log``, ``union_bound.pep_m1``, ...). If such a name
stops being a module attribute, or a caller stops looking it up at call
time, the wrapper no longer sees the calls and its counters stay at zero.
This runs traced union-bound curves, diversity orders and quadrature
referees in a fresh interpreter and checks the counts.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETUP = """
import json, sys, types
sys.path[:0] = [{src!r}, {bench!r}]
import lisnoma, job, tracing
api = types.SimpleNamespace(
    **{{name: getattr(lisnoma, name) for name in job.ENTRY_POINTS}})
tracer = tracing.Tracer()
tracing.install(tracer, api)
"""

SCRIPT = SETUP + """
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


# three SNR points on one density; the middle one refines further than
# the other two, whose meshes it shares. The outer two take 1e-9 of the
# closed form as their tolerance and stop at the second mesh; the middle
# one takes 0, which no mesh meets, so it evaluates all seven and raises
QUADRATURE = SETUP + """
cfg = lisnoma.default_config(M=3)
ev = lisnoma.build_event(cfg, 1, (1.0, 1.0), -1.0)
counts = []
for snr, deep in ((20.0, False), (0.0, True), (40.0, False)):
    tol = 0.0 if deep else 1e-9 * lisnoma.pep_general(cfg, 1, ev, snr).raw
    tracer.counts.clear()
    try:
        api.pep_quadrature(cfg, 1, ev, snr_db=snr, abs_tol=tol)
    except lisnoma.ConvergenceError:
        tracer.counts["raised"] += 1
    counts.append(dict(tracer.counts))
print(json.dumps(counts))
"""


def _traced(script):
    script = script.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(run.stdout)


def test_traced_union_curves_reach_the_patched_names():
    counts = _traced(SCRIPT)
    # M = 3: every event at every SNR point in one batched kernel call
    assert counts["3"].get("specfun.g1443.calls") == 1
    # M = 1: the single-element form per event, 8 events x 21 points
    assert counts["1"].get("union_bound.events") == 168
    assert counts["1"].get("pep.m1.calls") == 168
    # diversity_order: the form for M at each end of the secant
    assert counts["diversity1"].get("pep.m1.calls") == 2
    assert counts["diversity3"].get("pep.general.calls") == 2


def test_traced_quadrature_evaluates_each_mesh_once():
    counts = _traced(QUADRATURE)
    nodes = [c["util.quad.nodes"] for c in counts]
    density = [c.get("pdf_approx.pdf_g.points", 0) for c in counts]
    assert [c["pep.quadrature.calls"] for c in counts] == [1, 1, 1]
    assert [c.get("raised", 0) for c in counts] == [0, 1, 0]
    # every node is still integrated at every point ...
    assert nodes[1] > nodes[0] == nodes[2] > 0
    # ... but the density reaches pdf_g once per distinct mesh: the first
    # point's meshes, then only the finer ones of the second point
    assert density == [nodes[0], nodes[1] - nodes[0], 0]
    assert sum(density) == max(nodes) < sum(nodes)
