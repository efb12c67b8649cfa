"""One round of one benchmark workload, in a fresh interpreter.

    python3 bench/job.py <workload|setup> <seed> <trace 0|1>

Imports `lisnoma` from the checkout's `src/`, computes the workload's whole
job list and prints one JSON object: the monotonic time at which the
import returned, the compute time, the peak resident memory, and every
output keyed by operation. An operation that raises is reported as an
error string and the round goes on. With trace 1 the calls into each
layer are wrapped (see `tracing.py`) and the spans come back too.

`setup` only imports the package: the run uses it to sample set-up time.
Nothing is checked here; `run.py` checks the outputs after the timing.
"""

import os
import signal
import sys
import time
import tracemalloc

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


class SpeedProbe:
    """Samples the speed of this process's core while the round runs.

    The machine's speed drifts by 10-20% over tens of seconds (other
    tenants, clock changes), and a plain loop slows with it. Every 20 ms a
    timer signal runs a fixed slice of interpreter work and records how
    long it took; `run.py` scales the round's times by the mean slice time.
    The slices cost about 1% of the round. The slice allocates, so it is
    skipped while a traced round runs tracemalloc, which would slow it.
    """

    INTERVAL_S = 0.02
    SLICE = 2000

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _sample(self, signum, frame):
        if tracemalloc.is_tracing():
            return
        start = time.perf_counter()
        acc = 0
        for i in range(self.SLICE):
            acc += i * i
        self.samples.append(time.perf_counter() - start)

    def take(self):
        """Mean slice time since the last call."""
        samples, self.samples = self.samples, []
        return sum(samples) / len(samples) if samples else None

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lisnoma
    imported = time.monotonic()
    if not lisnoma.__file__.startswith(src + os.sep):
        raise ImportError(f"lisnoma came from {lisnoma.__file__}, "
                          f"not from {src}")
    return lisnoma, imported


def _config(lisnoma, spec, M):
    return lisnoma.SystemConfig(
        M=M, sigma2=spec.SIGMA2, alpha=spec.ALPHA, d_B=spec.D_B,
        d_R=spec.D_R, P=spec.POWER,
        constellation=(spec.BPSK,) * len(spec.POWER))


def _event(api, cfg, ev):
    return api.build_event(cfg, ev.user, ev.x, ev.xbar, ev.sic)


def closed_form(api, lisnoma, spec, seed, op):
    import numpy as np

    params = {}
    for M in spec.FIT_SWEEP_M:
        def fit(M=M):
            p = params[M] = api.fit_gparams(M, spec.SIGMA2)
            return [p.a2, p.a3, p.a4.real, p.a4.imag, p.a5.real, p.a5.imag,
                    p.log_a1]
        op(f"fit/M{M}", fit)

    grid = spec.CLOSED_SNR_DB
    for M in spec.CLOSED_M:
        cfg = _config(lisnoma, spec, M)
        for user in spec.USERS:
            tag = f"M{M}/u{user}"
            D = spec.distance_factor(user)
            x = np.array(spec.density_grid(M, user))
            op(f"density/{tag}",
               lambda: api.pdf_g(x, params[M], D=D).tolist())
            ev = _event(api, cfg, spec.canonical_event(user))
            op(f"general/{tag}", lambda: [
                api.pep_general(cfg, user, ev, snr_db=s).raw for s in grid])
            if M == 1:
                op(f"m1/{tag}", lambda: [
                    api.pep_m1(cfg, user, ev, snr_db=s).raw for s in grid])
            if M > 10:
                op(f"clt/{tag}", lambda: [
                    api.pep_clt(cfg, user, ev, snr_db=s).raw for s in grid])
            op(f"asymptotic/{tag}", lambda: [
                api.pep_asymptotic(cfg, user, ev, snr_db=s).raw
                for s in grid])
            op(f"union/{tag}", lambda: list(
                api.union_bound_curve(cfg, user, grid).raw))

            def diversity():
                r = api.diversity_order(cfg, user,
                                        grid_db=spec.DIVERSITY_GRID_DB)
                return [r.analytic, r.numeric]
            op(f"diversity/{tag}", diversity)


def referee(api, lisnoma, spec, seed, op):
    import json
    with open(os.path.join(BENCH, "references.json")) as fh:
        refs = json.load(fh)["referee"]
    for M, user, snr, model, kernel in spec.REFEREE_POINTS:
        cfg = _config(lisnoma, spec, M)
        ev = _event(api, cfg, spec.canonical_event(user))
        key = spec.referee_key(M, user, snr, model, kernel)
        # the program's own checks ask for a fixed share of the value
        tol = max(abs(refs[key][0]) * spec.REFEREE_REL_TOL[model], 1e-280)
        op(key, lambda: [
            api.pep_quadrature(cfg, user, ev, snr_db=snr, pdf_model=model,
                               kernel=kernel, abs_tol=tol)])


def monte_carlo(api, lisnoma, spec, seed, op):
    for M in spec.PEP_M:
        cfg = _config(lisnoma, spec, M)
        for user in spec.USERS:
            ev = _event(api, cfg, spec.canonical_event(user))
            for i, snr in enumerate(spec.PEP_SNR_DB):
                def estimate():
                    e = api.simulate_pep(cfg, user, interference=ev,
                                         snr_db=snr, trials=spec.PEP_TRIALS,
                                         seed=seed * 1000 + i,
                                         importance=True)
                    return [e.value, e.se, e.trials]
                op(f"pep/M{M}/u{user}/{snr:g}", estimate)

    for M, grid in spec.BER_SNR_DB.items():
        cfg = _config(lisnoma, spec, M)

        def ber():
            curves = api.simulate_ber(cfg, grid,
                                      frames=spec.BER_FRAMES, seed=seed)
            return {str(u): [list(c.errors), c.frames, list(c.ci_low)]
                    for u, c in curves.items()}
        op(f"ber/M{M}", ber)

    for M in spec.MOMENT_M:
        def moments():
            m = api.empirical_moments(M, spec.SIGMA2,
                                      samples=spec.MOMENT_SAMPLES, seed=seed)
            return [list(m.mu), list(m.se)]
        op(f"moments/M{M}", moments)

    import numpy as np
    cfg = _config(lisnoma, spec, 1)
    for user in spec.USERS:
        ref = spec.canonical_event(user)
        ev = _event(api, cfg, ref)
        op(f"conditional/u{user}", lambda: [
            api.pep_conditional(np.array(spec.conditional_gains(ref, s)), ev,
                                N0=spec.noise_density(s)).tolist()
            for s in spec.PEP_SNR_DB])


JOBS = {"closed_form": closed_form, "referee": referee,
        "monte_carlo": monte_carlo}

ENTRY_POINTS = ("build_event", "fit_gparams", "pdf_g", "pep_general",
                "pep_m1", "pep_clt", "pep_asymptotic", "union_bound_curve",
                "diversity_order", "pep_quadrature", "simulate_pep",
                "simulate_ber", "empirical_moments", "pep_conditional")


def main(argv):
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    probe = SpeedProbe()
    lisnoma, imported = _import_program()
    setup_slice = probe.take()
    if workload == "setup":
        probe.stop()
        print('{"imported": %r, "setup_slice_s": %r}'
              % (imported, setup_slice))
        return 0

    import json
    import resource
    import types
    sys.path.insert(0, BENCH)
    import spec
    import tracing

    api = types.SimpleNamespace(
        **{name: getattr(lisnoma, name) for name in ENTRY_POINTS})
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracing.install(tracer, api)

    outputs = {}

    def op(key, fn):
        try:
            outputs[key] = fn()
        except Exception as exc:        # the round goes on; run.py counts it
            outputs[key] = {"error": f"{type(exc).__name__}: {exc}"}

    probe.take()
    t0 = time.perf_counter()
    JOBS[workload](api, lisnoma, spec, seed, op)
    wall = time.perf_counter() - t0
    wall_slice = probe.take()
    probe.stop()
    result = {
        "imported": imported,
        "setup_slice_s": setup_slice,
        "wall_s": wall,
        "wall_slice_s": wall_slice,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["peaks"] = tracer.peaks
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
