"""Spans and counts around the calls into each layer of `lisnoma`.

The tracer wraps, from outside the program, the names one module calls in
another (`pdf_approx.meijer_g_2012`, `pep.meijer_g_1443_log`, ...) and the
entry points the job calls. Each wrapped call records a span: its name,
the index of the span it ran inside, and its start and end. Spans stay in
memory and the job hands them back when the round ends. Counts (calls,
points, trials) are recorded at the same boundaries.

A layer's self time is the time of its spans minus the time of their
direct child spans, so the self times of all layers add up to the traced
wall time.
"""

import importlib
import time
import tracemalloc
from collections import Counter

import numpy as np

# integrations whose integrand was evaluated on this many panels hit the cap
# of `gauss_legendre_panels`
PANEL_CAP = 4096


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.peaks = {}          # span name -> largest traced allocation, MB
        self._stack = []

    def wrap(self, name, fn, count=None, alloc=False):
        """Wrap `fn` so each call records a span named `name`.

        `count(args, kwargs)` returns {counter: increment} for the call;
        `alloc` measures the call's peak allocation with tracemalloc.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if count is not None:
                self.counts.update(count(args, kwargs))
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
        return traced

    def wrap_quadrature(self, fn):
        """`gauss_legendre_panels`, with its integrand traced as well."""
        def quadrature(f, lo, hi, **kwargs):
            order = kwargs.get("order", 48)
            widest = [0]

            def integrand(x):
                widest[0] = max(widest[0], x.size // order)
                return f(x)

            traced = self.wrap(
                "util.quad.integrand", integrand,
                count=lambda a, k: {"util.quad.nodes": a[0].size})
            try:
                return fn(traced, lo, hi, **kwargs)
            finally:
                if widest[0] >= PANEL_CAP:
                    self.counts["util.quad.capped"] += 1
        return self.wrap("util.quad", quadrature,
                         count=_calls("util.quad.integrals"))


def _size(args, kwargs):
    return int(np.size(args[0]))


def _calls(counter):
    return lambda a, k: {counter: 1}


def install(tracer, api):
    """Wrap the cross-module names and the job's entry points in place."""
    # lisnoma re-exports a function named union_bound over its module
    asymptotics, channel, pdf_approx, pep, union_bound = (
        importlib.import_module("lisnoma." + m) for m in (
            "asymptotics", "channel", "pdf_approx", "pep", "union_bound"))

    def patch(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))

    # calls from one layer into another
    patch(pdf_approx, "meijer_g_2012", "specfun.g2012",
          lambda a, k: {"specfun.g2012.points": _size(a, k)})
    patch(pep, "meijer_g_1443_log", "specfun.g1443",
          _calls("specfun.g1443.calls"))
    patch(pep, "pdf_g", "pdf_approx.pdf_g",
          lambda a, k: {"pdf_approx.pdf_g.points": _size(a, k)})
    pep.gauss_legendre_panels = tracer.wrap_quadrature(
        pep.gauss_legendre_panels)
    for name in ("pep_general", "pep_m1"):
        layer = "pep.general" if name == "pep_general" else "pep.m1"
        setattr(union_bound, name, tracer.wrap(
            layer, getattr(union_bound, name),
            lambda a, k, layer=layer: {"union_bound.events": 1,
                                       layer + ".calls": 1}))
        patch(asymptotics, name, layer, _calls(layer + ".calls"))
    patch(channel, "pep_conditional", "pep.conditional",
          lambda a, k: {"pep.conditional.points": _size(a, k)})

    # entry points the job calls
    entries = {
        "fit_gparams": ("pdf_approx.fit", None),
        "pdf_g": ("pdf_approx.pdf_g",
                  lambda a, k: {"pdf_approx.pdf_g.points": _size(a, k)}),
        "pep_general": ("pep.general", _calls("pep.general.calls")),
        "pep_m1": ("pep.m1", _calls("pep.m1.calls")),
        "pep_clt": ("pep.clt", None),
        "pep_asymptotic": ("asymptotics", None),
        "diversity_order": ("asymptotics", None),
        "union_bound_curve": ("union_bound", None),
        "pep_quadrature": ("pep.quadrature", _calls("pep.quadrature.calls")),
        "simulate_pep": ("channel.simulate_pep", lambda a, k: {
            "channel.simulate_pep.trials": k["trials"]}),
        "simulate_ber": ("channel.simulate_ber", lambda a, k: {
            "channel.simulate_ber.frames": k["frames"] * len(a[1])}),
        "empirical_moments": ("moments.empirical", lambda a, k: {
            "moments.empirical.samples": k["samples"]}),
        "pep_conditional": ("pep.conditional",
                            lambda a, k: {"pep.conditional.points":
                                          _size(a, k)}),
    }
    for attr, (name, count) in entries.items():
        alloc = name in ("channel.simulate_pep", "channel.simulate_ber")
        setattr(api, attr, tracer.wrap(name, getattr(api, attr), count,
                                       alloc=alloc))


def self_times(spans):
    """Per span name: (self seconds, inclusive seconds, span count).

    Inclusive time counts a span only when no enclosing span has the same
    name, so recursion through one layer is not counted twice.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = {}
    for i, (name, parent, start, end) in enumerate(spans):
        self_s, incl, n = out.get(name, (0.0, 0.0, 0))
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        out[name] = (self_s + own[i], incl + (end - start if p < 0 else 0.0),
                     n + 1)
    return out
