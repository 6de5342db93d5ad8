"""Span tracer that times cardioem's layers from outside the program.

`install` replaces the module attributes and class attributes that the
callers actually resolve at call time with wrappers.  Each wrapper opens a
span on a stack; when it closes, its duration minus the time covered by
its child spans is added to the layer's self time.  Some bindings carry no
span and only count the work done (iterations, calls, draws).

The bindings follow how the callers look names up:

* `driver` imported `FeSpace`, `assemble_*` and `NoisePath` by name, so the
  wrappers go on `cardioem.driver.<name>` (and `NoisePath.increments` on
  the class itself);
* the electric step calls `cardioem.electrics.solve_cg`, its own binding;
* the Uzawa inner solves resolve `solve_cg` through the `cardioem.fem`
  module globals, so `cardioem.fem.solve_cg` counts them.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

# metric name -> unit, in the order the benchmark reports them
LAYER_METRICS = {
    "driver.self_s": "s",
    "mesh.build_s": "s",
    "fem.space_s": "s",
    "fem.assemble_s": "s",
    "noise.increments_s": "s",
    "noise.draws": "count",
    "electrics.assemble_s": "s",
    "electrics.conductivity_s": "s",
    "electrics.step_s": "s",
    "electrics.solve_s": "s",
    "electrics.solve_ms.p50": "ms",
    "electrics.solve_ms.p95": "ms",
    "electrics.cg_iters": "count",
    "electrics.steps": "count",
    "mechanics.statics_s": "s",
    "mechanics.assemble_s": "s",
    "mechanics.solve_s": "s",
    "mechanics.solves": "count",
    "mechanics.outer_iters": "count",
    "mechanics.inner_cg_iters": "count",
    "mechanics.inner_cg_calls": "count",
    "diagnostics.energy_s": "s",
    "io_cli.config_s": "s",
    "io_cli.write_s": "s",
    "io_cli.self_s": "s",
    "io_cli.bytes_written": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span stack plus per-layer self times, call durations and counters."""

    def __init__(self):
        self._stack = []  # time covered by child spans of each open span
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()

    def span(self, layer, fn, on_result=None):
        """Wrap fn so each call is a span of `layer`."""

        def wrapped(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                self.self_s[layer] += elapsed - children
                self.durations[layer].append(elapsed)
                if self._stack:
                    self._stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counter(self, fn, on_result):
        """Wrap fn without a span; on_result counts the work it did."""

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapped


def _patch(owner, name, make):
    setattr(owner, name, make(getattr(owner, name)))


def install(tracer: Tracer) -> None:
    """Wrap every traced binding of the imported cardioem modules."""
    from cardioem import diagnostics, driver, electrics, fem, io_cli, mechanics, noise

    count = tracer.counts

    def on_step(out):
        count["electrics.steps"] += 1
        count["electrics.cg_iters"] += out[1].iterations

    def on_mech_solve(out):
        count["mechanics.solves"] += 1
        count["mechanics.outer_iters"] += out[1].iterations

    def on_inner_cg(res):
        count["mechanics.inner_cg_calls"] += 1
        count["mechanics.inner_cg_iters"] += res.iterations

    def on_draws(arr):
        count["noise.draws"] += arr.size

    span = tracer.span
    _patch(io_cli, "main", lambda f: span("io_cli.self", f))
    for name in ("parse_config", "config_hash"):
        _patch(io_cli, name, lambda f: span("io_cli.config", f))
    for name in ("write_probes", "write_energy", "write_vtk"):
        _patch(io_cli, name, lambda f: span("io_cli.write", f))
    _patch(driver, "run_simulation", lambda f: span("driver.self", f))
    _patch(driver.SimConfig, "build_mesh", lambda f: span("mesh.build", f))
    _patch(driver, "FeSpace", lambda f: span("fem.space", f))
    for name in ("assemble_mass", "assemble_stiffness", "assemble_load"):
        _patch(driver, name, lambda f: span("fem.assemble", f))
    _patch(noise.NoisePath, "increments",
           lambda f: span("noise.increments", f, on_draws))
    _patch(electrics, "assemble_bidomain",
           lambda f: span("electrics.assemble", f))
    _patch(electrics, "conductivities_from_gradient",
           lambda f: span("electrics.conductivity", f))
    _patch(electrics, "step_bidomain",
           lambda f: span("electrics.step", f, on_step))
    _patch(electrics, "solve_cg", lambda f: span("electrics.solve", f))
    _patch(mechanics, "mech_statics", lambda f: span("mechanics.statics", f))
    _patch(mechanics, "assemble_mechanics",
           lambda f: span("mechanics.assemble", f))
    _patch(mechanics, "solve_mechanics",
           lambda f: span("mechanics.solve", f, on_mech_solve))
    _patch(fem, "solve_cg", lambda f: tracer.counter(f, on_inner_cg))
    _patch(diagnostics, "append_energy",
           lambda f: span("diagnostics.energy", f))


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer values of one traced run, keyed like LAYER_METRICS.

    The io_cli.bytes_written and trace.overhead entries need facts from
    outside the traced process and are filled in by the caller.
    """
    out = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "count":
            out[name] = tracer.counts[name]
        elif unit == "s":
            out[name] = tracer.self_s[name[: -len("_s")]]
    solves = tracer.durations["electrics.solve"]
    if solves:
        p95 = solves[0]
        if len(solves) > 1:
            p95 = statistics.quantiles(solves, n=20, method="inclusive")[18]
        out["electrics.solve_ms.p50"] = 1e3 * statistics.median(solves)
        out["electrics.solve_ms.p95"] = 1e3 * p95
    out["trace.coverage"] = sum(tracer.self_s.values()) / traced_wall_s
    return out
