"""Per-layer tracing of smclab, installed from outside the package.

:class:`Tracer` replaces the public functions and methods listed in
:func:`layer_targets` with timing wrappers while it is installed and puts
the originals back afterwards, so nothing under ``src/`` changes.  The
wrappers are found because smclab calls these functions through module
attributes (``sim.simulate_run``) or through methods looked up on the class
at call time.

Each wrapper records a span on a per-thread stack.  A span's self time is
its duration minus the durations of the spans it encloses.  Spans are not
kept one by one: they are summed into per-(run, layer) counters, where a
run is one ``sim.simulate_run`` call, so memory grows with the number of
runs and not with the number of steps.

Span times are wall-clock time per thread.  When two threads run at once
(the ``suite`` workload) a span also contains the time its thread waited
for the interpreter lock, so the sum over layers can exceed the wall time.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time

# Layers whose calls, self time and counters the traced pass reports, in
# report order.  Each name is "<module>.<function>".
LAYERS = (
    "plants.derivative",
    "plants.gain",
    "controllers.step",
    "sim.rk4_step",
    "sim.simulate_run",
    "sim.apply_noise",
    "sim.delay_push",
    "sim.differentiator_update",
    "sim.write_csv",
    "cli.render_line_svg",
    "cli.main",
    "metrics.compute_report",
    "metrics.comparison_matrix",
    "scenarios.validate",
    "scenarios.run_suite",
)

# Counters gathered at the same boundaries: (metric name, unit).
COUNTERS = (
    ("sim.write_csv.bytes", "bytes"),
    ("cli.render_line_svg.bytes", "bytes"),
    ("scenarios.run_suite.discarded_sample_frac", "frac"),
    ("sim.node_steps", "count"),
    ("sim.recorded_samples", "count"),
    ("sim.diverged_runs", "count"),
)

OVERHEAD_METRIC = ("trace.overhead_frac", "frac")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced pass reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


def layer_targets():
    """(layer, owner, attribute) for every traced function of smclab."""
    from smclab import cli, controllers, metrics, plants, scenarios, sim

    return (
        ("plants.derivative", plants.PlantModel, "derivative"),
        ("plants.gain", plants.PlantModel, "gain"),
        ("controllers.step", controllers.Controller, "step"),
        ("sim.rk4_step", sim, "rk4_step"),
        ("sim.simulate_run", sim, "simulate_run"),
        ("sim.apply_noise", sim, "apply_noise"),
        ("sim.delay_push", sim.DelayLine, "push"),
        ("sim.differentiator_update", sim.LowPassDifferentiator, "update"),
        ("sim.write_csv", sim.TimeSeries, "write_csv"),
        ("cli.render_line_svg", cli, "render_line_svg"),
        ("cli.main", cli, "main"),
        ("metrics.compute_report", metrics, "compute_report"),
        ("metrics.comparison_matrix", metrics, "comparison_matrix"),
        ("scenarios.validate", scenarios, "validate"),
        ("scenarios.run_suite", scenarios, "run_suite"),
    )


class _ThreadState:
    """Span stack and counters of one thread within one repetition."""

    def __init__(self, generation: int):
        self.generation = generation
        self.stack: list[int] = []          # child time of each open span
        self.run = 0                        # 0 = outside any simulate_run
        self.spans: dict = {}               # (run, layer) -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}


def _add(counters: dict, name: str, value: int) -> None:
    counters[name] = counters.get(name, 0) + value


# Hooks run after a traced call returns: (state, args, result, context).
def _after_rk4(st, args, result, _ctx):
    _add(st.counters, "sim.node_steps", result.shape[0] // 2)


def _after_simulate(st, args, ts, _ctx):
    _add(st.counters, "sim.recorded_samples", ts.n_samples * ts.n_nodes)
    _add(st.counters, "sim.diverged_runs", int(ts.diverged))


def _after_write_csv(st, args, _result, _ctx):
    ts, path = args[0], args[1]
    _add(st.counters, "sim.write_csv.bytes", os.path.getsize(path))
    _add(st.counters, "written_samples", ts.n_samples * ts.n_nodes)


def _after_svg(st, args, text, _ctx):
    _add(st.counters, "cli.render_line_svg.bytes", len(text.encode("utf-8")))


class Tracer:
    """Wraps smclab's layers and aggregates their spans per repetition.

    Use :meth:`installed` around the traced code and :meth:`take` to
    collect and reset what one repetition recorded.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._states: list[_ThreadState] = []
        self._run_ids = itertools.count(1)
        self.run_names: dict[int, str] = {}
        self._before = {"scenarios.run_suite": self._before_suite}
        self._after = {
            "sim.rk4_step": _after_rk4,
            "sim.simulate_run": _after_simulate,
            "sim.write_csv": _after_write_csv,
            "cli.render_line_svg": _after_svg,
            "scenarios.run_suite": self._after_suite,
        }

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None or st.generation != self._generation:
            st = _ThreadState(self._generation)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _totals(self) -> dict[str, int]:
        with self._lock:
            states = list(self._states)
        totals: dict[str, int] = {}
        for st in states:
            for name, value in st.counters.items():
                _add(totals, name, value)
        return totals

    # run_suite writes only part of what it computes; the samples it
    # computes and writes are counted between its entry and exit, when no
    # other thread is tracing.
    def _before_suite(self, _st, _args):
        return self._totals()

    def _after_suite(self, st, _args, _result, before):
        after = self._totals()
        for name, key in (("sim.recorded_samples", "suite_computed"),
                          ("written_samples", "suite_written")):
            _add(st.counters, key, after.get(name, 0) - before.get(name, 0))

    def _wrap(self, layer: str, fn):
        before = self._before.get(layer)
        after = self._after.get(layer)
        opens_run = layer == "sim.simulate_run"
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            ctx = before(st, args) if before is not None else None
            prev_run = st.run
            if opens_run:
                st.run = next(tracer._run_ids)
                tracer.run_names[st.run] = args[0].name
            stack = st.stack
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                key = (st.run, layer)
                rec = st.spans.get(key)
                if rec is None:
                    rec = st.spans[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                st.run = prev_run
            if after is not None:
                after(st, args, result, ctx)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function by its wrapper for the block."""
        saved = []
        try:
            for layer, owner, attr in layer_targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> dict:
        """Return what was recorded since the last call, then reset.

        The result holds ``layers`` (layer -> [calls, self_ns]), the
        counters, and ``runs``: per run name, layer -> [calls, total_ns,
        self_ns].
        """
        with self._lock:
            states = self._states
            self._states = []
            self._generation += 1
        layers = {layer: [0, 0] for layer in LAYERS}
        counters: dict[str, int] = {}
        runs: dict[str, dict] = {}
        for st in states:
            for (run, layer), (calls, total, self_ns) in st.spans.items():
                layers[layer][0] += calls
                layers[layer][1] += self_ns
                name = f"{run}:{self.run_names.get(run, '-')}"
                per_run = runs.setdefault(name, {})
                acc = per_run.setdefault(layer, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_ns
            for name, value in st.counters.items():
                _add(counters, name, value)
        self.run_names.clear()
        return {"layers": layers, "counters": counters, "runs": runs}


def layer_metrics(taken: dict) -> dict[str, float]:
    """Per-layer metric values of one traced repetition, overhead excluded."""
    out: dict[str, float] = {}
    for layer, (calls, self_ns) in taken["layers"].items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_ns / 1e9
    counters = taken["counters"]
    for name, _unit in COUNTERS:
        out[name] = counters.get(name, 0)
    computed = counters.get("suite_computed", 0)
    out["scenarios.run_suite.discarded_sample_frac"] = (
        (computed - counters.get("suite_written", 0)) / computed if computed else 0.0
    )
    return out
