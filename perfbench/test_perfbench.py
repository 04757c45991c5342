"""Tests of the benchmark itself: generator, metric names, traced counts.

Each workload is run twice, traced, at the default seed; the tests below
share those runs.
"""
import json
import re
from pathlib import Path

import pytest

from smclab import sim

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Per workload: (workload, [Rep, Rep]) from two traced repetitions."""
    passes = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        wl.prepare(work)
        tracer = tracing.Tracer()
        passes[name] = (wl, [run.run_rep(wl, work / f"rep{i}", tracer) for i in range(2)])
    return passes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    docs = [json.dumps(workloads.make(name, seed).docs) for seed in range(4)]
    assert docs == [json.dumps(workloads.make(name, seed).docs) for seed in range(4)]
    assert len(set(docs)) == len(docs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_runs_cleanly_and_matches_digests(traced_passes, name):
    wl, reps = traced_passes[name]
    recorded = workloads.recorded_digests(name)
    assert recorded is not None
    for rep in reps:
        rep.result.compare(recorded)
        assert rep.result.failed == set()
        metrics = tracing.layer_metrics(rep.taken)
        assert metrics["sim.diverged_runs"] == 0
        assert metrics["sim.node_steps"] == wl.node_steps(wl.validate())


def test_diverging_delayed_reruns_count_as_failed(tmp_path, monkeypatch):
    # delayed reruns are never written, so only the run log can fail them
    monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e-12)
    wl = workloads.make("suite", 1)
    wl.prepare(tmp_path)
    rep = run.run_rep(wl, tmp_path / "rep", None)
    delayed = {n for n in rep.result.runs if n.endswith(workloads.DELAYED_SUFFIX)}
    assert len(delayed) == 16
    assert rep.result.failed == set(rep.result.runs)
    assert rep.log.diverged() == set(rep.result.runs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(traced_passes, name):
    _, reps = traced_passes[name]
    first, second = (tracing.layer_metrics(rep.taken) for rep in reps)
    counts = [m for m, unit in tracing.metric_units().items() if unit in ("count", "bytes")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["plants.derivative.calls"] == 4 * first["sim.rk4_step.calls"]
    assert first["sim.simulate_run.calls"] == len(reps[0].result.runs)


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert per_layer == tracing.metric_units()
    assert end_to_end == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = list(per_layer) + list(end_to_end) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names), names
