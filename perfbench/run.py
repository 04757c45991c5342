"""smclab benchmark: one workload, one seed, measured in one process.

    python3 perfbench/run.py --workload suite --seed 3 --seconds 35 --trace 0

The workload is generated from ``--seed`` and repeated until ``--seconds``
have passed (at least three times).  With ``--trace 0`` the end-to-end
metrics are printed, timings as medians over repetitions; set-up is timed
in fresh interpreters started between the repetitions, so its samples
span the whole run as the repetitions do.  With ``--trace 1`` untraced
and traced repetitions alternate and the per-layer metrics are printed,
with the tracing overhead; the per-run spans go to ``perfbench/out/``.

Every repetition is checked (see workloads.py).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  ``--write-digests`` records the digests of the default seed
instead of comparing them.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 15          # at least this many set-up samples per run
SETUP_PER_REP = 2           # set-up samples taken after each repetition
SETUP_TIMEOUT_S = 60
MIN_REPS = 3
CHECK01_STEPS = 10_000      # acceptance check 01: one 10k-step fig1 run
CHECK01_LIMIT_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("single_long", "suite", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests")
    return parser.parse_args(argv)


def git_sha() -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block(seed: int) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def workload_why(name: str) -> str:
    """The reason BENCHMARK.json records for choosing the workload."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return "unknown"
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), "unknown")


def measure_setup(docs: Path, samples: int) -> list[float]:
    """Cold set-up times from fresh interpreters, in seconds."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(docs)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Rep:
    traced: bool
    wall_s: float
    cpu_s: float
    result: object          # workloads.RepResult
    log: object             # workloads.RunLog of the repetition
    taken: dict | None      # what the tracer recorded, traced reps only


def run_rep(wl, out_dir: Path, tracer) -> Rep:
    """Validate the documents, run them once, and check the outputs."""
    import workloads

    installed = tracer.installed() if tracer else contextlib.nullcontext()
    log = workloads.RunLog()
    with installed, log.installed():
        scs = wl.validate()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            raw = wl.run(scs, out_dir)
        except Exception:
            traceback.print_exc()
            raw = None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    taken = tracer.take() if tracer else None
    if raw is None:
        names = wl.run_names(scs)
        result = workloads.RepResult(names, failed=set(names))
    else:
        result = wl.check(scs, raw, out_dir)
    result.failed |= log.diverged()
    return Rep(tracer is not None, wall, cpu, result, log, taken)


def trace_metrics(wl, traced: list[Rep], untraced: list[Rep], problems: list[str]):
    """Per-layer metrics: counts of one traced rep, medians of self times."""
    import tracing

    per_rep = [tracing.layer_metrics(r.taken) for r in traced]
    first = per_rep[0]
    out = {}
    for name, unit in tracing.metric_units().items():
        if name == tracing.OVERHEAD_METRIC[0]:
            continue
        if unit == "s":
            out[name] = statistics.median(m[name] for m in per_rep)
        else:
            out[name] = first[name]
            if any(m[name] != first[name] for m in per_rep[1:]):
                problems.append(f"{name} differs between traced repetitions")
    out[tracing.OVERHEAD_METRIC[0]] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0
    )
    if out["sim.diverged_runs"] != 0:
        problems.append(f"{out['sim.diverged_runs']} runs diverged")
    if out["plants.derivative.calls"] != 4 * out["sim.rk4_step.calls"]:
        problems.append("plants.derivative.calls != 4 * sim.rk4_step.calls")
    expected_steps = wl.node_steps(wl.validate())
    if out["sim.node_steps"] != expected_steps:
        problems.append(
            f"sim.node_steps {out['sim.node_steps']} != planned {expected_steps}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smclab" / "__init__.py").is_file():
        print(f"error: no smclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The workloads do no BLAS work; a BLAS thread pool would only add
    # threads.  This must happen before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.write_digests and args.seed != workloads.DEFAULT_SEED:
        print(f"error: digests are recorded for seed {workloads.DEFAULT_SEED}",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    host = host_block(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl.prepare(work)
        docs = work / "docs.json"
        docs.write_text(json.dumps(wl.docs))
        setup: list[float] = []
        problems: list[str] = []
        expected = None
        if args.seed == workloads.DEFAULT_SEED and not args.write_digests:
            expected = workloads.recorded_digests(wl.name)
            if expected is None:
                problems.append(f"no recorded digests for {wl.name}")

        tracer = tracing.Tracer() if args.trace else None
        reps: list[Rep] = []
        reference = None
        start = time.perf_counter()
        while True:
            traced = [r for r in reps if r.traced]
            if time.perf_counter() - start >= args.seconds and (
                len(traced) >= 2 and len(reps) - len(traced) >= 1
                if args.trace else
                len(reps) >= MIN_REPS and len(setup) >= SETUP_SAMPLES
            ):
                break
            use_tracer = tracer if args.trace and len(reps) % 2 == 1 else None
            out = work / f"rep{len(reps)}"
            rep = run_rep(wl, out, use_tracer)
            if reference is None:
                reference = rep.result.digests
            else:
                rep.result.compare(reference)
                shutil.rmtree(out, ignore_errors=True)
            if expected is not None:
                rep.result.compare(expected)
            reps.append(rep)
            if not args.trace:
                setup += measure_setup(docs, SETUP_PER_REP)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        scs = wl.validate()
        reps[0].result.failed |= wl.final_check(scs, work / "rep0", work / "check.csv")
        untraced = [r for r in reps if not r.traced]
        if args.trace:
            traced = [r for r in reps if r.traced]
            metrics = trace_metrics(wl, traced, untraced, problems)
            units = tracing.metric_units()
            trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "host": host, "workload": wl.name,
                "repetitions": [{"traced": r.traced, "wall_s": r.wall_s,
                                 "cpu_s": r.cpu_s} for r in reps],
                "spans": [r.taken for r in traced],
            }, indent=1) + "\n")
        else:
            wall = statistics.median(r.wall_s for r in untraced)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "cpu_s": statistics.median(r.cpu_s for r in untraced),
                "node_steps_per_s": wl.node_steps(scs) / wall,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END

        attempted = sum(len(r.result.runs) for r in reps)
        failed = sum(len(r.result.failed) for r in reps)
        if args.write_digests:
            if failed:
                problems.append("digests not recorded: some runs failed")
            else:
                workloads.record_digests(wl.name, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"smclab benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)}")
    print("host: " + json.dumps(host))
    print(f"why: {workload_why(wl.name)}")
    counts = {"setup_s": f"median of {len(setup)} fresh interpreters"}
    for key in ("wall_s", "cpu_s", "node_steps_per_s"):
        counts[key] = f"median of {len(untraced)} repetitions"
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} {counts.get(name, '')}")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6g} frac   "
          f"{failed} of {attempted} runs")
    if args.trace and wl.name == "suite":
        print("note: span times on suite are wall time per thread and include "
              "waiting for the interpreter lock; their sum can exceed wall_s")
    if not args.trace and wl.name == "single_long":
        # integration time only, as check 01 times simulate_run alone
        est = CHECK01_STEPS * statistics.median(
            r.log.seconds_per_step() for r in untraced)
        print(f"check 01: a {CHECK01_STEPS}-step fig1 simulate_run takes about "
              f"{est:.3f} s at single_long's integration rate; limit "
              f"{CHECK01_LIMIT_S} s, margin {CHECK01_LIMIT_S / est:.2f}x")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for i, rep in enumerate(reps):
        for name in sorted(rep.result.failed):
            print(f"failed run: repetition {i}: {name}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
