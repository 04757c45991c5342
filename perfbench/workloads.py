"""The benchmark workloads: generated from a seed, run, and checked.

A workload is a list of scenario documents (plain JSON tables) drawn from
the seed alone; smclab sees only those documents.  One repetition validates
the documents, runs them, and is then checked:

* every observer-free run keeps max|u| <= lambda;
* every written CSV reads back through ``TimeSeries.read_csv`` and writes
  out to the same bytes;
* each repetition produces the same digests as the first one;
* at ``DEFAULT_SEED`` the digests equal the ones in ``digests.json``,
  recorded from the seed commit.

A run fails when it raises, diverges or fails one of these checks.  A
:class:`RunLog` sees every ``sim.simulate_run`` call, delayed reruns
included, so a diverging run fails even where no digest is compared.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smclab import cli, controllers, metrics, scenarios, sim

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
LAWS = ("classical", "super-twisting", "adaptive", "observer-free")
DELAYED_SUFFIX = "+delay10ms"   # name run_suite gives a delayed rerun
REP_LEVEL = "*"                 # digest owner for outputs of a whole repetition


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RepResult:
    """Outcome of one repetition: runs attempted, runs failed, digests.

    Digest keys are ``"<owner>/<label>"``; the owner is a run name, or
    ``REP_LEVEL`` for outputs that belong to the repetition as a whole.
    """

    runs: list[str]
    failed: set[str] = field(default_factory=set)
    digests: dict[str, str] = field(default_factory=dict)

    def fail_owner(self, owner: str) -> None:
        if owner == REP_LEVEL:
            self.failed.update(self.runs)
        else:
            self.failed.add(owner)

    def compare(self, reference: dict[str, str]) -> None:
        """Fail every run whose digests differ from ``reference``."""
        for key in set(reference) | set(self.digests):
            if reference.get(key) != self.digests.get(key):
                self.fail_owner(key.split("/", 1)[0])


class RunLog:
    """While installed, wraps ``sim.simulate_run`` to log every call.

    smclab calls ``sim.simulate_run`` through the module attribute, so the
    log sees each run of a repetition: its name, whether it diverged, its
    step count and how long the integration took.
    """

    def __init__(self):
        self.entries: list[tuple[str, bool, int, float]] = []

    @contextlib.contextmanager
    def installed(self):
        original = sim.simulate_run

        def logged(scenario):
            t0 = time.perf_counter()
            ts = original(scenario)
            self.entries.append((scenario.name, bool(ts.diverged),
                                 scenario.sim.n_steps, time.perf_counter() - t0))
            return ts

        sim.simulate_run = logged
        try:
            yield self
        finally:
            sim.simulate_run = original

    def diverged(self) -> set[str]:
        return {name for name, diverged, _, _ in self.entries if diverged}

    def seconds_per_step(self) -> float:
        """Integration time per RK4 step, over every logged run."""
        return (sum(e[3] for e in self.entries)
                / max(1, sum(e[2] for e in self.entries)))


@contextlib.contextmanager
def _replaced(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def _lam_bounds(scs) -> dict[str, float]:
    """lambda of every observer-free run, by run name."""
    return {
        sc.name: sc.controller_params[0].lam
        for sc in scs
        if set(sc.controller) == {"observer-free"}
    }


def _file_owner(filename: str, names) -> str:
    for suffix in (".metrics.txt", ".u.svg", ".svg", ".csv"):
        if filename.endswith(suffix) and filename[: -len(suffix)] in names:
            return filename[: -len(suffix)]
    return REP_LEVEL


def _file_digests(out_dir: Path, names, rep: RepResult) -> None:
    if not out_dir.is_dir():
        return
    for path in sorted(out_dir.iterdir()):
        owner = _file_owner(path.name, names)
        rep.digests[f"{owner}/{path.name}"] = sha256(path.read_bytes())


def _csv_checks(out_dir: Path, scs, scratch: Path) -> set[str]:
    """Runs whose CSV fails the read-back or the |u| <= lambda check."""
    failed = set()
    bounds = _lam_bounds(scs)
    for sc in scs:
        path = out_dir / f"{sc.name}.csv"
        try:
            ts = sim.TimeSeries.read_csv(path)
            ts.write_csv(scratch)
            same = scratch.read_bytes() == path.read_bytes()
        except Exception:
            traceback.print_exc()
            same = False
        if not same:
            failed.add(sc.name)
        elif sc.name in bounds and float(np.max(np.abs(ts.u))) > bounds[sc.name]:
            failed.add(sc.name)
    scratch.unlink(missing_ok=True)
    return failed


class Workload:
    """Base class: a named list of documents drawn from one seed."""

    name = ""

    def __init__(self, seed: int):
        # the workload name in the seed keeps workloads from sharing draws
        tag = sum(self.name.encode())
        self.docs = self.generate(np.random.default_rng([seed, tag]))

    def generate(self, rng) -> list[dict]:
        raise NotImplementedError

    def prepare(self, work_dir: Path) -> None:
        """Write whatever input files the run reads, once per process."""

    def validate(self) -> list:
        return [scenarios.validate(doc) for doc in self.docs]

    def run_names(self, scs) -> list[str]:
        return [sc.name for sc in scs]

    def node_steps(self, scs) -> int:
        """RK4 steps times nodes that one repetition integrates."""
        return sum(sc.sim.n_steps * sc.n_nodes for sc in scs)

    def run(self, scs, out_dir: Path):
        raise NotImplementedError

    def check(self, scs, raw, out_dir: Path) -> RepResult:
        raise NotImplementedError

    def final_check(self, scs, out_dir: Path, scratch: Path) -> set[str]:
        """Slower checks on one repetition's output, run once."""
        return set()


class SingleLong(Workload):
    name = "single_long"
    T_FINAL = 20.0

    def generate(self, rng):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return [{
            "schema": 1,
            "name": "single_long_pendulum_observer_free",
            "plant": {"name": "pendulum", "a": 1.0, "c": 0.1, "b": 1.0},
            "controller": {
                "name": "observer-free",
                "k1": float(rng.uniform(0.7, 1.3)),
                "lambda": float(rng.uniform(4.0, 6.0)),
            },
            "x0": [sign * float(rng.uniform(0.3, 0.8)), 0.0],
            "sim": {"dt": 0.001, "t_final": self.T_FINAL, "seed": 42,
                    "record_stride": 1},
            "views": ["state"],
            "matrix_group": "pendulum",
        }]

    def prepare(self, work_dir):
        self.doc_path = work_dir / "single_long.json"
        self.doc_path.write_text(json.dumps(self.docs[0], indent=2) + "\n")

    def run(self, scs, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(self.doc_path), "--out-dir", str(out_dir)])

    def check(self, scs, code, out_dir):
        rep = RepResult(self.run_names(scs))
        if code != cli.EXIT_OK:
            rep.failed.update(rep.runs)
        _file_digests(out_dir, rep.runs, rep)
        name = scs[0].name
        for suffix in (".csv", ".metrics.txt", ".svg"):
            if f"{name}/{name}{suffix}" not in rep.digests:
                rep.failed.add(name)
        return rep

    def final_check(self, scs, out_dir, scratch):
        return _csv_checks(out_dir, scs, scratch)


class Suite(Workload):
    name = "suite"
    T_FINAL = 0.5
    PARALLELISM = 2

    def generate(self, rng):
        def doc(name, plant, ctrl, x0, **extra):
            return {
                "schema": 1, "name": name, "plant": plant, "controller": ctrl,
                "x0": [float(v) for v in x0],
                "sim": {"dt": 0.001, "t_final": self.T_FINAL, "seed": sim_seed,
                        "record_stride": 1},
                **extra,
            }

        sim_seed = int(rng.integers(0, 2 ** 31))
        k1 = float(rng.uniform(0.8, 1.2))
        angles = rng.uniform(-0.3, 0.3, 5)
        network_x0 = np.zeros(10)
        network_x0[0::2] = angles
        groups = (
            ("fig1", {"name": "pendulum"}, (rng.uniform(0.3, 0.7), 0.0),
             rng.uniform(4.0, 6.0)),
            ("fig2", {"name": "vdp"}, (rng.uniform(1.5, 2.5), 0.0),
             rng.uniform(2.5, 3.5)),
            ("fig3", {"name": "duffing"}, (rng.uniform(1.2, 1.8), 0.0),
             rng.uniform(2.5, 3.5)),
            ("fig4", {"name": "network5", "n": 5}, network_x0,
             rng.uniform(4.0, 6.0)),
        )
        docs = []
        for fig, plant, x0, lam in groups:
            for law in LAWS:
                ctrl = {"name": law}
                if law == "observer-free":
                    ctrl.update(k1=k1, **{"lambda": float(lam)})
                docs.append(doc(
                    f"{fig}_{plant['name']}_{law.replace('-', '_')}", plant, ctrl,
                    x0, matrix_group=plant["name"],
                ))
        vdp_x0 = (rng.uniform(1.5, 2.5), 0.0)
        vdp_ctrl = {"name": "observer-free", "k1": k1,
                    "lambda": float(rng.uniform(2.5, 3.5))}
        robustness = (
            ("fig5_vdp_nominal", {}),
            ("fig6_vdp_noise", {"noise": {"std_x": 0.01, "std_v": 0.01}}),
            ("fig7_vdp_disturbance", {"disturbance": {
                "kind": "sinusoid", "amplitude": 0.2, "angular_frequency": 5.0}}),
        )
        for name, extra in robustness:
            docs.append(doc(name, {"name": "vdp"}, vdp_ctrl, vdp_x0,
                            views=["state", "control"], **extra))
        docs.append(doc(
            "delay_probe_pendulum_observer_free", {"name": "pendulum"},
            {"name": "observer-free", "k1": k1,
             "lambda": float(rng.uniform(4.0, 6.0))},
            (rng.uniform(0.3, 0.7), 0.0),
            delay={"tau": scenarios.DELAY_PROBE_TAU},
        ))
        return docs

    def run_names(self, scs):
        names = [sc.name for sc in scs]
        return names + [sc.name + DELAYED_SUFFIX for sc in scs if sc.matrix_group]

    def node_steps(self, scs):
        return sum(
            sc.sim.n_steps * sc.n_nodes * (2 if sc.matrix_group else 1) for sc in scs
        )

    def run(self, scs, out_dir):
        # `smclab suite` itself, with the seeded suite in place of the
        # built-in one
        stdout, stderr = io.StringIO(), io.StringIO()
        with _replaced(scenarios, "builtin_suite", lambda: list(scs)), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["suite", "--out-dir", str(out_dir),
                             "--parallelism", str(self.PARALLELISM)])
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, scs, raw, out_dir):
        code, stdout, stderr = raw
        rep = RepResult(self.run_names(scs))
        if code != cli.EXIT_OK:
            sys.stderr.write(stderr)
            named = {line.split(": ", 2)[1] for line in stderr.splitlines()
                     if line.startswith("failed: ")}
            rep.failed.update(named & set(rep.runs) or rep.runs)
        _file_digests(out_dir, rep.runs, rep)
        rows = {}
        summary = out_dir / "summary.csv"
        if summary.is_file():
            for line in summary.read_text().splitlines()[1:]:
                name, _, row = line.partition(",")
                rows[name] = row
        for sc in scs:
            if sc.name in rows:
                rep.digests[f"{sc.name}/csv_row"] = sha256(rows[sc.name].encode())
            else:
                rep.failed.add(sc.name)
        # the matrices as `smclab suite` prints them
        rep.digests[f"{REP_LEVEL}/stdout"] = sha256(
            stdout.replace(str(out_dir), "<out>").encode())
        groups = {sc.matrix_group for sc in scs} - {""}
        if not all((out_dir / f"matrix_{g}.csv").is_file() for g in groups):
            rep.fail_owner(REP_LEVEL)
        return rep

    def final_check(self, scs, out_dir, scratch):
        return _csv_checks(out_dir, scs, scratch)


class Sweep(Workload):
    name = "sweep"
    BLOCKS = 8
    NODES = 16
    T_FINAL = 0.25

    def generate(self, rng):
        docs = []
        for block in range(self.BLOCKS):
            lam = float(rng.uniform(3.0, 6.0))
            k1 = float(rng.uniform(0.5, 1.5))
            x0 = np.zeros(2 * self.NODES)
            x0[0::2] = rng.uniform(-0.3, 0.3, self.NODES)
            sim_seed = int(rng.integers(0, 2 ** 31))
            # one block runs the four laws on one physical experiment, so
            # their reports form a comparison matrix
            laws = {
                "classical": {"lam_s": k1, "k": lam},
                "super-twisting": {"lam_s": k1, "k1st": 1.5 * math.sqrt(lam),
                                   "k2st": 1.1 * lam},
                "adaptive": {"lam_s": k1, "kmax": 10.0 * lam},
                "observer-free": {"k1": k1, "lambda": lam},
            }
            for law in LAWS:
                docs.append({
                    "schema": 1,
                    "name": f"sweep_{block:02d}_{law.replace('-', '_')}",
                    "plant": {"name": "network5", "n": self.NODES, "kappa": 0.5,
                              "topology": "ring"},
                    "controller": {"name": law, **laws[law]},
                    "x0": [float(v) for v in x0],
                    "sim": {"dt": 0.001, "t_final": self.T_FINAL,
                            "seed": sim_seed, "record_stride": 1},
                    "noise": {"std_x": 0.002, "std_v": 0.002},
                    "delay": {"tau": 0.005},
                    "estimate_velocity": True,
                    "velocity_filter_cutoff_hz": 20.0,
                })
        return docs

    def run(self, scs, out_dir):
        reports = []
        for sc in scs:
            ts = sim.simulate_run(sc)
            reports.append(metrics.compute_report(ts, run_key=scenarios.run_key(sc)))
        matrices = []
        for start in range(0, len(scs), len(LAWS)):
            block = list(zip(scs[start:start + len(LAWS)],
                             reports[start:start + len(LAWS)]))
            matrices.append(metrics.comparison_matrix(
                {sc.controller[0]: report for sc, report in block},
                metrics.DEFAULT_THRESHOLDS,
                input_bounds={
                    sc.controller[0]: controllers.declared_input_bound(
                        sc.controller[0], sc.controller_params[0])
                    for sc, _ in block
                },
            ))
        return reports, matrices

    def check(self, scs, raw, out_dir):
        reports, matrices = raw
        rep = RepResult(self.run_names(scs))
        bounds = _lam_bounds(scs)
        for sc, report in zip(scs, reports):
            rep.digests[f"{sc.name}/csv_row"] = sha256(report.csv_row().encode())
            if report.diverged or report.max_abs_u > bounds.get(sc.name, math.inf):
                rep.failed.add(sc.name)
        for i, matrix in enumerate(matrices):
            rep.digests[f"{REP_LEVEL}/matrix_{i:02d}"] = sha256(
                "\n".join(matrix.csv_rows()).encode())
        return rep


WORKLOADS = {cls.name: cls for cls in (SingleLong, Suite, Sweep)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def recorded_digests(name: str) -> dict[str, str] | None:
    if not DIGESTS_PATH.is_file():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(name)


def record_digests(name: str, digests: dict[str, str]) -> None:
    table = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
    table[name] = dict(sorted(digests.items()))
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
