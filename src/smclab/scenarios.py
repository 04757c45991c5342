"""Declarative run definitions, validation, and the built-in suite.

A scenario JSON document (schema 1) looks like::

    {
      "schema": 1,
      "name": "fig1_pendulum_observer_free",
      "plant": {"name": "pendulum", "a": 1.0, "c": 0.1, "b": 1.0},
      "controller": {"name": "observer-free", "k1": 1.0, "lambda": 5.0},
      "x0": [0.5, 0.0],
      "sim": {"dt": 0.001, "t_final": 10.0, "seed": 42, "record_stride": 1},
      "noise": {"std_x": 0.0, "std_v": 0.0},
      "disturbance": {"kind": "none", "amplitude": 0.0, "angular_frequency": 0.0},
      "delay": {"tau": 0.0},
      "estimate_velocity": false,
      "velocity_filter_cutoff_hz": 20.0,
      "views": ["state"],
      "matrix_group": "pendulum"
    }

``controller`` is either one object applied to every node or a list with
one object per node.  ``validate`` reports every violation in one pass,
each failing range check of a table included, unless the table has an
unknown key or a wrongly typed value.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import controllers, figures, metrics, plants, sim
from .errors import ConfigError, ScenarioValidationError, SmcLabError

SCHEMA_VERSION = 1
DELAY_PROBE_TAU = 0.01
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")   # names and matrix groups name files
# JSON key aliases for reserved or awkward Python names
_ALIASES = {"lambda": "lam"}
_ALIASES_BACK = {v: k for k, v in _ALIASES.items()}


@dataclass
class Scenario:
    """One validated, fully resolved run definition."""

    name: str
    plant: str
    plant_params: object
    controller: tuple[str, ...]
    controller_params: tuple[object, ...]
    x0: tuple[float, ...]
    sim: sim.SimConfig
    noise: sim.NoiseConfig = field(default_factory=sim.NoiseConfig)
    disturbance: sim.DisturbanceSpec = field(default_factory=sim.DisturbanceSpec)
    delay: sim.DelaySpec = field(default_factory=sim.DelaySpec)
    estimate_velocity: bool = False
    velocity_filter_cutoff_hz: float = 20.0
    views: tuple[str, ...] = ("state",)
    matrix_group: str = ""

    @property
    def n_nodes(self) -> int:
        return plants.node_count(self.plant, self.plant_params)

    def make_plant(self) -> plants.PlantModel:
        return plants.make_plant(self.plant, self.plant_params)

    def to_dict(self) -> dict:
        names, params = self.controller, self.controller_params
        ctrl_entries = [_params_to_dict(n, p) for n, p in zip(names, params)]
        one_setting = len(controllers.node_groups(names, params)) == 1
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "plant": _params_to_dict(self.plant, self.plant_params),
            "controller": ctrl_entries[0] if one_setting else ctrl_entries,
            "x0": list(self.x0),
            "sim": dataclasses.asdict(self.sim),
            "noise": dataclasses.asdict(self.noise),
            "disturbance": dataclasses.asdict(self.disturbance),
            "delay": dataclasses.asdict(self.delay),
            "estimate_velocity": self.estimate_velocity,
            "velocity_filter_cutoff_hz": self.velocity_filter_cutoff_hz,
            "views": list(self.views),
            "matrix_group": self.matrix_group,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _params_to_dict(name: str, params) -> dict:
    """The ``{"name": ..., <params>}`` table that :func:`_named` reads back."""
    table = {} if params is None else dataclasses.asdict(params)
    return {"name": name, **{_ALIASES_BACK.get(k, k): v for k, v in table.items()}}


def read_document(path):
    """The JSON document in the file at ``path``, or a one-line SmcLabError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise SmcLabError(f"{path}: not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SmcLabError(f"{path}: cannot read: {exc}") from None


def load_scenario(path) -> Scenario:
    return validate(read_document(path))


def document(ref, overrides=()):
    """The raw document that ``smclab run REF --set TEXT...`` validates.

    ``ref`` is a file if one exists at that path (a file beats a built-in
    name), else the name of a built-in scenario.  Each ``path.to.key=value``
    text in ``overrides`` is applied in order: the value is JSON, or the
    raw string when it is not JSON, and a missing or null table on the
    path becomes ``{}``.  Raises a one-line SmcLabError."""
    path = Path(ref)
    if os.path.exists(path):    # False, not OSError, for a name too long
        raw = read_document(path)
    else:
        raw = next((sc.to_dict() for sc in builtin_suite() if sc.name == ref), None)
        if raw is None:
            raise SmcLabError(f"'{ref}' is neither a readable file nor a built-in scenario name")
    for text in overrides:
        dotted, eq, value = text.partition("=")
        if not eq:
            raise SmcLabError(f"override '{text}' must look like path.to.key=value")
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise SmcLabError(f"override '{text}' has an empty key path")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        if not isinstance(raw, dict):
            raise SmcLabError(f"override '{text}': the scenario is not a JSON object")
        node = raw
        for key in keys[:-1]:
            if node.get(key) is None:
                node[key] = {}
            node = node[key]
            if not isinstance(node, dict):
                raise SmcLabError(f"override '{text}': '{key}' does not address an object")
        node[keys[-1]] = value
    return raw


def _number(val, path: str, errors: list) -> float | None:
    """``float(val)`` of a JSON number, or None with a message for a bool,
    a non-number or an int too large for a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number")
        return None
    try:
        return float(val)
    except OverflowError:
        errors.append(f"{path}: expected a finite number")
        return None


def _build(cls, table, path: str, errors: list, aliases=None) -> object | None:
    """Construct a config dataclass from a JSON table, collecting messages."""
    if not isinstance(table, dict):
        errors.append(f"{path}: expected an object")
        return None
    valid = {f.name: f for f in dataclasses.fields(cls)}
    n_before = len(errors)
    kwargs = {}
    for key, val in table.items():
        name = (aliases or {}).get(key, key)
        if name not in valid:
            errors.append(f"{path}.{key}: unknown parameter")
        # a field whose default is a params object takes a JSON object
        elif dataclasses.is_dataclass(valid[name].default):
            kwargs[name] = _build(type(valid[name].default), val, f"{path}.{key}", errors)
        # annotations are strings under postponed evaluation
        elif valid[name].type in (int, "int") and not isinstance(val, bool):
            if isinstance(val, int):
                kwargs[name] = val
            else:
                errors.append(f"{path}.{key}: expected an integer")
        elif isinstance(val, (int, float)):
            kwargs[name] = _number(val, f"{path}.{key}", errors)
        elif isinstance(val, str) and valid[name].type in (str, "str"):
            kwargs[name] = val
        else:
            errors.append(f"{path}.{key}: unsupported value type")
    if len(errors) > n_before:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # ConfigError lists every violation
        errors += [f"{path}: {m}" for m in getattr(exc, "errors", [exc])]
    return None


def _named(entry, path: str, errors: list, kind: str, names, param_type):
    """``(name, params)`` of a ``{"name": ..., <params>}`` table naming one
    of ``names``, or None with its messages.  A missing or null table is
    required; a name whose params type is NoneType takes no parameters."""
    if entry is None:
        errors.append(f"{path}: required")
        return None
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    name = entry.get("name")
    if name not in names:
        errors.append(f"{path}.name: unknown {kind} {name!r}, expected one of {names}")
        return None
    table = {k: v for k, v in entry.items() if k != "name"}
    cls = param_type(name)
    if cls is type(None):
        if table:
            errors.append(f"{path}: {kind} {name!r} takes no parameters")
            return None
        return name, None
    params = _build(cls, table, path, errors, _ALIASES)
    return None if params is None else (name, params)


def validate(raw) -> Scenario:
    """Normalize a raw scenario table, or raise with every violation found."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["scenario: expected a JSON object"])

    fields = {f.name for f in dataclasses.fields(Scenario)}
    known = {"schema"} | fields - {"plant_params", "controller_params"}
    for key in raw:
        if key not in known:
            errors.append(f"{key}: unknown field")

    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        errors.append(f"schema: unsupported version {schema!r}, expected {SCHEMA_VERSION}")

    name = raw.get("name")
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        errors.append("name: required, letters/digits/._- only")

    plant = _named(raw.get("plant"), "plant", errors, "plant", plants.PLANT_NAMES,
                   plants.param_type)
    n_nodes = None if plant is None else plants.node_count(*plant)

    def law(entry, path):
        return _named(entry, path, errors, "controller", controllers.CONTROLLER_NAMES,
                      controllers.param_type)

    # a list of per-node (name, params) pairs, or one pair for every node;
    # the per-node tuples are built only for a valid scenario, so an
    # unchecked node count allocates nothing
    ctrl_raw = raw.get("controller")
    if isinstance(ctrl_raw, list):
        ctrl = [law(entry, f"controller[{i}]") for i, entry in enumerate(ctrl_raw)]
        if n_nodes is not None and len(ctrl) != n_nodes:
            errors.append(
                f"controller: expected {n_nodes} entries for plant "
                f"'{plant[0]}', got {len(ctrl)}"
            )
    else:
        ctrl = law(ctrl_raw, "controller")

    x0_raw = raw.get("x0")
    x0: tuple[float, ...] = ()
    if not isinstance(x0_raw, list):
        errors.append("x0: required list of numbers")
    else:
        x0 = tuple(_number(v, f"x0[{i}]", errors) for i, v in enumerate(x0_raw))
        if any(v is not None and not math.isfinite(v) for v in x0):
            errors.append("x0: entries must be finite")
        if n_nodes is not None and len(x0) != 2 * n_nodes:
            errors.append(
                f"x0: expected length {2 * n_nodes} for plant '{plant[0]}', "
                f"got {len(x0)}"
            )

    sim_cfg = _build(sim.SimConfig, raw.get("sim", {}), "sim", errors)
    if sim_cfg is not None and n_nodes is not None:
        recorded = (sim_cfg.n_steps + 1) * n_nodes
        if recorded > sim.MAX_RECORDED_SAMPLES:
            errors.append(
                f"sim: {recorded} recorded samples (steps + 1, times {n_nodes} "
                f"nodes) exceed {sim.MAX_RECORDED_SAMPLES:g}; shorten sim.t_final"
            )
    noise_cfg = _build(sim.NoiseConfig, raw.get("noise", {}), "noise", errors)
    dist = _build(sim.DisturbanceSpec, raw.get("disturbance", {}), "disturbance", errors)
    # the phase at the last sample time, as eval_disturbance computes it
    if dist is not None and sim_cfg is not None and not math.isfinite(
            dist.angular_frequency * (sim_cfg.n_steps * sim_cfg.dt)):
        errors.append("disturbance.angular_frequency: the phase at sim.t_final "
                      "overflows a float")
    delay = _build(sim.DelaySpec, raw.get("delay", {}), "delay", errors)

    est = raw.get("estimate_velocity", False)
    if not isinstance(est, bool):
        errors.append("estimate_velocity: expected true or false")

    cutoff = _number(raw.get("velocity_filter_cutoff_hz", 20.0),
                     "velocity_filter_cutoff_hz", errors)
    if cutoff is not None and not (math.isfinite(cutoff) and cutoff > 0):
        errors.append("velocity_filter_cutoff_hz: expected a number > 0")
    # the filter's 2 pi f dt, as LowPassDifferentiator computes it
    elif cutoff is not None and sim_cfg is not None and not math.isfinite(
            2.0 * math.pi * cutoff * sim_cfg.dt):
        errors.append("velocity_filter_cutoff_hz: 2 pi cutoff sim.dt "
                      "overflows a float")

    views_raw = raw.get("views", ["state"])
    if not isinstance(views_raw, list) or not views_raw \
            or any(not isinstance(v, str) or v not in figures.VIEWS for v in views_raw):
        errors.append(f"views: expected a non-empty list drawn from {tuple(figures.VIEWS)}")

    group = raw.get("matrix_group", "")
    if not isinstance(group, str):
        errors.append("matrix_group: expected a string")
    elif group and not _NAME_RE.fullmatch(group):
        errors.append("matrix_group: letters/digits/._- only")

    if errors:
        raise ScenarioValidationError(errors)

    ctrl_names, ctrl_params = zip(*(ctrl if isinstance(ctrl, list) else [ctrl] * n_nodes))
    return Scenario(
        name=name,
        plant=plant[0],
        plant_params=plant[1],
        controller=ctrl_names,
        controller_params=ctrl_params,
        x0=x0,
        sim=sim_cfg,
        noise=noise_cfg,
        disturbance=dist,
        delay=delay,
        estimate_velocity=est,
        velocity_filter_cutoff_hz=cutoff,
        views=tuple(views_raw),
        matrix_group=group,
    )


def _network_x0() -> list[float]:
    """Five node angles drawn once (seed 42), uniform on [-0.3, 0.3],
    interleaved with zero rates."""
    angles = np.random.default_rng(42).uniform(-0.3, 0.3, 5).tolist()
    return [v for angle in angles for v in (angle, 0.0)]


def builtin_suite() -> list[Scenario]:
    """The shipped benchmark: four plants under four controllers, a
    robustness trio on the Van der Pol plant, and one input-delay probe,
    written as scenario documents and checked by :func:`validate`."""
    def observer_free(lam):
        return {"name": "observer-free", "k1": 1.0, "lambda": lam}

    comparisons = (
        ("fig1", "pendulum", [0.5, 0.0], 5.0),
        ("fig2", "vdp", [2.0, 0.0], 3.0),
        ("fig3", "duffing", [1.5, 0.0], 3.0),
        ("fig4", "network5", _network_x0(), 5.0),
    )
    docs = [
        {
            "name": f"{fig}_{plant}_{law.replace('-', '_')}",
            "plant": {"name": plant},
            "controller": observer_free(lam) if law == "observer-free" else {"name": law},
            "x0": x0,
            "matrix_group": plant,
        }
        for fig, plant, x0, lam in comparisons for law in metrics.CONTROLLER_ORDER
    ]
    vdp = {"plant": {"name": "vdp"}, "controller": observer_free(3.0),
           "x0": [2.0, 0.0], "views": ["state", "control"]}
    docs += [
        {"name": "fig5_vdp_nominal", **vdp},
        {"name": "fig6_vdp_noise", **vdp, "noise": {"std_x": 0.01, "std_v": 0.01}},
        {"name": "fig7_vdp_disturbance", **vdp, "disturbance": {
            "kind": "sinusoid", "amplitude": 0.2, "angular_frequency": 5.0}},
        {"name": "delay_probe_pendulum_observer_free", "plant": {"name": "pendulum"},
         "controller": observer_free(5.0), "x0": [0.5, 0.0],
         "delay": {"tau": DELAY_PROBE_TAU}},
    ]
    return [validate(doc) for doc in docs]


def run_key(sc: Scenario) -> str:
    """Identity of the physical experiment: every field but the name, the
    controller and its params, the views and the matrix group."""
    return repr(dataclasses.replace(sc, name="", controller=(), controller_params=(),
                                    views=(), matrix_group=""))


def run(sc: Scenario):
    """Simulate one scenario: (written series, report, :func:`failure`).

    The report and the failure read the full-rate series; the written
    series, for the CSV and SVG writers, is a view of every
    ``sim.record_stride``-th row of it, so the full-rate table lives as
    long as the written series.  The report is None for a series too short
    to report on."""
    ts = sim.simulate_run(sc)
    report = None if ts.n_samples < 2 else metrics.compute_report(ts, run_key=run_key(sc))
    written = sim.TimeSeries(ts.table[::sc.sim.record_stride], ts.diverged_at)
    return written, report, failure(ts, report)


def write_run(name: str, ts: sim.TimeSeries, views, out_dir: Path, report=None) -> list[Path]:
    """Write a run's ``<name>.csv``, then ``<name>.metrics.txt`` if a
    ``report`` is given, then its figures (:func:`figures.write_views`);
    return the paths written."""
    written = [out_dir / f"{name}.csv"]
    ts.write_csv(written[0])
    if report is not None:
        written.append(out_dir / f"{name}.metrics.txt")
        written[-1].write_text(report.to_kv_text())
    return written + figures.write_views(ts, name, views, out_dir)


def make_dir(path: Path) -> None:
    """Create ``path`` and its parents, or raise a one-line SmcLabError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SmcLabError(f"cannot create output directory {path}: {exc}") from None


def failure(ts: sim.TimeSeries, report) -> str | None:
    """Why a finished run failed: its state diverged, or its metric inputs
    overflowed (its report is marked diverged).  None if it did not fail."""
    if ts.diverged:
        return f"diverged at t={ts.diverged_at:.6g} s"
    if report is not None and report.diverged:
        finite = np.isfinite(ts.table).all(axis=0)
        bad = [name for name, ok in zip(ts.column_names(), finite) if not ok]
        return "overflowed: non-finite values in " + (", ".join(bad) or "the metric sums")
    return None


@dataclass
class SuiteResult:
    runs: dict                 # name -> MetricsReport, or None for a too short run
    matrices: dict             # matrix_group -> ComparisonMatrix
    failures: dict             # name -> message


def run_suite(suite, out_dir, parallelism: int = 1) -> SuiteResult:
    """Check the suite, then run it through :func:`run`, write each run's
    CSV and figures and build comparison matrices.

    Before ``out_dir`` is made or any run starts, names must be unique,
    ``parallelism`` must be >= 1, and each ``matrix_group`` member must run
    one (law, params) pair on every node, be its group's only member with
    that law and share its group's experiment (:func:`run_key`).  Runs go
    one at a time, in suite order, in the calling thread (the step loop
    holds the interpreter lock), so output is identical at every
    ``parallelism``.  Each run's CSV and figures are written right after it
    (:func:`write_run`) and only its report is kept, so no table outlives
    its run.  A run that raises, diverges or overflows (:func:`failure`) is
    listed in ``failures`` and the suite goes on.  Each ``matrix_group``
    member whose run did not raise is rerun right after it with a 10 ms
    input delay for the DelayTolerant row; only the rerun's report is kept,
    and a rerun that raises is listed as ``<name>+delay10ms``.
    """
    suite = list(suite)
    names = [sc.name for sc in suite]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate scenario names in suite")
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    seats = set()
    first_member = {}   # group -> its first member in suite order
    for sc in suite:
        if not sc.matrix_group:
            continue
        group, law = sc.matrix_group, sc.controller[0]
        if len(controllers.node_groups(sc.controller, sc.controller_params)) > 1:
            raise ConfigError(
                f"matrix group '{group}' member '{sc.name}' runs more than one "
                "controller setting across its nodes"
            )
        if (group, law) in seats:
            raise ConfigError(f"matrix group '{group}' has duplicate controller '{law}'")
        seats.add((group, law))
        first = first_member.setdefault(group, sc)
        if run_key(first) != run_key(sc):
            raise ConfigError(f"matrix group '{group}' members '{first.name}' and "
                              f"'{sc.name}' run different experiments")

    out_dir = Path(out_dir)
    make_dir(out_dir)
    runs = {}
    failures = {}
    groups: dict[str, tuple] = {}   # group -> law-keyed (reports, delayed reports, bounds)
    for sc in suite:
        try:
            ts, report, why = run(sc)
        except Exception as exc:  # keep other runs alive, caller sees exit 4
            failures[sc.name] = f"{type(exc).__name__}: {exc}"
            continue
        runs[sc.name] = report
        write_run(sc.name, ts, sc.views, out_dir)
        del ts      # freed before the next run or the delayed rerun starts
        if why is not None:
            failures[sc.name] = why
        if not sc.matrix_group:
            continue
        rerun = dataclasses.replace(sc, name=sc.name + "+delay10ms", matrix_group="",
                                    delay=sim.DelaySpec(tau=DELAY_PROBE_TAU))
        try:
            delayed = run(rerun)[1]
        except Exception as exc:
            delayed, failures[rerun.name] = None, f"{type(exc).__name__}: {exc}"
        if report is not None:
            law = sc.controller[0]
            reports, delays, bounds = groups.setdefault(sc.matrix_group, ({}, {}, {}))
            reports[law] = report
            bounds[law] = controllers.declared_input_bound(law, sc.controller_params[0])
            if delayed is not None:
                delays[law] = delayed

    with open(out_dir / "summary.csv", "w", newline="") as f:
        f.write("name," + metrics.MetricsReport.csv_header() + "\n")
        for name, report in sorted(runs.items()):
            if report is not None:
                f.write(f"{name},{report.csv_row()}\n")

    matrices = {}
    for group, (reports, delays, bounds) in sorted(groups.items()):
        if len(reports) < 2:
            continue
        matrix = metrics.comparison_matrix(reports, delayed=delays, input_bounds=bounds)
        matrices[group] = matrix
        with open(out_dir / f"matrix_{group}.csv", "w", newline="") as f:
            f.write("\n".join(matrix.csv_rows()) + "\n")

    return SuiteResult(runs=runs, matrices=matrices, failures=failures)
