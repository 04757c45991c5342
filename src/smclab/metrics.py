"""Run metrics and the controller comparison matrix.

Every metric is a pure function of recorded series.  Formulas are listed in
``FORMULAS`` and written into every report header so numbers in summaries
stay traceable to their definitions.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .controllers import is_observer_free
from .errors import InvalidInputError, check_positive

SETTLING_BAND = 0.02    # absolute position band of settling_time
LYAP_RISE_TOL = 1e-9
LYAP_S2_FLOOR = 1e-6

FORMULAS = {
    "settling_time": "smallest t* with |x(t)| <= band for all t >= t*, none if the series ends outside the band",
    "overshoot": "max(0, max_t sign(x0 - target) * (target - x(t))) / |x0 - target|",
    "chattering_index": "sum_k |u_{k+1} - u_k| (discrete total variation)",
    "control_effort": "sum_k u_k^2 * dt, summed over nodes",
    "max_abs_u": "max over samples and nodes of |u|",
    "max_slew": "max_k |u_{k+1} - u_k| / dt, worst node",
    "lyap_violation_count": f"number of steps with V_{{k+1}} - V_k > {LYAP_RISE_TOL:g}",
    "lyap_epsilon_hat": f"min over steps with s_k^2 > {LYAP_S2_FLOOR:g} of (V_k - V_{{k+1}}) / (s_k^2 dt)",
    "sync_error_final": "std over nodes of x at the final sample (ddof=0)",
    "steady_state_error": "mean |x(t)| over the final 10% of samples",
}


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail limits for the comparison matrix, versioned defaults."""

    version: int = 1
    chattering_max: float = 10.0    # total variation limit
    slew_max: float = 1e3           # |du|/dt limit, units of u per second


DEFAULT_THRESHOLDS = Thresholds()


def _series(x, name: str = "series") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def settling_time(x_series, band: float, dt: float) -> float | None:
    """Earliest time after which |x| stays inside the band, None if never."""
    x = _series(x_series, "x_series")
    check_positive(band, "band")
    check_positive(dt)
    outside = np.abs(x) > band
    if not outside.any():
        return 0.0
    last_out = int(np.nonzero(outside)[0][-1])
    if last_out == x.shape[0] - 1:
        return None
    return (last_out + 1) * dt


def overshoot(x_series, target: float = 0.0, x0: float | None = None) -> float:
    """Normalized excursion past the target, measured from the approach side."""
    x = _series(x_series, "x_series")
    if x0 is None:
        x0 = float(x[0])
    if x0 == target:
        raise InvalidInputError("overshoot undefined for x0 == target")
    direction = 1.0 if x0 > target else -1.0
    worst = float(np.max(direction * (target - x)))
    return max(0.0, worst) / abs(x0 - target)


def chattering_index(u_series) -> float:
    """Discrete total variation of the control signal."""
    u = _series(u_series, "u_series")
    if u.shape[0] < 2:
        raise InvalidInputError("u_series needs at least two samples")
    return float(np.sum(np.abs(np.diff(u))))


def lyapunov_stats(v_series, s_series, dt: float) -> tuple[int, float | None]:
    """Count of V increases beyond tolerance and the empirical decay rate.

    epsilon_hat is the worst-case (smallest) observed value of
    (V_k - V_{k+1}) / (s_k^2 dt) over steps where s_k^2 exceeds the floor;
    None when no step qualifies.
    """
    v = _series(v_series, "v_series")
    s = _series(s_series, "s_series")
    if v.shape != s.shape:
        raise InvalidInputError("V and s series must have equal length")
    check_positive(dt)
    if v.shape[0] < 2:
        return 0, None
    dv = np.diff(v)
    violations = int(np.sum(dv > LYAP_RISE_TOL))
    s2 = s[:-1] ** 2
    mask = s2 > LYAP_S2_FLOOR
    if not mask.any():
        return violations, None
    eps = float(np.min(-dv[mask] / (s2[mask] * dt)))
    return violations, eps


def sync_error(x_matrix) -> tuple[np.ndarray, float]:
    """Per-sample std of node positions and its final value."""
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 2:
        raise InvalidInputError("x_matrix must be (samples, nodes>=2)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x_matrix contains non-finite entries")
    series = np.std(x, axis=1)
    return series, float(series[-1])


@dataclass
class MetricsReport:
    """Flat per-run record; None marks undefined entries.  ``FIELDS``, the
    written columns, are the dataclass fields but ``run_key``."""

    settling_time: float | None
    overshoot: float | None
    chattering_index: float | None
    control_effort: float | None
    max_abs_u: float | None
    max_slew: float | None
    lyap_violation_count: int | None
    lyap_epsilon_hat: float | None
    sync_error_final: float | None
    steady_state_error: float
    diverged: bool = False
    run_key: str = ""

    def to_kv_text(self) -> str:
        lines = [f"# {name}: {FORMULAS[name]}" for name in FORMULAS]
        lines += [f"{name}={_fmt(getattr(self, name))}" for name in self.FIELDS]
        return "\n".join(lines) + "\n"

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.FIELDS)

    def csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, name)) for name in self.FIELDS)


MetricsReport.FIELDS = tuple(
    f.name for f in dataclasses.fields(MetricsReport) if f.name != "run_key"
)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def compute_report(ts, run_key: str = "") -> MetricsReport:
    """Build the standard report for one recorded run.

    Position metrics use the node-mean trajectory and ``SETTLING_BAND``;
    control metrics take the worst node except effort, which sums
    over nodes.  Lyapunov statistics aggregate V and s^2 over nodes, which
    reduces to the single-node definition for one node.  The control
    metrics are None when u^2 or du/dt overflow, the Lyapunov ones when
    the sums of V or s^2 do; the run then counts as diverged, as does a
    diverged series.
    """
    if ts.n_samples < 2:
        raise InvalidInputError("need at least two samples to compute metrics")
    dt = float(ts.t[1] - ts.t[0])
    n = ts.n_nodes
    x_mean = ts.x.mean(axis=1)

    over = overshoot(x_mean, target=0.0, x0=float(x_mean[0])) if x_mean[0] != 0.0 else None

    with np.errstate(over="ignore", invalid="ignore"):
        effort = float(np.sum(ts.u ** 2) * dt)
        slews = np.abs(np.diff(ts.u, axis=0)) / dt
        v_total = ts.V.sum(axis=1)
        s_eff = np.sqrt((ts.s ** 2).sum(axis=1))
    # a finite effort means every u and u^2 is finite
    u_ok = math.isfinite(effort) and np.isfinite(slews).all()
    v_ok = np.isfinite(v_total).all() and np.isfinite(s_eff).all()

    chat = max_u = max_slew = None
    if u_ok:
        chat = max(chattering_index(ts.u[:, i]) for i in range(n))
        max_u = float(np.max(np.abs(ts.u)))
        max_slew = float(np.max(slews))
    else:
        effort = None
    violations, eps_hat = lyapunov_stats(v_total, s_eff, dt) if v_ok else (None, None)

    sync_final = sync_error(ts.x)[1] if n >= 2 else None

    tail = max(1, ts.n_samples // 10)
    steady = float(np.mean(np.abs(x_mean[-tail:])))

    return MetricsReport(
        settling_time=settling_time(x_mean, SETTLING_BAND, dt),
        overshoot=over,
        chattering_index=chat,
        control_effort=effort,
        max_abs_u=max_u,
        max_slew=max_slew,
        lyap_violation_count=violations,
        lyap_epsilon_hat=eps_hat,
        sync_error_final=sync_final,
        steady_state_error=steady,
        diverged=ts.diverged or not (u_ok and v_ok),
        run_key=run_key,
    )


MATRIX_PROPERTIES = (
    "NoChattering",
    "ObserverFree",
    "BoundedInput",
    "DelayTolerant",
    "Smoothness",
)

CONTROLLER_ORDER = ("classical", "super-twisting", "adaptive", "observer-free")


@dataclass
class ComparisonMatrix:
    """Property table: rows are properties, columns controllers.

    Cells are True/False verdicts or None where a property was not
    evaluated (no delayed rerun, no declared input bound).
    """

    controllers: tuple[str, ...]
    cells: dict
    measured: dict

    def verdict(self, prop: str, controller: str):
        return self.cells[prop][controller]

    def _cell(self, prop: str, controller: str) -> tuple[str, float | None]:
        """The n/a, yes or no mark of one cell, and its measured value."""
        verdict = self.cells[prop][controller]
        mark = "n/a" if verdict is None else ("yes" if verdict else "no")
        return mark, self.measured[prop][controller]

    def to_text(self) -> str:
        width = max(len(p) for p in MATRIX_PROPERTIES) + 2
        cols = [f"{c:>16}" for c in self.controllers]
        lines = [" " * width + "".join(cols)]
        for prop in MATRIX_PROPERTIES:
            row = [f"{prop:<{width}}"]
            for c in self.controllers:
                mark, value = self._cell(prop, c)
                text = mark if value is None else f"{mark} ({value:.3g})"
                row.append(f"{text:>16}")
            lines.append("".join(row))
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["property,controller,verdict,measured"]
        for prop in MATRIX_PROPERTIES:
            for c in self.controllers:
                mark, value = self._cell(prop, c)
                rows.append(
                    f"{prop},{c},{mark},{'' if value is None else repr(value)}"
                )
        return rows


def _controller_sort_key(name: str):
    try:
        return (0, CONTROLLER_ORDER.index(name))
    except ValueError:
        return (1, name)


def comparison_matrix(
    reports: Mapping[str, MetricsReport],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    delayed: Mapping[str, MetricsReport] | None = None,
    input_bounds: Mapping[str, float | None] | None = None,
) -> ComparisonMatrix:
    """Boolean property table over controllers run on one shared scenario.

    ``delayed`` carries reports from tau = 10 ms reruns and feeds the
    DelayTolerant row; ``input_bounds`` maps controller names to their
    declared |u| bound (None = no a priori bound, row left informational).
    A diverged run is False on every measured row (NoChattering,
    BoundedInput, Smoothness), declared bound or not, and a diverged delayed
    rerun is False on DelayTolerant.
    """
    if len(reports) < 2:
        raise InvalidInputError("comparison needs at least two controllers")
    keys = {r.run_key for r in reports.values()}
    if len(keys) > 1:
        raise InvalidInputError(f"reports come from mismatched scenarios: {sorted(keys)}")
    delayed = delayed or {}
    input_bounds = input_bounds or {}

    controllers = tuple(sorted(reports, key=_controller_sort_key))
    cells = {prop: {} for prop in MATRIX_PROPERTIES}
    measured = {prop: {} for prop in MATRIX_PROPERTIES}

    for name in controllers:
        rep, drep, bound = reports[name], delayed.get(name), input_bounds.get(name)
        ok = not rep.diverged
        row = {   # property -> (verdict, measured)
            "NoChattering": (ok and rep.chattering_index < thresholds.chattering_max,
                             rep.chattering_index),
            "ObserverFree": (is_observer_free(name), None),
            "BoundedInput": (ok and (None if bound is None else rep.max_abs_u <= bound + 1e-12),
                             rep.max_abs_u),
            "DelayTolerant": (None, None) if drep is None else (
                not drep.diverged and drep.settling_time is not None, drep.settling_time),
            "Smoothness": (ok and rep.max_slew < thresholds.slew_max, rep.max_slew),
        }
        for prop in MATRIX_PROPERTIES:
            cells[prop][name], measured[prop][name] = row[prop]

    return ComparisonMatrix(controllers=controllers, cells=cells, measured=measured)
