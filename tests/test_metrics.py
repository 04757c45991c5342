"""Metric definitions on synthetic series plus frozen run regressions."""
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclab import metrics, scenarios, sim
from smclab.errors import InvalidInputError
from smclab.metrics import (
    DEFAULT_THRESHOLDS,
    MetricsReport,
    chattering_index,
    comparison_matrix,
    compute_report,
    lyapunov_stats,
    overshoot,
    settling_time,
    sync_error,
)

DT = 1e-3


def test_settling_time_all_zero():
    assert settling_time(np.zeros(100), 0.02, DT) == 0.0


def test_settling_time_enters_band_at_known_index():
    x = np.full(10001, 0.5)
    x[3200:] = 0.0
    assert settling_time(x, 0.02, DT) == 3.2


def test_settling_time_none_when_ending_outside():
    x = np.zeros(100)
    x[-1] = 1.0
    assert settling_time(x, 0.02, DT) is None


def test_settling_time_monotone_in_band():
    t = np.arange(0.0, 10.0, DT)
    x = 0.5 * np.exp(-t)
    wide = settling_time(x, 0.05, DT)
    narrow = settling_time(x, 0.01, DT)
    assert wide is not None and narrow is not None and wide <= narrow


def test_settling_time_input_validation():
    with pytest.raises(InvalidInputError):
        settling_time([], 0.02, DT)
    with pytest.raises(InvalidInputError):
        settling_time([1.0, 2.0], 0.0, DT)
    with pytest.raises(InvalidInputError):
        settling_time([1.0, np.nan], 0.02, DT)


def test_chattering_constant_signal():
    assert chattering_index(np.full(100, 3.3)) == 0.0


def test_chattering_alternating_signal():
    u = np.array([2.0, -2.0] * 5 + [2.0])  # 11 samples, 10 transitions of 4
    assert chattering_index(u) == 40.0


def test_chattering_of_smooth_monotone_curve():
    t = np.arange(0.0, 10.0 + DT / 2, DT)
    ci = chattering_index(np.tanh(t - 5.0))
    assert abs(ci - 2.0 * math.tanh(5.0)) < 1e-10


def test_chattering_single_sample_rejected():
    with pytest.raises(InvalidInputError):
        chattering_index([1.0])


def test_chattering_invariances():
    rng = np.random.default_rng(23)
    u = rng.normal(0.0, 1.0, 500)
    base = chattering_index(u)
    assert chattering_index(-u) == base  # sign flip is exact
    assert abs(chattering_index(u + 10.0) - base) < 1e-9 * max(base, 1.0)


def test_chattering_monotone_equals_range():
    u = np.arange(100) * 0.25  # dyadic steps, no rounding anywhere
    assert chattering_index(u) == u[-1] - u[0]


def test_overshoot_monotone_decay():
    assert overshoot(np.linspace(0.5, 0.0, 100)) == 0.0


def test_overshoot_ten_percent_dip():
    x = np.concatenate([np.linspace(0.5, -0.05, 60), np.full(40, -0.01)])
    assert abs(overshoot(x) - 0.1) < 1e-14


def test_overshoot_from_below():
    x = np.concatenate([np.linspace(-0.5, 0.05, 60), np.full(40, 0.0)])
    assert abs(overshoot(x) - 0.1) < 1e-14


def test_overshoot_undefined_at_target():
    with pytest.raises(InvalidInputError):
        overshoot(np.zeros(10), target=0.0)


def test_lyapunov_stats_strict_descent():
    v = np.linspace(1.0, 0.0, 100)
    s = np.ones(100)
    violations, eps = lyapunov_stats(v, s, DT)
    assert violations == 0
    assert eps is not None and eps > 0


def test_lyapunov_stats_on_surface():
    violations, eps = lyapunov_stats(np.zeros(50), np.zeros(50), DT)
    assert violations == 0
    assert eps is None


def test_lyapunov_stats_counts_rises():
    v = np.array([1.0, 0.5, 0.5 + 2e-9, 0.2])
    s = np.ones(4)
    violations, _ = lyapunov_stats(v, s, DT)
    assert violations == 1
    # sub-tolerance wiggle is not a violation
    v2 = np.array([1.0, 0.5, 0.5 + 5e-10, 0.2])
    assert lyapunov_stats(v2, s, DT)[0] == 0


def test_lyapunov_stats_eps_needs_active_surface():
    v = np.array([1.0, 0.9, 0.8])
    s = np.full(3, 1e-4)  # s^2 = 1e-8, below the floor
    violations, eps = lyapunov_stats(v, s, DT)
    assert eps is None


def test_lyapunov_stats_input_validation():
    with pytest.raises(InvalidInputError):
        lyapunov_stats(np.ones(5), np.ones(4), DT)
    with pytest.raises(InvalidInputError):
        lyapunov_stats(np.ones(5), np.ones(5), 0.0)


def test_lyapunov_stats_on_one_sample_has_no_steps():
    assert lyapunov_stats(np.ones(1), np.ones(1), DT) == (0, None)


@pytest.mark.parametrize("dt", [0.0, -DT, math.nan])
def test_settling_time_rejects_a_step_that_is_not_positive(dt):
    with pytest.raises(InvalidInputError, match="dt must be > 0"):
        settling_time(np.zeros(10), 0.02, dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sync_error_rejects_non_finite_input(bad):
    x = np.zeros((4, 2))
    x[2, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        sync_error(x)


def test_a_law_outside_the_order_sorts_after_it_by_name():
    laws = ["zeta", "observer-free", "alpha", "classical"]
    assert sorted(laws, key=metrics._controller_sort_key) == [
        "classical", "observer-free", "alpha", "zeta"]


def test_sync_error_identical_nodes():
    # identical columns agree to within mean-rounding slack (one ulp each)
    x = np.tile(np.linspace(1.0, 0.0, 50)[:, None], (1, 5))
    series, final = sync_error(x)
    assert float(np.max(series)) < 1e-12
    assert final < 1e-12


def test_sync_error_two_constant_nodes():
    x = np.column_stack([np.zeros(20), np.ones(20)])
    series, final = sync_error(x)
    assert np.array_equal(series, np.full(20, 0.5))
    assert final == 0.5


def test_sync_error_zero_iff_identical():
    x = np.tile(np.linspace(1.0, 0.0, 50)[:, None], (1, 3))
    x[17, 2] += 1e-6
    series, _ = sync_error(x)
    assert series[17] > 0.0
    assert series[16] == 0.0


def test_sync_error_needs_two_nodes():
    with pytest.raises(InvalidInputError):
        sync_error(np.zeros((10, 1)))
    with pytest.raises(InvalidInputError):
        sync_error(np.zeros(10))


def test_default_thresholds_frozen():
    th = DEFAULT_THRESHOLDS
    assert th.version == 1
    assert metrics.SETTLING_BAND == 0.02
    assert th.chattering_max == 10.0
    assert th.slew_max == 1e3


def _report(**over):
    base = dict(
        settling_time=1.0, overshoot=0.0, chattering_index=0.5,
        control_effort=1.0, max_abs_u=2.0, max_slew=10.0,
        lyap_violation_count=0, lyap_epsilon_hat=0.5,
        sync_error_final=None, steady_state_error=0.0,
        diverged=False, run_key="shared",
    )
    base.update(over)
    return MetricsReport(**base)


def test_comparison_matrix_verdicts():
    reports = {
        "classical": _report(chattering_index=500.0, max_slew=1e4),
        "observer-free": _report(),
    }
    delayed = {"observer-free": _report(settling_time=3.6)}
    bounds = {"observer-free": 5.0}
    m = comparison_matrix(reports, delayed=delayed, input_bounds=bounds)
    assert m.verdict("NoChattering", "classical") is False
    assert m.verdict("NoChattering", "observer-free") is True
    assert m.verdict("Smoothness", "classical") is False
    assert m.verdict("Smoothness", "observer-free") is True
    assert m.verdict("ObserverFree", "classical") is True
    assert m.verdict("ObserverFree", "observer-free") is True
    assert m.verdict("BoundedInput", "observer-free") is True
    assert m.verdict("BoundedInput", "classical") is None  # no declared bound
    assert m.verdict("DelayTolerant", "observer-free") is True
    assert m.verdict("DelayTolerant", "classical") is None  # no delayed rerun
    assert m.controllers == ("classical", "observer-free")


def test_comparison_matrix_delay_failure_is_false():
    reports = {"classical": _report(), "observer-free": _report()}
    delayed = {"classical": _report(settling_time=None)}
    m = comparison_matrix(reports, delayed=delayed)
    assert m.verdict("DelayTolerant", "classical") is False


def test_comparison_matrix_diverged_run_never_earns_yes():
    # the measured numbers of a diverged run would pass every threshold
    reports = {
        "adaptive": _report(diverged=True),
        "observer-free": _report(diverged=True),
        "super-twisting": _report(),
    }
    delayed = {"observer-free": _report(diverged=True),
               "super-twisting": _report()}
    m = comparison_matrix(reports, delayed=delayed,
                          input_bounds={"adaptive": 50.0, "observer-free": 5.0})
    for name in ("adaptive", "observer-free"):
        for prop in ("NoChattering", "BoundedInput", "Smoothness"):
            assert m.verdict(prop, name) is False, (prop, name)
    assert m.verdict("DelayTolerant", "observer-free") is False
    assert m.verdict("DelayTolerant", "super-twisting") is True
    assert m.verdict("NoChattering", "super-twisting") is True
    # structural, not measured
    assert m.verdict("ObserverFree", "observer-free") is True
    assert m.verdict("ObserverFree", "adaptive") is False


def test_comparison_matrix_requires_two_controllers():
    with pytest.raises(InvalidInputError):
        comparison_matrix({"observer-free": _report()})


def test_comparison_matrix_rejects_mixed_scenarios():
    reports = {
        "classical": _report(run_key="a"),
        "observer-free": _report(run_key="b"),
    }
    with pytest.raises(InvalidInputError, match="mismatched"):
        comparison_matrix(reports)


def test_comparison_matrix_is_deterministic():
    reports = {
        "adaptive": _report(chattering_index=2.0),
        "super-twisting": _report(chattering_index=50.0),
    }
    a = comparison_matrix(reports)
    b = comparison_matrix(reports)
    assert a.cells == b.cells and a.measured == b.measured
    assert a.to_text() == b.to_text()


def test_matrix_text_and_csv_forms():
    reports = {"classical": _report(chattering_index=500.0), "observer-free": _report()}
    m = comparison_matrix(reports, input_bounds={"observer-free": 5.0})
    text = m.to_text()
    assert "NoChattering" in text and "yes" in text and "no" in text
    rows = m.csv_rows()
    assert rows[0] == "property,controller,verdict,measured"
    assert any(row.startswith("NoChattering,classical,no,") for row in rows)


_LAWS = ("classical", "super-twisting", "adaptive", "observer-free", "none")
_VALUES = st.floats(0.0, 2e3)   # straddles chattering_max and slew_max


@st.composite
def _matrix_case(draw):
    """2-4 laws, each with a report (diverged or not), a delayed report
    (absent, diverged, unsettled or settled) and a declared bound or None."""
    laws = draw(st.lists(st.sampled_from(_LAWS), min_size=2, max_size=4, unique=True))
    reports, delayed, bounds = {}, {}, {}
    for law in laws:
        diverged = draw(st.booleans())
        # compute_report leaves the control metrics None when u overflows
        overflow = diverged and draw(st.booleans())
        control = {k: None if overflow else draw(_VALUES) for k in
                   ("chattering_index", "control_effort", "max_abs_u", "max_slew")}
        reports[law] = _report(diverged=diverged, **control)
        u = control["max_abs_u"]
        # on both sides of the 1e-12 tolerance, or anywhere
        edge = st.nothing() if u is None else st.sampled_from([u - 2e-12, u - 5e-13])
        bounds[law] = draw(st.none() | _VALUES | edge)
        kind = draw(st.sampled_from(["absent", "diverged", "unsettled", "settled"]))
        if kind != "absent":
            settling = None if kind == "unsettled" else draw(_VALUES)
            delayed[law] = _report(diverged=kind == "diverged", settling_time=settling)
    return reports, delayed, bounds


@settings(deadline=None, max_examples=200)
@given(case=_matrix_case())
def test_property_matrix_cells_follow_the_row_rules(case):
    reports, delayed, bounds = case
    m = comparison_matrix(reports, delayed=delayed, input_bounds=bounds)
    assert set(m.controllers) == set(reports)
    th = DEFAULT_THRESHOLDS
    for law, rep in reports.items():
        drep, bound, ok = delayed.get(law), bounds[law], not rep.diverged
        want = {   # a diverged run is "no" on every measured row, bound or not
            "NoChattering": (ok and rep.chattering_index < th.chattering_max,
                             rep.chattering_index),
            "ObserverFree": (law in ("classical", "observer-free", "none"), None),
            "BoundedInput": (False if not ok else None if bound is None
                             else rep.max_abs_u <= bound + 1e-12, rep.max_abs_u),
            "DelayTolerant": (None, None) if drep is None else (
                not drep.diverged and drep.settling_time is not None,
                drep.settling_time),
            "Smoothness": (ok and rep.max_slew < th.slew_max, rep.max_slew),
        }
        for prop, (verdict, value) in want.items():
            assert m.verdict(prop, law) is verdict, (prop, law)
            assert m.measured[prop][law] == value, (prop, law)
    rows = m.csv_rows()
    assert rows[0] == "property,controller,verdict,measured"
    cells = [(p, c) for p in metrics.MATRIX_PROPERTIES for c in m.controllers]
    assert len(rows) == 1 + len(cells)
    marks = {None: "n/a", True: "yes", False: "no"}
    for row, (prop, law) in zip(rows[1:], cells):
        value = m.measured[prop][law]
        assert row.split(",") == [prop, law, marks[m.cells[prop][law]],
                                  "" if value is None else repr(value)]


def test_report_serialization_forms():
    rep = _report(settling_time=None, lyap_epsilon_hat=None)
    text = rep.to_kv_text()
    assert "settling_time=none" in text
    assert "diverged=false" in text
    assert text.startswith("# settling_time:")  # formula header present
    assert MetricsReport.csv_header().startswith("settling_time,")
    assert rep.csv_row().split(",")[0] == "none"


def test_report_csv_header_is_the_field_order():
    assert MetricsReport.csv_header() == (
        "settling_time,overshoot,chattering_index,control_effort,max_abs_u,"
        "max_slew,lyap_violation_count,lyap_epsilon_hat,sync_error_final,"
        "steady_state_error,diverged"
    )


# ------------------------------------------------- frozen run regressions

def test_pendulum_reports_regression(suite_serial):
    result, _, _ = suite_serial
    of = result.runs["fig1_pendulum_observer_free"]
    cl = result.runs["fig1_pendulum_classical"]

    assert of.settling_time == 3.601
    assert abs(of.chattering_index - 2.310579282751734) < 1e-9
    assert of.lyap_violation_count == 0
    assert abs(of.lyap_epsilon_hat - 0.9630722539842637) < 1e-9
    assert of.overshoot == 0.0
    assert of.max_abs_u <= 5.0

    assert cl.settling_time == 3.233
    assert cl.chattering_index == 71150.0
    assert cl.max_slew == 10000.0
    assert cl.overshoot == 0.0
    assert cl.max_abs_u == 5.0


def test_record_stride_keeps_full_rate_metrics(suite_serial):
    result, _, _ = suite_serial
    full = result.runs["fig1_pendulum_classical"]
    raw = {sc.name: sc for sc in scenarios.builtin_suite()}["fig1_pendulum_classical"].to_dict()
    raw["sim"]["record_stride"] = 10
    strided = compute_report(sim.simulate_run(scenarios.validate(raw)))
    assert strided.chattering_index == full.chattering_index
    assert strided.max_slew == full.max_slew


def _stride_outcome(raw, stride):
    """(report row, failure, CSV lines, diverged_at) of ``scenarios.run``."""
    raw = dict(raw, sim=dict(raw["sim"], record_stride=stride))
    ts, report, why = scenarios.run(scenarios.validate(raw))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        ts.write_csv(path)
        lines = path.read_text().splitlines()
    return report and report.csv_row(), why, lines, ts.diverged_at


def _assert_stride_independent(raw, stride):
    row, why, lines, diverged_at = _stride_outcome(raw, stride)
    full_row, full_why, full_lines, full_diverged_at = _stride_outcome(raw, 1)
    assert (row, why) == (full_row, full_why)
    body = 1 + full_lines[0].startswith("#")     # the divergence comment, the header
    assert lines == full_lines[:body] + full_lines[body::stride]
    assert diverged_at == full_diverged_at
    return diverged_at


@st.composite
def _strided_run(draw):
    """A short run of any plant and law, optionally noisy and delayed."""
    law = draw(st.sampled_from(metrics.CONTROLLER_ORDER + ("none",)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        plant = {"name": "network5", "n": n,
                 "topology": draw(st.sampled_from(["ring", "chain"]))}
    else:
        n, plant = 1, {"name": draw(st.sampled_from(["pendulum", "vdp", "duffing"]))}
    raw = {
        "name": "strided",
        "plant": plant,
        "controller": {"name": law},
        "x0": draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)),
        "sim": {"dt": 1e-3, "t_final": draw(st.floats(0.005, 0.06)),
                "seed": draw(st.integers(0, 2 ** 32))},
    }
    if draw(st.booleans()):
        raw["noise"] = {"std_x": draw(st.floats(0.0, 0.05)),
                        "std_v": draw(st.floats(0.0, 0.05))}
    if draw(st.booleans()):
        raw["delay"] = {"tau": draw(st.floats(0.0, 0.02))}
    return raw, draw(st.integers(2, 12))


@settings(deadline=None, max_examples=40)
@given(case=_strided_run())
def test_property_record_stride_thins_only_the_written_series(case):
    _assert_stride_independent(*case)


def test_record_stride_keeps_divergence_time():
    raw = {
        "name": "blowup",
        "plant": {"name": "duffing", "lin": 5.0, "cub": 1.0, "delta": 0.0},
        "controller": {"name": "none"},
        "x0": [1.0, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0},
    }
    assert math.isclose(_assert_stride_independent(raw, 7), 1.087, abs_tol=1e-9)


def test_network_report_regression(suite_serial):
    result, _, _ = suite_serial
    net = result.runs["fig4_network5_observer_free"]
    assert net.sync_error_final is not None
    assert abs(net.sync_error_final - 7.687003811129052e-07) < 1e-12
    assert net.settling_time is not None


def test_compute_report_aggregates_nodes(suite_serial):
    result, out, _ = suite_serial
    ts = sim.TimeSeries.read_csv(out / "fig4_network5_observer_free.csv")
    rep = result.runs["fig4_network5_observer_free"]
    assert rep.control_effort > 0
    # worst node slew, not the mean
    slews = np.abs(np.diff(ts.u, axis=0)) / (ts.t[1] - ts.t[0])
    assert rep.max_slew == float(slews.max())


def test_compute_report_needs_two_samples():
    class Stub:
        n_samples = 1

    with pytest.raises(InvalidInputError):
        compute_report(Stub())


def test_compute_report_treats_overflow_as_divergence():
    suite = {sc.name: sc for sc in scenarios.builtin_suite()}
    raw = suite["fig1_pendulum_observer_free"].to_dict()
    raw["controller"]["k1"] = 1e200     # finite state and u, V = inf
    raw["sim"]["t_final"] = 0.01
    ts = sim.simulate_run(scenarios.validate(raw))
    assert not ts.diverged and np.isinf(ts.V).all()
    # an s^2 that overflows while V = s^2 / 2 stays finite, on the same run
    near = sim.TimeSeries(ts.table.copy())
    near.s[:] = 1.5e154
    near.V[:] = 0.5 * 1.5e154 * 1.5e154
    assert np.isfinite(near.V).all()
    # a diverging run whose last recorded u, applied after a 10 ms delay,
    # is -inf
    raw = suite["fig1_pendulum_super_twisting"].to_dict()
    raw["controller"]["k1st"] = 1e308
    raw.update(x0=[5.0, 0.0], delay={"tau": 0.01})
    raw["sim"]["t_final"] = 0.1
    blowup = sim.simulate_run(scenarios.validate(raw))
    assert blowup.diverged and blowup.n_samples == 11 and np.isinf(blowup.u[-1, 0])

    lyapunov = ("lyap_violation_count", "lyap_epsilon_hat")
    control = ("chattering_index", "control_effort", "max_abs_u", "max_slew")
    for series, undefined in ((ts, lyapunov), (near, lyapunov), (blowup, control)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = compute_report(series, run_key="k")
        assert rep.diverged
        assert [getattr(rep, name) for name in undefined] == [None] * len(undefined)
        m = comparison_matrix({"observer-free": rep, "classical": _report(run_key="k")},
                              input_bounds={"observer-free": 5.0})
        for prop in ("NoChattering", "BoundedInput", "Smoothness"):
            assert m.verdict(prop, "observer-free") is False, prop
    assert compute_report(ts).max_abs_u == 5.0
    assert compute_report(blowup).lyap_violation_count is not None
