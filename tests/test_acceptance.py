"""Acceptance gate: twelve numbered checks, one printed pass/fail line each.

Every check states its measured quantity next to the verdict so a failing
run can be triaged from the captured output alone.  Suite-level checks read
the session fixtures from conftest; single-run checks execute their own
scenario so the timing and determinism claims are measured fresh.
"""
import math
import time

import numpy as np

from smclab import metrics, scenarios, sim
from smclab.controllers import ObserverFreeParams, observer_free_control, tanh_fast


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {label}: {mark}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _builtin(name: str) -> scenarios.Scenario:
    return next(sc for sc in scenarios.builtin_suite() if sc.name == name)


def test_01_pendulum_stabilization_speed():
    sc = _builtin("fig1_pendulum_observer_free")
    t0 = time.perf_counter()
    ts = sim.simulate_run(sc)
    elapsed = time.perf_counter() - t0
    tail = np.abs(ts.x[ts.t >= 8.0, 0])
    worst = float(tail.max())
    _check(
        1, "pendulum stabilization", worst < 0.02 and elapsed < 1.0,
        f"max|x| on [8,10] = {worst:.3g}, runtime = {elapsed:.2f} s",
    )


def _written(out, name: str) -> sim.TimeSeries:
    return sim.TimeSeries.read_csv(out / f"{name}.csv")


def test_02_input_bound_never_violated(suite_serial):
    result, out, _ = suite_serial
    by_name = {sc.name: sc for sc in scenarios.builtin_suite()}
    checked = 0
    worst_margin = -math.inf
    for name in result.runs:
        sc = by_name[name]
        if set(sc.controller) != {"observer-free"}:
            continue
        ts = _written(out, name)
        lam = sc.controller_params[0].lam
        worst_margin = max(worst_margin, float(np.max(np.abs(ts.u))) - lam)
        checked += 1
    _check(
        2, "bounded input", checked == 8 and worst_margin <= 1e-12,
        f"{checked} runs, worst max|u| - lambda = {worst_margin:.3g}",
    )


def test_03_chattering_eliminated(suite_serial):
    result, _, _ = suite_serial
    smooth = result.runs["fig1_pendulum_observer_free"].chattering_index
    relay = result.runs["fig1_pendulum_classical"].chattering_index
    ratio = smooth / relay
    _check(3, "chattering elimination", ratio < 0.05, f"ratio = {ratio:.3g}")


def test_04_surface_identity_and_sign():
    rng = np.random.default_rng(2024)
    draws = rng.uniform(-50.0, 50.0, size=(100_000, 2))
    p = ObserverFreeParams(k1=1.0, lam=5.0)
    worst_ulps = 0.0
    signs_ok = True
    for x, v in draws:
        out = observer_free_control(x, v, 1.0, p)
        recomputed = out.alpha + p.lam * math.tanh(out.alpha)
        diff = abs(out.s - recomputed)
        if diff:
            worst_ulps = max(worst_ulps, diff / math.ulp(abs(out.s)))
        if (out.s > 0) != (out.alpha > 0) or (out.s < 0) != (out.alpha < 0):
            signs_ok = False
    _check(
        4, "surface identity", worst_ulps <= 2.0 and signs_ok,
        f"worst deviation = {worst_ulps:.3g} ulps over {len(draws)} draws",
    )


def test_05_lyapunov_descent(suite_serial):
    result, out, _ = suite_serial
    ts = _written(out, "fig1_pendulum_observer_free")
    report = result.runs["fig1_pendulum_observer_free"]
    v_final = float(ts.V[-1, 0])
    frac = report.lyap_violation_count / (ts.n_samples - 1)
    _check(
        5, "lyapunov descent", v_final < 1e-6 and frac < 0.01,
        f"V(10) = {v_final:.3g}, ascent fraction = {frac:.3g}",
    )


def test_06_noise_robustness(suite_serial):
    _, out, _ = suite_serial
    ts = _written(out, "fig6_vdp_noise")
    bounded = bool(np.all(np.isfinite(ts.x))) and not ts.diverged
    worst = float(np.max(np.abs(ts.x[ts.t >= 8.0, 0])))
    _check(
        6, "noise robustness", bounded and worst < 0.05,
        f"max|x| on [8,10] = {worst:.3g} under std 0.01 measurement noise",
    )


def test_07_disturbance_rejection(suite_serial):
    _, out, _ = suite_serial
    nominal = _written(out, "fig5_vdp_nominal")
    perturbed = _written(out, "fig7_vdp_disturbance")
    sup = float(np.max(np.abs(perturbed.x[:, 0] - nominal.x[:, 0])))
    _check(
        7, "disturbance rejection", sup < 0.1,
        f"sup|x_perturbed - x_nominal| = {sup:.3g}",
    )


def test_08_network_synchronization(suite_serial):
    result, out, _ = suite_serial
    ts = _written(out, "fig4_network5_observer_free")
    report = result.runs["fig4_network5_observer_free"]
    mean_final = abs(float(np.mean(ts.x[-1])))
    sync_final = report.sync_error_final
    _check(
        8, "network synchronization",
        mean_final < 0.02 and sync_final is not None and sync_final < 0.02,
        f"|mean x(10)| = {mean_final:.3g}, sync error = {sync_final:.3g}",
    )


def test_09_integrator_order():
    def decay(y, t):
        return -y

    errors = []
    for dt in (1e-2, 5e-3):
        y = np.array([1.0])
        steps = round(1.0 / dt)
        for k in range(steps):
            y = sim.rk4_step(decay, y, k * dt, dt)
        errors.append(abs(float(y[0]) - math.exp(-1.0)))
    ratio = errors[0] / errors[1]
    _check(
        9, "integrator order", 12.0 <= ratio <= 20.0,
        f"error ratio under dt halving = {ratio:.4g}",
    )


def test_10_determinism(tmp_path, suite_serial, suite_parallel):
    sc = _builtin("fig1_pendulum_observer_free")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.simulate_run(sc).write_csv(a)
    sim.simulate_run(sc).write_csv(b)
    repeat_ok = a.read_bytes() == b.read_bytes()

    _, out1, _ = suite_serial
    _, out4 = suite_parallel
    names1 = sorted(p.name for p in out1.iterdir())
    names4 = sorted(p.name for p in out4.iterdir())
    suite_ok = names1 == names4 and all(
        (out1 / n).read_bytes() == (out4 / n).read_bytes() for n in names1
    )
    _check(
        10, "determinism", repeat_ok and suite_ok,
        f"repeat run byte-identical = {repeat_ok}, "
        f"{len(names1)} suite files identical across parallelism = {suite_ok}",
    )


def test_11_comparison_matrix(suite_serial):
    result, _, _ = suite_serial
    matrix = result.matrices["pendulum"]
    of_all = all(
        matrix.verdict(prop, "observer-free") is True
        for prop in metrics.MATRIX_PROPERTIES
    )
    classical_chatters = matrix.verdict("NoChattering", "classical") is False
    _check(
        11, "comparison matrix", of_all and classical_chatters,
        "observer-free passes all five properties, classical fails NoChattering",
    )


def test_12_tanh_table_accuracy():
    grid = np.linspace(-6.0, 6.0, 100_001)
    worst = max(
        abs(tanh_fast(float(a), 1024) - math.tanh(float(a))) for a in grid
    )

    raw = _builtin("fig1_pendulum_observer_free").to_dict()
    raw["controller"]["tanh_table_size"] = 1024
    swapped = sim.simulate_run(scenarios.validate(raw))
    exact = sim.simulate_run(_builtin("fig1_pendulum_observer_free"))
    dt = exact.t[1] - exact.t[0]
    settle_exact = metrics.settling_time(exact.x[:, 0], 0.02, dt)
    settle_table = metrics.settling_time(swapped.x[:, 0], 0.02, dt)
    rel = abs(settle_table - settle_exact) / settle_exact
    _check(
        12, "tanh table accuracy", worst <= 1e-3 and rel < 0.01,
        f"max tanh error = {worst:.3g}, settling shift = {rel:.3g}",
    )
