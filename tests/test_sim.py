"""Integrator, noise, delay, derivative estimation, and the run loop."""
import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smclab import controllers, scenarios, sim
from smclab.errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
)
from smclab.sim import (
    DelayLine,
    DisturbanceSpec,
    LowPassDifferentiator,
    NoiseConfig,
    NoiseStreams,
    SimConfig,
    TimeSeries,
    apply_noise,
    eval_disturbance,
    rk4_step,
    simulate_run,
)


def _pendulum_raw(**over):
    raw = {
        "name": "probe",
        "plant": {"name": "pendulum"},
        "controller": {"name": "observer-free", "k1": 1.0, "lambda": 5.0},
        "x0": [0.5, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0, "seed": 42},
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------- rk4_step

def test_rk4_zero_derivative_keeps_state():
    state = np.array([1.5, -2.0])
    out = rk4_step(lambda y, t: np.zeros_like(y), state, 0.0, 0.1)
    assert np.array_equal(out, state)


def test_rk4_constant_unit_derivative_is_exact():
    out = rk4_step(lambda y, t: np.ones_like(y), np.array([1.0]), 0.0, 0.1)
    assert out[0] == 1.1


def test_rk4_exponential_step():
    out = rk4_step(lambda y, t: -y, np.array([1.0]), 0.0, 0.1)
    assert abs(out[0] - math.exp(-0.1)) <= 1e-7
    assert repr(float(out[0])) == "0.9048375"

    # the two-float (one-node) branch gives each component the bits of the
    # one-element list path
    def neg(y, t):
        return [-a for a in y]

    pair = rk4_step(neg, [1.0, 2.0], 0.0, 0.1)
    singles = [rk4_step(neg, [a], 0.0, 0.1)[0] for a in (1.0, 2.0)]
    assert pair.tobytes() == np.array(singles).tobytes()

    # and, with coupled components and a time-dependent derivative, the bits
    # of the list path on the same state padded to three entries
    def pendulum(y, t):
        return [y[1], -math.sin(y[0]) - 0.3 * y[1] + math.cos(t)] + [0.0] * (len(y) - 2)

    for state in ([0.5, -0.2], [-3.0, 7.5], [1e-300, -0.0]):
        two = rk4_step(pendulum, state, 0.3, 0.01)
        three = rk4_step(pendulum, state + [0.0], 0.3, 0.01)
        assert two.tobytes() == three[:2].tobytes()


def test_rk4_fourth_order_convergence():
    def global_error(dt):
        y, t = np.array([1.0]), 0.0
        for _ in range(round(1.0 / dt)):
            y = rk4_step(lambda yy, tt: -yy, y, t, dt)
            t += dt
        return abs(float(y[0]) - math.exp(-1.0))

    ratio = global_error(1e-2) / global_error(5e-3)
    assert 12.0 <= ratio <= 20.0
    assert abs(ratio - 16.0) < 1.0  # theoretical order 4


def test_rk4_rejects_bad_dt_and_flags_divergence():
    with pytest.raises(InvalidInputError):
        rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.0)
    with pytest.raises(DivergenceError) as err:
        rk4_step(lambda y, t: np.array([np.inf]), np.array([1.0]), 0.5, 0.1)
    assert err.value.t == 0.5
    for state in ([1.0, 2.0], np.array([1.0, 2.0])):
        with pytest.raises(DivergenceError) as err:
            rk4_step(lambda y, t: [math.inf, 0.0], state, 0.75, 0.1)
        assert err.value.t == 0.75
        out = rk4_step(lambda y, t: [1.0, -1.0], state, 0.75, 0.1)
        assert type(out) is np.ndarray and out.shape == (2,)


# ------------------------------------------------------- disturbance, noise

def test_eval_disturbance():
    spec = DisturbanceSpec(kind="sinusoid", amplitude=0.2, angular_frequency=5.0)
    assert eval_disturbance(spec, 0.0) == 0.0
    assert abs(eval_disturbance(spec, math.pi / 10) - 0.2) < 1e-15
    assert eval_disturbance(DisturbanceSpec(), 123.0) == 0.0


def test_apply_noise_zero_std_passthrough():
    streams = NoiseStreams(1, 1)
    state = np.array([0.3, -0.7])
    measured = apply_noise(state, NoiseConfig(), streams)
    assert np.array_equal(measured, state)
    measured[0] = 99.0  # a copy, never the true state
    assert state[0] == 0.3


def test_apply_noise_deterministic_per_seed():
    cfg = NoiseConfig(std_x=0.01, std_v=0.02)
    a = [apply_noise(np.zeros(2), cfg, NoiseStreams(7, 1)) for _ in range(50)]
    b = [apply_noise(np.zeros(2), cfg, NoiseStreams(7, 1)) for _ in range(50)]
    # same seed, same call sequence
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_apply_noise_empirical_std():
    streams = NoiseStreams(42, 1)
    cfg = NoiseConfig(std_x=0.01)
    draws = np.array(
        [apply_noise(np.zeros(2), cfg, streams)[0] for _ in range(100_000)]
    )
    assert 0.0098 <= float(draws.std()) <= 0.0102


def test_noise_rows_equal_scalar_draws_across_blocks():
    n, steps = 3, 2 * sim.NOISE_BLOCK + 7
    streams = NoiseStreams(5, n)
    fresh_x = [np.random.default_rng([5, i, 0]) for i in range(n)]
    fresh_v = [np.random.default_rng([5, i, 1]) for i in range(n)]
    for _ in range(steps):
        measured = apply_noise(np.zeros(2 * n), NoiseConfig(std_x=1.0), streams)
        assert measured[0::2] == [g.standard_normal() for g in fresh_x]
        assert not any(measured[1::2])
    # the velocity channel had std 0 and consumed no draws
    measured = apply_noise(np.zeros(2 * n), NoiseConfig(std_v=1.0), streams)
    assert measured[1::2] == [g.standard_normal() for g in fresh_v]


def test_noise_streams_stable_under_node_growth():
    # adding nodes must not reshuffle the draws of existing ones
    one = NoiseStreams(42, 1).x[0].standard_normal(10)
    three = NoiseStreams(42, 3).x[0].standard_normal(10)
    assert np.array_equal(one, three)


# ------------------------------------------------------------------ delay

def test_delay_line_depth_and_fifo():
    line = DelayLine(0.01, 1e-3)
    assert line.n == 10  # ceil(0.01/0.001) without float quotient drift
    outs = [line.push(float(k + 1)) for k in range(15)]
    assert outs[:10] == [0.0] * 10
    assert outs[10:] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_vector_delay_line_matches_scalar_lines():
    pushes = np.random.default_rng(0).standard_normal((20, 4))
    line = DelayLine(0.005, 1e-3)
    scalar_lines = [DelayLine(0.005, 1e-3) for _ in range(4)]
    for row in pushes:
        out = np.broadcast_to(line.push(row.copy()), (4,))
        ref = [each.push(float(u)) for each, u in zip(scalar_lines, row)]
        assert out.tolist() == ref


def test_delay_longer_than_the_run_holds_only_its_pushes():
    # ceil(tau / dt) = 1e6 slots would take 8 MB if allocated up front
    sc = scenarios.validate(_pendulum_raw(delay={"tau": 1e3},
                                          sim={"dt": 1e-3, "t_final": 0.01}))
    tracemalloc.start()
    try:
        ts = simulate_run(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert ts.n_samples == 11 and not ts.u.any()


def test_delay_line_zero_tau_passthrough():
    line = DelayLine(0.0, 1e-3)
    assert line.n == 0
    assert line.push(3.5) == 3.5
    for bad in (-1e-3, math.nan):
        with pytest.raises(ConfigError):
            DelayLine(bad, 1e-3)
    # a zero, negative or nan step would divide by zero, build a FIFO of
    # negative depth that never pops, or fail to round
    for bad_dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ConfigError, match=r"^dt must be > 0$"):
            DelayLine(0.01, bad_dt)


# ------------------------------------------------- derivative estimation

def test_estimate_derivative_constant_history():
    filt = LowPassDifferentiator(20.0, 1e-3)
    assert [filt.update([2.0]) for _ in range(50)] == [[0.0]] * 50


def test_estimate_derivative_ramp():
    dt, cutoff = 1e-3, 20.0
    t = np.arange(0.0, 10.0 + dt / 2, dt)
    filt = LowPassDifferentiator(cutoff, dt)
    settle = 5.0 / (2.0 * math.pi * cutoff)
    worst = 0.0
    for tk in t:
        (y,) = filt.update([3.0 * tk])
        if tk > settle:
            worst = max(worst, abs(y - 3.0) / 3.0)
    assert worst < 0.01


def test_estimate_derivative_noisy_sine():
    # sin(t) + N(0, 0.01) at 1 kHz through the 20 Hz filter.  The raw
    # backward difference amplifies the noise to tens of units; the filter
    # squeezes that by more than a factor of ten.  Bounds frozen from this
    # seeded run.
    dt, cutoff = 1e-3, 20.0
    t = np.arange(0.0, 10.0 + dt / 2, dt)
    x = np.sin(t) + np.random.default_rng(7).normal(0.0, 0.01, t.size)
    filt = LowPassDifferentiator(cutoff, dt)
    est = np.array([filt.update([float(v)])[0] for v in x])
    mask = t >= 1.0
    err_filtered = float(np.abs(est[mask] - np.cos(t[mask])).max())
    raw = np.empty_like(x)
    raw[0] = 0.0
    raw[1:] = np.diff(x) / dt
    err_raw = float(np.abs(raw[mask] - np.cos(t[mask])).max())
    assert err_raw > 50.0
    assert err_filtered < 4.6
    assert err_filtered < err_raw / 10.0


def test_vector_differentiator_matches_scalar_filters():
    # negative first samples: the first output is +0.0, not -0.0
    xs = np.random.default_rng(1).standard_normal((50, 4)) - 2.0
    filt = LowPassDifferentiator(20.0, 1e-3)
    scalar_filters = [LowPassDifferentiator(20.0, 1e-3) for _ in range(4)]
    outs = [filt.update(row) for row in xs]
    refs = [[f.update([float(x)])[0] for f, x in zip(scalar_filters, row)] for row in xs]
    # stacked only at the end, so an output changed by a later update shows
    assert np.array(outs).tobytes() == np.array(refs, dtype=float).tobytes()
    assert not np.signbit(outs[0]).any()


def test_low_pass_differentiator_rejects_bad_cutoff():
    with pytest.raises(ConfigError):
        LowPassDifferentiator(0.0, 1e-3)
    # a zero step divides by zero at the second update, a negative one
    # flips the coefficient's sign and a nan one makes every output nan
    for bad_dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ConfigError, match=r"^dt must be > 0"):
            LowPassDifferentiator(20.0, bad_dt)
    # 2 pi cutoff dt overflows to inf, and inf / (inf + 1) is nan
    with pytest.raises(ConfigError, match=r"^2 pi cutoff dt must be finite$"):
        LowPassDifferentiator(1e308, 1.0)


# -------------------------------------------------------------- run loop

def test_simulate_two_sample_boundary():
    raw = _pendulum_raw(sim={"dt": 1e-3, "t_final": 1e-3})
    ts = simulate_run(scenarios.validate(raw))
    assert ts.n_samples == 2
    assert np.array_equal(ts.t, [0.0, 1e-3])


def test_simulate_is_deterministic():
    sc = scenarios.validate(_pendulum_raw(noise={"std_x": 0.01, "std_v": 0.01}))
    a = simulate_run(sc)
    b = simulate_run(sc)
    for field in ("t", "x", "v", "u", "alpha", "beta", "s", "V", "d"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_simulate_seed_irrelevant_without_noise():
    a = simulate_run(scenarios.validate(_pendulum_raw()))
    b = simulate_run(
        scenarios.validate(_pendulum_raw(sim={"dt": 1e-3, "t_final": 10.0, "seed": 7}))
    )
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)


def test_simulate_explicit_zero_delay_identical():
    a = simulate_run(scenarios.validate(_pendulum_raw()))
    b = simulate_run(scenarios.validate(_pendulum_raw(delay={"tau": 0.0})))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)


def test_recorded_u_is_the_applied_control():
    # with g = 1 the recorded beta equals the freshly computed control, so
    # a tau of 10 steps must reappear as a shift between beta and u
    sc = scenarios.validate(_pendulum_raw(delay={"tau": 0.01}))
    ts = simulate_run(sc)
    assert np.array_equal(ts.u[:10, 0], np.zeros(10))
    assert np.array_equal(ts.u[10:, 0], ts.beta[:-10, 0])

    nodelay = simulate_run(scenarios.validate(_pendulum_raw()))
    assert np.array_equal(nodelay.u, nodelay.beta)


def test_noise_never_touches_true_state():
    base = {
        "name": "open_loop",
        "plant": {"name": "pendulum"},
        "controller": {"name": "none"},
        "x0": [0.5, 0.0],
        "sim": {"dt": 1e-3, "t_final": 2.0},
    }
    quiet = simulate_run(scenarios.validate(dict(base)))
    noisy = simulate_run(
        scenarios.validate(dict(base, noise={"std_x": 0.5, "std_v": 0.5}))
    )
    assert np.array_equal(quiet.x, noisy.x)
    assert np.array_equal(quiet.v, noisy.v)
    assert not noisy.u.any()


def test_velocity_estimation_path_still_stabilizes():
    raw = _pendulum_raw(estimate_velocity=True, velocity_filter_cutoff_hz=40.0)
    ts = simulate_run(scenarios.validate(raw))
    assert not ts.diverged
    assert abs(float(ts.x[-1, 0])) < 0.05


def test_velocity_estimation_draws_no_velocity_noise(monkeypatch):
    # the estimate replaces the measured v, so std_v changes nothing and
    # no velocity stream is ever built
    def unread(self):
        raise AssertionError("velocity noise drawn under estimate_velocity")

    monkeypatch.setattr(NoiseStreams, "v", property(unread))
    base = _pendulum_raw(estimate_velocity=True,
                         sim={"dt": 1e-3, "t_final": 1.0, "seed": 3})
    quiet = simulate_run(scenarios.validate(dict(base, noise={"std_x": 0.01})))
    noisy = simulate_run(
        scenarios.validate(dict(base, noise={"std_x": 0.01, "std_v": 0.5}))
    )
    assert np.array_equal(quiet.table, noisy.table)


def test_record_stride_downsamples():
    raw = _pendulum_raw(sim={"dt": 1e-3, "t_final": 10.0, "record_stride": 10})
    sc = scenarios.validate(raw)
    ts = scenarios.run(sc)[0]
    assert ts.n_samples == 1001
    assert abs(float(ts.t[1]) - 0.01) < 1e-15
    assert np.array_equal(ts.table, simulate_run(sc).table[::10])


def test_divergence_flagged_with_partial_series():
    raw = {
        "name": "blowup",
        "plant": {"name": "duffing", "lin": 5.0, "cub": 1.0, "delta": 0.0},
        "controller": {"name": "none"},
        "x0": [1.0, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0},
    }
    ts = simulate_run(scenarios.validate(raw))
    assert ts.diverged
    assert math.isclose(ts.diverged_at, 1.087, abs_tol=1e-9)
    assert ts.n_samples == 1087
    assert np.all(np.isfinite(ts.x))


def test_non_finite_step_reports_time_of_rejected_state():
    # the first RK4 stage overflows, so the first step is rejected
    raw = {
        "name": "overflow",
        "plant": {"name": "duffing", "lin": 0.0, "cub": 1e300},
        "controller": {"name": "none"},
        "x0": [10.0, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0},
    }
    with np.errstate(over="ignore", invalid="ignore"):
        ts = simulate_run(scenarios.validate(raw))
    assert ts.diverged
    assert ts.n_samples == 1
    assert ts.diverged_at == ts.n_samples * 1e-3 == 1e-3


# ------------------------------------- vectorized step vs per-node loop

def _reference_run(scenario) -> TimeSeries:
    """The per-node run loop that the vectorized step replaced.

    Noise is one scalar draw per stream and step; every node has its own
    scalar FIFO and low-pass differentiator, written inline.
    """
    plant = scenario.make_plant()
    n = plant.n_nodes
    cfg = scenario.sim
    dt, n_steps, stride = cfg.dt, cfg.n_steps, cfg.record_stride
    ctrls = [controllers.Controller(name, p)
             for name, p in zip(scenario.controller, scenario.controller_params)]
    noise_x = [np.random.default_rng([cfg.seed, i, 0]) for i in range(n)]
    noise_v = [np.random.default_rng([cfg.seed, i, 1]) for i in range(n)]
    depth = math.ceil(round(scenario.delay.tau / dt, 9))
    fifo = [[0.0] * depth for _ in range(n)]
    head = 0
    r = 2.0 * math.pi * scenario.velocity_filter_cutoff_hz * dt
    a = r / (r + 1.0)
    prev = [None] * n
    est = [0.0] * n

    state = np.asarray(scenario.x0, dtype=float)
    rows = []
    for k in range(n_steps + 1):
        t = k * dt
        measured = np.array(state, dtype=float)
        for i in range(n):
            if scenario.noise.std_x > 0.0:
                measured[2 * i] += scenario.noise.std_x * noise_x[i].standard_normal()
            if scenario.noise.std_v > 0.0:
                measured[2 * i + 1] += scenario.noise.std_v * noise_v[i].standard_normal()
        xm = [float(x) for x in measured[0::2]]
        vm = [float(v) for v in measured[1::2]]
        if scenario.estimate_velocity:
            for i in range(n):
                if prev[i] is not None:
                    est[i] += a * ((xm[i] - prev[i]) / dt - est[i])
                prev[i] = xm[i]
            vm = list(est)
        g = plant.gain(measured)
        outs = [ctrls[i].step(xm[i], vm[i], float(g[i]), dt) for i in range(n)]
        applied = [o.u for o in outs]
        if depth:
            applied, fifo_in = [fifo[i][head] for i in range(n)], applied
            for i in range(n):
                fifo[i][head] = fifo_in[i]
            head = (head + 1) % depth
        d = sim.eval_disturbance(scenario.disturbance, t)

        if k % stride == 0:
            # column order: t, per node x, v, u, alpha, beta, s, V, then d
            row = [t]
            for i, o in enumerate(outs):
                row += [state[2 * i], state[2 * i + 1], applied[i],
                        o.alpha, o.beta, o.s, o.V]
            rows.append(row + [d])
        if k == n_steps:
            break
        u_vec = np.array(applied)
        state = rk4_step(lambda y, tau: plant.derivative(y, tau, u_vec, d), state, t, dt)
        assert np.abs(state).max() <= sim.DIVERGENCE_LIMIT

    return TimeSeries(np.array(rows, dtype=float))


_MIXED_LAWS = [
    {"name": "observer-free", "k1": 1.5, "lambda": 4.0},
    {"name": "classical"},
    {"name": "super-twisting"},
    {"name": "adaptive"},
    {"name": "none"},
]


def _network_raw(topology, **over):
    raw = {
        "name": "vector_probe",
        "plant": {"name": "network5", "n": 5, "topology": topology},
        "controller": _MIXED_LAWS,
        "x0": [0.2, 0.0, -0.25, 0.1, 0.05, 0.0, -0.1, -0.3, 0.28, 0.0],
        "sim": {"dt": 1e-3, "t_final": 0.4, "seed": 11, "record_stride": 3},
        "noise": {"std_x": 0.01},
        "delay": {"tau": 0.005},
        "estimate_velocity": True,
    }
    raw.update(over)
    return raw


_OF1 = {"name": "observer-free", "k1": 1.0}
_RING6 = {"plant": {"name": "network5", "n": 6, "topology": "ring"},
          "x0": [0.2, 0.0, -0.25, 0.1, 0.05, 0.0, -0.1, -0.3, 0.28, 0.0, 0.15, -0.05]}


@pytest.mark.parametrize(
    "raw",
    [
        _network_raw("ring"),
        # non-adjacent groups, one law under two parameter sets
        _network_raw("ring", **_RING6, controller=[
            _OF1, {"name": "classical"},
            {"name": "observer-free", "k1": 2.0, "tanh_table_size": 1024},
            {"name": "classical"}, _OF1, {"name": "adaptive"},
        ]),
        # stateful groups; 0.0 and -0.0 compare equal but start different gains
        _network_raw("ring", **_RING6, controller=[
            {"name": "super-twisting", "k2st": 4.0}, {"name": "adaptive", "k0": 0.0},
            {"name": "super-twisting"}, {"name": "adaptive", "k0": -0.0},
            {"name": "super-twisting", "k2st": 4.0}, {"name": "adaptive", "k0": 0.0},
        ], sim={"dt": 1e-3, "t_final": 0.2, "seed": 5}),
        _network_raw("chain"),
        _network_raw(
            "ring",
            noise={"std_x": 0.01, "std_v": 0.02},
            delay={"tau": 0.0},
            estimate_velocity=False,
            disturbance={"kind": "sinusoid", "amplitude": 0.3, "angular_frequency": 4.0},
            sim={"dt": 1e-3, "t_final": 0.3, "seed": 2},
        ),
        _pendulum_raw(
            noise={"std_x": 0.01, "std_v": 0.02},
            delay={"tau": 0.005},
            estimate_velocity=True,
            sim={"dt": 1e-3, "t_final": 0.4, "seed": 3, "record_stride": 3},
        ),
        # one node with noise, delay and disturbance off: the simulator skips
        # all three stages, the reference still runs each of them
        _pendulum_raw(sim={"dt": 1e-3, "t_final": 0.4}),
        _pendulum_raw(plant={"name": "vdp", "mu": 1.5}, x0=[1.2, -0.4],
                      controller={"name": "super-twisting"},
                      sim={"dt": 1e-3, "t_final": 0.4}),
        _pendulum_raw(plant={"name": "duffing", "lin": 0.5, "cub": 0.8, "delta": 0.1},
                      x0=[1.5, 0.3], controller={"name": "adaptive"},
                      sim={"dt": 1e-3, "t_final": 0.4}),
        # position noise only: the velocity channel passes through
        _pendulum_raw(noise={"std_x": 0.02, "std_v": 0.0},
                      sim={"dt": 1e-3, "t_final": 0.4, "seed": 9}),
        _pendulum_raw(plant={"name": "vdp"}, x0=[-0.8, 0.5], controller={"name": "classical"},
                      disturbance={"kind": "sinusoid", "amplitude": 0.3,
                                   "angular_frequency": 4.0},
                      sim={"dt": 1e-3, "t_final": 0.4}),
    ],
    ids=["ring", "ring6-groups", "ring6-stateful-groups", "chain",
         "ring-v-noise-no-delay", "pendulum", "pendulum-bare", "vdp-bare",
         "duffing-bare", "pendulum-x-noise", "vdp-sinusoid"],
)
def test_vectorized_run_matches_per_node_reference(raw):
    scenario = scenarios.validate(raw)
    got = scenarios.run(scenario)[0]
    want = _reference_run(scenario)
    assert not got.diverged
    for field in ("t", "x", "v", "u", "alpha", "beta", "s", "V", "d"):
        left, right = getattr(got, field), getattr(want, field)
        assert left.shape == right.shape, field
        assert np.array_equal(left, right), field
        assert np.ascontiguousarray(left).tobytes() == right.tobytes(), field


# ------------------------------------------------------------ TimeSeries

def test_csv_roundtrip_is_exact(tmp_path):
    ts = simulate_run(scenarios.validate(_pendulum_raw(sim={"dt": 1e-3, "t_final": 0.5})))
    path = tmp_path / "run.csv"
    ts.write_csv(path)
    back = TimeSeries.read_csv(path)
    for field in ("t", "x", "v", "u", "alpha", "beta", "s", "V", "d"):
        assert np.array_equal(getattr(ts, field), getattr(back, field))
    assert back.diverged is False

    # repeated writes are byte-identical
    path2 = tmp_path / "run2.csv"
    ts.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_roundtrip_keeps_divergence_flag(tmp_path):
    raw = {
        "name": "blowup",
        "plant": {"name": "duffing", "lin": 5.0, "cub": 1.0, "delta": 0.0},
        "controller": {"name": "none"},
        "x0": [1.0, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0},
    }
    ts = simulate_run(scenarios.validate(raw))
    path = tmp_path / "blowup.csv"
    ts.write_csv(path)
    assert path.read_text().startswith("# diverged_at=")
    back = TimeSeries.read_csv(path)
    assert back.diverged and back.diverged_at == ts.diverged_at


def test_read_csv_rejects_malformed_input(tmp_path):
    header = "t,x,v,u,alpha,beta,s,V,d\n"
    cases = {
        "binary.csv": b"\xff\xfe\x00t,x\n",
        "cell.csv": (header + "0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0,abc\n").encode(),
        "short.csv": (header + "0.0,1.0\n").encode(),
        "summary.csv": b"name,settling_time\nfig1,1.0\n",
        "renamed.csv": header.replace(",v,", ",w,").encode() + b"0,0,0,0,0,0,0,0,0\n",
        "empty.csv": b"# diverged_at=1.0\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_bytes(body)
        with pytest.raises(InvalidInputError):
            TimeSeries.read_csv(path)


def test_timeseries_column_access():
    single = simulate_run(scenarios.validate(_pendulum_raw(sim={"dt": 1e-3, "t_final": 0.1})))
    assert single.column_names() == ["t", "x", "v", "u", "alpha", "beta", "s", "V", "d"]
    network = simulate_run(scenarios.validate(
        _network_raw("ring", sim={"dt": 1e-3, "t_final": 0.1})))
    for ts in (single, network):
        names = ts.column_names()
        assert len(names) == ts.table.shape[1] == 2 + 7 * ts.n_nodes
        for name in names:
            base = name.rstrip("0123456789")
            field = getattr(ts, base)
            node = int(name[len(base):] or 1) - 1
            want = field if field.ndim == 1 else field[:, node]
            assert np.array_equal(ts.column(name), want), name
        with pytest.raises(InvalidInputError):
            ts.column("z")
    assert network.n_nodes == 5


def test_timeseries_rejects_a_table_that_is_not_a_run_layout():
    for shape in [(3,), (3, 8), (3, 10)]:
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros(shape))


def test_write_csv_peak_memory_stays_small(tmp_path):
    """Cells are converted about CSV_BLOCK at a time: a whole-table
    ``tolist()`` of this 20,001-row run would hold about 7 MB of Python
    floats at once."""
    ts = simulate_run(scenarios.validate(_pendulum_raw(sim={"dt": 1e-3, "t_final": 20.0})))
    assert ts.n_samples == 20001
    tracemalloc.start()
    try:
        ts.write_csv(tmp_path / "run.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_network_column_names_are_suffixed():
    suite = {sc.name: sc for sc in scenarios.builtin_suite()}
    names = None
    sc = suite["fig4_network5_observer_free"]
    raw = sc.to_dict()
    raw["sim"]["t_final"] = 0.01
    ts = simulate_run(scenarios.validate(raw))
    names = ts.column_names()
    assert names[0] == "t" and names[-1] == "d"
    assert "x1" in names and "V5" in names and len(names) == 2 + 7 * 5


# ------------------------------------------------------------- properties

_FIELDS = ("t", "x", "v", "u", "alpha", "beta", "s", "V", "d")


@st.composite
def _series(draw):
    """Any TimeSeries shape with any float values, diverged or not."""
    n_samples = draw(st.integers(1, 6))
    n_nodes = draw(st.sampled_from([1, 2, 5]))
    values = st.floats(width=64)
    table = draw(arrays(float, (n_samples, 2 + 7 * n_nodes), elements=values))
    at = draw(st.none() | values)
    return TimeSeries(table, diverged_at=at)


@given(ts=_series())
def test_property_csv_write_read_write_is_byte_identical(ts):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        ts.write_csv(first)
        back = TimeSeries.read_csv(first)
        back.write_csv(second)
        assert first.read_bytes() == second.read_bytes()
    assert back.n_nodes == ts.n_nodes and back.diverged == ts.diverged


def _reference_write_csv(ts, path):
    """The row-at-a-time writer that write_csv replaced, kept as its reference."""
    with open(path, "w", newline="") as f:
        if ts.diverged:
            f.write(f"# diverged_at={ts.diverged_at!r}\n")
        f.write(",".join(ts.column_names()) + "\n")
        for row in ts.table:
            f.write(",".join(map(repr, row.tolist())) + "\n")


@st.composite
def _repetitive_series(draw):
    """A series spanning up to three full CSV blocks and a partial one, whose
    columns repeat each other over some rows, hold a constant, or equal
    another column up to the sign of its zeros."""
    n_nodes = draw(st.sampled_from([1, 2]))
    width = 2 + 7 * n_nodes
    n_samples = draw(st.integers(1, 3 * (sim.CSV_BLOCK // width) + 1))
    values = st.floats(width=64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    table = draw(arrays(float, (n_samples, width), elements=values, fill=values))
    rows = st.integers(0, n_samples)
    for j in range(width):
        how = draw(st.sampled_from(["keep", "copy", "constant", "flip zeros"]))
        k = draw(st.integers(0, width - 1))
        lo, hi = sorted((draw(rows), draw(rows)))
        if how == "copy":
            table[lo:hi, j] = table[lo:hi, k]
        elif how == "constant":
            table[:, j] = draw(values)
        elif how == "flip zeros":
            table[:, j] = np.where(table[:, k] == 0.0, -table[:, k], table[:, k])
    return TimeSeries(table, diverged_at=draw(st.none() | values))


@settings(deadline=None, max_examples=60)
@given(ts=_repetitive_series())
def test_property_write_csv_matches_the_row_at_a_time_writer(ts):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        ts.write_csv(got)
        _reference_write_csv(ts, want)
        assert got.read_bytes() == want.read_bytes()


@st.composite
def _noisy_scenario(draw):
    """A short run with noise, input delay and the velocity estimate."""
    law = draw(st.sampled_from(["observer-free", "classical", "super-twisting", "adaptive"]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        plant = {"name": "network5", "n": n,
                 "topology": draw(st.sampled_from(["ring", "chain"]))}
    else:
        n, plant = 1, {"name": draw(st.sampled_from(["pendulum", "vdp", "duffing"]))}
    small = st.floats(-0.5, 0.5)
    return scenarios.validate({
        "name": "property",
        "plant": plant,
        "controller": {"name": law},
        "x0": draw(st.lists(small, min_size=2 * n, max_size=2 * n)),
        "sim": {"dt": 1e-3, "t_final": draw(st.floats(0.005, 0.05)),
                "seed": draw(st.integers(0, 2 ** 32)),
                "record_stride": draw(st.integers(1, 3))},
        "noise": {"std_x": draw(st.floats(1e-4, 0.05)), "std_v": draw(st.floats(0.0, 0.05))},
        "delay": {"tau": draw(st.floats(1e-3, 0.01))},
        "estimate_velocity": True,
        "velocity_filter_cutoff_hz": draw(st.floats(5.0, 50.0)),
    })


@settings(deadline=None, max_examples=30)
@given(scenario=_noisy_scenario())
def test_property_noisy_delayed_estimated_run_repeats_bytes(scenario):
    a, b = simulate_run(scenario), simulate_run(scenario)
    assert (a.diverged, a.diverged_at) == (b.diverged, b.diverged_at)
    for field in _FIELDS:
        left = np.ascontiguousarray(getattr(a, field))
        right = np.ascontiguousarray(getattr(b, field))
        assert left.shape == right.shape, field
        assert left.tobytes() == right.tobytes(), field


def test_simulate_run_checks_a_hand_built_scenario_against_its_plant():
    # validate rules these out; simulate_run checks them for a Scenario
    # built without it
    fig1 = {sc.name: sc for sc in scenarios.builtin_suite()}["fig1_pendulum_observer_free"]
    two_laws = dataclasses.replace(fig1, controller=fig1.controller * 2,
                                   controller_params=fig1.controller_params * 2)
    with pytest.raises(ConfigError, match=r"^expected 1 controllers, got 2$"):
        simulate_run(two_laws)
    with pytest.raises(ConfigError, match=r"^x0 must have length 2$"):
        simulate_run(dataclasses.replace(fig1, x0=(0.5, 0.0, 0.1)))


# ---------------------------------------------------------------- configs

def test_sim_config_validation():
    with pytest.raises(ConfigError, match="dt must be positive"):
        SimConfig(dt=0.0)
    with pytest.raises(ConfigError):
        SimConfig(dt=0.5)  # above the supported ceiling
    with pytest.raises(ConfigError):
        SimConfig(dt=1e-8)
    with pytest.raises(ConfigError):
        SimConfig(dt=1e-3, t_final=1e-4)
    with pytest.raises(ConfigError):
        SimConfig(seed=-1)
    with pytest.raises(ConfigError):
        SimConfig(record_stride=0)
    with pytest.raises(ConfigError) as err:
        SimConfig(seed=-1, record_stride=0)
    assert err.value.errors == ["sim.seed must be an integer in [0, 2^64)",
                                "sim.record_stride must be an integer >= 1"]


def test_support_config_validation():
    with pytest.raises(ConfigError):
        NoiseConfig(std_x=-0.1)
    with pytest.raises(ConfigError):
        DisturbanceSpec(kind="step")
    with pytest.raises(ConfigError):
        DisturbanceSpec(amplitude=-1.0)
    with pytest.raises(ConfigError):
        sim.DelaySpec(tau=-0.5)
