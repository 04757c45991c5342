"""Byte oracle for the simulation step, written with numpy array expressions.

The loop below integrates with its own array derivative (drift, then
``g * u + d``, interleaved by slice assignment) and its own array RK4.  It
calls neither ``sim.rk4_step`` nor ``PlantModel.derivative``, so a change in
how the simulator rounds a drift term, the coupling, the gain term or an
RK4 stage shows up as a byte difference in the recorded series.  Only the
control laws are shared with the code under test.
"""
import math

import numpy as np
import pytest

from smclab import scenarios, sim


def _drift(plant: dict, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    name = plant["name"]
    if name == "pendulum":
        return plant.get("a", 1.0) * np.sin(x) - plant.get("c", 0.1) * v
    if name == "vdp":
        return plant.get("mu", 1.0) * (1.0 - x * x) * v - x
    if name == "duffing":
        lin, cub = plant.get("lin", 1.0), plant.get("cub", -1.0)
        return lin * x + cub * x ** 3 - plant.get("delta", 0.2) * v
    kappa = plant.get("kappa", 0.5)
    pend = 1.0 * np.sin(x) - 0.1 * v
    if plant.get("topology", "ring") == "ring":
        return pend + kappa * ((np.roll(x, 1) - x) + (np.roll(x, -1) - x))
    acc = np.zeros_like(x)
    acc[1:] += kappa * (x[:-1] - x[1:])
    acc[:-1] += kappa * (x[1:] - x[:-1])
    return pend + acc


def _oracle_derivative(plant: dict):
    """(n, g, deriv) with deriv(y, u, d) the interleaved array derivative."""
    n = plant.get("n", 5) if plant["name"] == "network5" else 1
    g = np.full(n, float(plant.get("b", 1.0)))

    def deriv(y, u, d):
        out = np.empty_like(y)
        out[0::2] = y[1::2]
        out[1::2] = _drift(plant, y[0::2], y[1::2]) + g * u + d
        return out

    return n, g, deriv


def _oracle_run(raw: dict) -> dict:
    """Noise-free run of ``raw`` on arrays; returns the recorded fields."""
    scenario = scenarios.validate(raw)
    n, g, deriv = _oracle_derivative(raw["plant"])
    dt, n_steps = scenario.sim.dt, scenario.sim.n_steps
    ctrls = scenario.make_controllers()
    depth = math.ceil(round(scenario.delay.tau / dt, 9))
    fifo, head = [0.0] * depth, 0
    dist = raw.get("disturbance", {})

    y = np.array(raw["x0"], dtype=float)
    rec = {name: [] for name in ("t", "d", "x", "v", "u", "alpha", "beta", "s", "V")}
    for k in range(n_steps + 1):
        t = k * dt
        outs = [c.step(float(y[2 * i]), float(y[2 * i + 1]), float(g[i]), dt)
                for i, c in enumerate(ctrls)]
        u = np.array([o.u for o in outs])
        if depth:
            u, fifo[head] = fifo[head], u
            head = (head + 1) % depth
        d = dist.get("amplitude", 0.0) * math.sin(dist.get("angular_frequency", 0.0) * t)
        rec["t"].append(t)
        rec["d"].append(d)
        rec["x"].append(y[0::2])
        rec["v"].append(y[1::2])
        rec["u"].append(np.broadcast_to(u, (n,)))
        for name in ("alpha", "beta", "s", "V"):
            rec[name].append([getattr(o, name) for o in outs])
        if k == n_steps:
            break
        k1 = deriv(y, u, d)
        k2 = deriv(y + (0.5 * dt) * k1, u, d)
        k3 = deriv(y + (0.5 * dt) * k2, u, d)
        k4 = deriv(y + dt * k3, u, d)
        y = y + dt * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
    return {name: np.array(rows, dtype=float) for name, rows in rec.items()}


def _raw(plant, x0, controller, **over):
    raw = {
        "name": "oracle",
        "plant": plant,
        "controller": controller,
        "x0": x0,
        "sim": {"dt": 1e-3, "t_final": 0.25},
    }
    raw.update(over)
    return raw


_OF = {"name": "observer-free", "k1": 1.0, "lambda": 5.0}
_MIXED = [_OF, {"name": "classical"}, {"name": "super-twisting"},
          {"name": "adaptive"}, {"name": "none"}]
_NET_X0 = [0.2, 0.0, -0.25, 0.1, 0.05, 0.0, -0.1, -0.3, 0.28, 0.0]
_SINE = {"kind": "sinusoid", "amplitude": 0.3, "angular_frequency": 4.0}

CASES = {
    "pendulum": _raw({"name": "pendulum"}, [0.5, 0.0], _OF, disturbance=_SINE),
    "vdp": _raw({"name": "vdp", "mu": 1.5}, [1.2, -0.4], {"name": "super-twisting"}),
    # |x| > 1 throughout: the cube is rounded by numpy's array power loop
    "duffing": _raw({"name": "duffing", "lin": 0.5, "cub": 0.8, "delta": 0.1},
                    [2.5, 1.0], {"name": "none"}),
    "ring": _raw({"name": "network5", "n": 5, "kappa": 0.7}, _NET_X0, _MIXED,
                 disturbance=_SINE),
    "chain": _raw({"name": "network5", "n": 5, "kappa": 0.7, "topology": "chain"},
                  _NET_X0, _MIXED),
    # b < 0 under a zero-filled delay: g * 0.0 is -0.0 while the FIFO fills
    "negative-b-delayed": _raw({"name": "pendulum", "b": -1.5}, [-0.0, 0.0],
                               {"name": "classical"}, delay={"tau": 0.01}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_array_oracle_bytes(name):
    raw = CASES[name]
    got = sim.simulate_run(scenarios.validate(raw))
    want = _oracle_run(raw)
    assert not got.diverged
    assert got.n_samples == want["t"].shape[0] >= 201
    for field, expected in want.items():
        actual = np.ascontiguousarray(getattr(got, field))
        assert actual.shape == expected.shape, field
        assert actual.tobytes() == expected.tobytes(), field


def test_duffing_case_keeps_the_cube_above_one():
    want = _oracle_run(CASES["duffing"])
    assert np.abs(want["x"]).min() > 1.0


_PLANTS = {name: raw["plant"] for name, raw in CASES.items()}
# kappa = 0 makes a chain's one-sided coupling -0.0 when the neighbor is
# behind; the sum must still start from +0.0
_PLANTS["chain-kappa-0"] = {"name": "network5", "n": 4, "kappa": 0.0, "topology": "chain"}


@pytest.mark.parametrize("name", sorted(_PLANTS))
def test_derivative_matches_array_oracle_bytes(name):
    # the trajectory above can absorb a one-ulp change in an acceleration;
    # the derivative itself cannot
    plant = _PLANTS[name]
    model = scenarios.validate(_raw(plant, [0.0, 0.0] * plant.get("n", 1), _OF)).make_plant()
    n, _, deriv = _oracle_derivative(plant)
    rng = np.random.default_rng(len(name))
    states = [rng.uniform(-3.0, 3.0, 2 * n) for _ in range(300)]
    # signed zeros: positions alternate -1 and -0.0 at rest, so with u and d
    # at -0.0 the sign of every zero term reaches the output
    rest = np.zeros(2 * n)
    rest[0::2] = np.where(np.arange(n) % 2, -0.0, -1.0)
    states += [np.full(2 * n, -0.0), rest]
    zero, minus_zero = np.zeros(n), np.full(n, -0.0)
    for y in states:
        for u, d in ((rng.uniform(-5.0, 5.0, n), 0.3), (zero, 0.0), (minus_zero, -0.0)):
            want = deriv(y, u, d).tobytes()
            assert np.array(model.derivative(y.tolist(), 0.0, u.tolist(), d)).tobytes() == want
            assert model.derivative(y, 0.0, u, d).tobytes() == want
