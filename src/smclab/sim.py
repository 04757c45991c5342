"""Deterministic fixed-step closed-loop simulation.

The integrator is classic RK4 with zero-order hold: the control vector and
the disturbance value are computed once per step and held constant across
the four stages.  Measurement noise only touches what the controller sees;
the integrated state stays exact.  Runs abort with a divergence flag once
any state magnitude exceeds 1e6.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import controllers
from .errors import (ConfigError, DivergenceError, InvalidInputError, check_positive, check_ranges,
                     is_number)

DIVERGENCE_LIMIT = 1e6
DT_MIN = 1e-6
DT_MAX = 1e-1
MAX_STEPS = 10 ** 8
MAX_RECORDED_SAMPLES = 10 ** 7    # (steps + 1) x nodes a run may record
NOISE_BLOCK = 256                 # draws taken from each noise stream at once
RECORD_BLOCK = 1024               # recorded values held between table writes
CSV_BLOCK = 1152                  # table cells formatted at once by write_csv
DISTURBANCE_KINDS = ("none", "sinusoid")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_final: float = 10.0
    seed: int = 42
    record_stride: int = 1

    def __post_init__(self):
        dt, t_final = self.dt, self.t_final
        t_number = is_number(t_final)
        dt_ok = DT_MIN <= dt <= DT_MAX
        t_ok = math.isfinite(t_final) and t_final >= dt and t_number
        steps = t_final / dt if dt_ok and t_ok else 0.0     # inf once the quotient overflows
        # the window is checked on a positive dt, t_final >= dt on a valid dt
        check_ranges(rules=[
            (0 < dt < math.inf, "sim.dt must be positive"),
            (dt_ok or not 0 < dt < math.inf, f"sim.dt must lie in [{DT_MIN:g}, {DT_MAX:g}]"),
            (t_ok or not dt_ok and math.isfinite(t_final) and t_number,
             f"sim.t_final must be {'>= dt' if t_number else 'a number'}"),
            (not math.isinf(steps) and round(steps) <= MAX_STEPS,
             f"sim step count exceeds {MAX_STEPS:g}"),
            (is_number(self.seed, int) and 0 <= self.seed < 2 ** 64,
             "sim.seed must be an integer in [0, 2^64)"),
            (is_number(self.record_stride, int) and self.record_stride >= 1,
             "sim.record_stride must be an integer >= 1"),
        ])

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class NoiseConfig:
    std_x: float = 0.0
    std_v: float = 0.0

    def __post_init__(self):
        check_ranges(nonnegative={"noise.std_x": self.std_x, "noise.std_v": self.std_v})


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = "none"
    amplitude: float = 0.0
    angular_frequency: float = 0.0

    def __post_init__(self):
        check_ranges(
            nonnegative={"disturbance.amplitude": self.amplitude,
                         "disturbance.angular_frequency": self.angular_frequency},
            rules=[(self.kind in DISTURBANCE_KINDS,
                    f"disturbance.kind must be one of {DISTURBANCE_KINDS}")])


@dataclass(frozen=True)
class DelaySpec:
    tau: float = 0.0

    def __post_init__(self):
        check_ranges(nonnegative={"delay.tau": self.tau})


def eval_disturbance(spec: DisturbanceSpec, t: float) -> float:
    """Matched disturbance added to every acceleration channel."""
    if spec.kind == "none":
        return 0.0
    return spec.amplitude * math.sin(spec.angular_frequency * t)


def _draw_rows(gens):
    """Endless rows (lists of floats) of the next draw of every stream.

    Each stream is drawn NOISE_BLOCK values at a time, which equal as many
    scalar draws, and each block is converted to floats once; nothing is
    drawn before the first row is requested.
    """
    while True:
        yield from np.stack([g.standard_normal(NOISE_BLOCK) for g in gens], axis=1).tolist()


class NoiseStreams:
    """Independent Gaussian stream per measured channel per node.

    Stream identities are derived from the scenario seed as (seed, node, 0)
    for positions and (seed, node, 1) for velocities, so adding nodes never
    reshuffles the draws of existing ones.  ``x_rows``/``v_rows`` yield one
    draw per node and step.  Each channel's streams are built on first use,
    so a run that never reads velocity noise builds none.
    """

    def __init__(self, seed: int, n_nodes: int):
        self._seed, self._n_nodes = seed, n_nodes

    def _channel(self, channel: int) -> list:
        return [np.random.default_rng([self._seed, i, channel]) for i in range(self._n_nodes)]

    x = cached_property(lambda self: self._channel(0))
    v = cached_property(lambda self: self._channel(1))
    x_rows = cached_property(lambda self: _draw_rows(self.x))
    v_rows = cached_property(lambda self: _draw_rows(self.v))


def apply_noise(state, cfg: NoiseConfig, streams: NoiseStreams) -> list:
    """Measured copy of the interleaved state, as a list of floats.

    Channels with zero std pass through exactly and consume no draws.
    """
    measured = list(map(float, state))
    if cfg.std_x > 0.0:
        sx = cfg.std_x
        row = next(streams.x_rows)
        measured[0::2] = [x + sx * r for x, r in zip(measured[0::2], row)]
    if cfg.std_v > 0.0:
        sv = cfg.std_v
        row = next(streams.v_rows)
        measured[1::2] = [v + sv * r for v, r in zip(measured[1::2], row)]
    return measured


class DelayLine:
    """FIFO input delay of ceil(tau / dt) steps, filled with ``fill`` at start.

    Values are held as given, so a list of node controls comes out as the
    same list; the simulator fills with a list of +0.0 per node.  Only the
    pushed values wait in the FIFO, so it never holds more than were
    pushed, however long the delay.
    """

    def __init__(self, tau: float, dt: float, fill=0.0):
        check_ranges(nonnegative={"delay tau": tau}, positive={"dt": dt})
        # round() guards against 0.01/0.001 style quotients landing above
        # the intended integer by one ulp; no run pushes more than
        # MAX_STEPS + 1 values, so a longer delay only ever emits the fill
        self.n = math.ceil(min(round(tau / dt, 9), MAX_STEPS + 1))
        self._fill = fill
        self._held = deque()

    def push(self, u):
        if self.n == 0:
            return u
        held = self._held
        out = held.popleft() if len(held) == self.n else self._fill
        held.append(u)
        return out


class LowPassDifferentiator:
    """Backward difference followed by a first-order low-pass filter.

    ``x`` is a sequence of node positions, filtered elementwise; each
    output is a new list of floats.  The first output is +0.0 per node.
    """

    def __init__(self, cutoff_hz: float, dt: float):
        r = 2.0 * math.pi * cutoff_hz * dt
        check_ranges(positive={"derivative filter cutoff": cutoff_hz, "dt": dt},
                     finite={"2 pi cutoff dt": r})
        self.a = r / (r + 1.0)
        self.dt = dt
        self._prev = None
        self._y = None

    def update(self, x) -> list:
        if self._prev is None:
            self._prev = x
            self._y = [0.0] * len(x)
            return self._y
        a, dt = self.a, self.dt
        self._y = [
            y + a * ((xi - xp) / dt - y) for xi, xp, y in zip(x, self._prev, self._y)
        ]
        self._prev = x
        return self._y


def rk4_step(deriv: Callable, state, t: float, dt: float) -> np.ndarray:
    """One classic Runge-Kutta 4 step of ``state' = deriv(state, t)``.

    A list state (the simulator's step) is integrated on Python floats and
    ``deriv`` must map lists of floats to lists.  Any other 1-D state is
    handed to ``deriv`` as an ndarray.  A two-float state (one node) is
    integrated in unrolled scalar expressions, which skip the per-stage
    list comprehensions; ``deriv`` still sees two-element lists.  The
    arithmetic is elementwise IEEE in the same order on every path, so all
    give the bits the array expressions give.  Returns the new state as an
    ndarray; raises DivergenceError if it is not finite.
    """
    check_positive(dt)
    if type(state) is list:
        y, f = state, deriv
    else:
        y = np.asarray(state, dtype=float).tolist()

        def f(s, tau):
            return np.asarray(deriv(np.array(s), tau), dtype=float).tolist()

    h = 0.5 * dt
    if len(y) == 2:
        x, v = y
        kx1, kv1 = f(y, t)
        kx2, kv2 = f([x + h * kx1, v + h * kv1], t + h)
        kx3, kv3 = f([x + h * kx2, v + h * kv2], t + h)
        kx4, kv4 = f([x + dt * kx3, v + dt * kv3], t + dt)
        x = x + dt * ((kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4) / 6.0)
        v = v + dt * ((kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4) / 6.0)
        if not (math.isfinite(x) and math.isfinite(v)):
            raise DivergenceError(t)
        return np.array([x, v])
    k1 = f(y, t)
    k2 = f([a + h * b for a, b in zip(y, k1)], t + h)
    k3 = f([a + h * b for a, b in zip(y, k2)], t + h)
    k4 = f([a + dt * b for a, b in zip(y, k3)], t + dt)
    # dividing the stage sum first keeps y + dt exact for a constant
    # unit derivative
    out = [
        a + dt * ((b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]
    if not all(map(math.isfinite, out)):
        raise DivergenceError(t)
    return np.array(out)


_PER_NODE = ("x", "v", "u", "alpha", "beta", "s", "V")


def _node_field(j: int):
    # columns 1 + j, 8 + j, ...: one per node, never the trailing d
    return property(lambda self: self.table[:, 1 + j:-1:len(_PER_NODE)])


@dataclass
class TimeSeries:
    """Recorded run: time, true state, applied control and diagnostics.

    ``table`` is one (samples, 2 + 7 * nodes) array in CSV column order:
    ``t``, then per node ``x, v, u, alpha, beta, s, V``, then ``d``;
    single-node runs drop the node suffix from the names.  The fields are
    views of that table: ``t`` and ``d`` are (samples,), the rest
    (samples, nodes).  ``diverged_at`` is the time of the first rejected
    state, None for a completed run; ``diverged`` follows from it.
    """

    table: np.ndarray
    diverged_at: float | None = None

    diverged = property(lambda self: self.diverged_at is not None)
    t = property(lambda self: self.table[:, 0])
    x, v, u, alpha, beta, s, V = map(_node_field, range(len(_PER_NODE)))
    d = property(lambda self: self.table[:, -1])

    def __post_init__(self):
        width = self.table.shape[1] if self.table.ndim == 2 else 0
        if width < 2 + len(_PER_NODE) or (width - 2) % len(_PER_NODE):
            raise InvalidInputError(
                f"table shape {self.table.shape} is not (samples, 2 + 7 * nodes)"
            )

    @property
    def n_nodes(self) -> int:
        return (self.table.shape[1] - 2) // len(_PER_NODE)

    @property
    def n_samples(self) -> int:
        return self.table.shape[0]

    def column_names(self) -> list[str]:
        return self._layout(self.n_nodes)

    @staticmethod
    def _layout(n_nodes: int) -> list[str]:
        names = ["t"]
        for i in range(n_nodes):
            suffix = "" if n_nodes == 1 else str(i + 1)
            names.extend(f"{base}{suffix}" for base in _PER_NODE)
        names.append("d")
        return names

    def column(self, name: str) -> np.ndarray:
        names = self.column_names()
        if name not in names:
            raise InvalidInputError(
                f"unknown column '{name}', available: {', '.join(names)}"
            )
        return self.table[:, names.index(name)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            if self.diverged:
                f.write(f"# diverged_at={self.diverged_at!r}\n")
            f.write(",".join(self.column_names()) + "\n")
            # about CSV_BLOCK cells at a time, so memory stays bounded for any
            # width, and each distinct column of a block is formatted once:
            # equal bits give equal repr (-0.0 and 0.0 have different bits)
            rows = max(1, CSV_BLOCK // self.table.shape[1])
            for start in range(0, self.n_samples, rows):
                formatted = {}
                cols = []
                for col in self.table[start:start + rows].T:
                    key = col.tobytes()
                    if key not in formatted:
                        formatted[key] = list(map(repr, col.tolist()))
                    cols.append(formatted[key])
                f.write("\n".join(map(",".join, zip(*cols))) + "\n")

    @classmethod
    def read_csv(cls, path) -> "TimeSeries":
        """Read a run CSV written by :meth:`write_csv`, bit for bit.

        Raises InvalidInputError for a file that cannot be read, undecodable
        bytes, a header that is not a run layout, or a malformed body.
        """
        try:
            with open(path, "r", encoding="utf-8", newline="") as f:
                lines = f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not a UTF-8 text file: {exc}") from None
        except OSError as exc:
            raise InvalidInputError(f"{path}: cannot read: {exc}") from None
        comments = []
        while lines and lines[0].startswith("#"):
            comments.append(lines.pop(0))
        if not lines:
            raise InvalidInputError(f"{path}: empty CSV")
        names = lines[0].split(",")
        n_nodes, rest = divmod(len(names) - 2, len(_PER_NODE))
        if rest or n_nodes < 1 or names != cls._layout(n_nodes):
            raise InvalidInputError(f"{path}: header is not a run CSV layout")
        diverged_at = None
        try:
            for head in comments:
                if head.startswith("# diverged_at="):
                    diverged_at = float(head.split("=", 1)[1])
            data = np.array(
                [[float(cell) for cell in line.split(",")] for line in lines[1:]]
            )
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed CSV: {exc}") from None
        if data.ndim != 2 or data.shape[1] != len(names):
            raise InvalidInputError(f"{path}: malformed CSV body")
        return cls(data, diverged_at=diverged_at)


def simulate_run(scenario) -> TimeSeries:
    """Run one validated scenario to completion or divergence.

    Per step: measure (noise, then optional derivative estimate), evaluate
    the control laws over the node lists (one list-form call per group of
    nodes sharing a law and its parameters, see controllers.node_laws),
    push the control vector through the input delay, sample the
    disturbance, record, then integrate one RK4 step with control and
    disturbance held.  Stages that would pass their input through unchanged
    are skipped, as decided once per run: with ``std_x == std_v == 0`` the
    measured state is the state (and no noise stream is built), with a
    zero-step delay the applied control is the control, and with
    disturbance kind "none" d is 0.0.  Under ``estimate_velocity`` the
    estimate replaces the measured v, so no velocity noise is drawn.

    The step works on Python floats: node vectors are lists, and on one
    node the plant derivative, rk4_step and the observer-free law unpack
    two floats, because numpy call overhead on 2- to 32-element arrays
    costs more than the arithmetic.
    Every operation is elementwise IEEE arithmetic in the order the array
    expressions used, so the bits are those of the array form.  numpy stays
    where it pays or where it rounds differently: noise is drawn in blocks
    of NOISE_BLOCK per stream and converted to floats once per block,
    Duffing's x ** 3 runs on numpy's array power loop, and rk4_step hands
    back an ndarray.  The record is one preallocated table in CSV column
    order (see TimeSeries): each step appends its state, u_applied, alpha,
    beta and d to one list, written through the series' fields once it
    holds RECORD_BLOCK values; t, s and V are filled after the loop.
    ``sim.record_stride`` is not read here, it thins only the series
    scenarios.run hands to the writers.  The constant input gain is read once.

    A step whose result is non-finite or exceeds DIVERGENCE_LIMIT in
    magnitude ends the run: ``diverged_at`` is the time of that rejected
    state (t + dt) and the series keeps every sample before it, so
    ``diverged_at == n_samples * dt``.
    """
    plant = scenario.make_plant()
    n = plant.n_nodes
    cfg = scenario.sim
    dt = cfg.dt
    n_steps = cfg.n_steps

    if len(scenario.controller) != n:
        raise ConfigError(f"expected {n} controllers, got {len(scenario.controller)}")
    control = controllers.node_laws(scenario.controller, scenario.controller_params)
    delay = DelayLine(scenario.delay.tau, dt, fill=[0.0] * n)
    noise, estimator = scenario.noise, None
    if scenario.estimate_velocity:
        noise = NoiseConfig(std_x=noise.std_x)
        estimator = LowPassDifferentiator(scenario.velocity_filter_cutoff_hz, dt)
    noisy = noise.std_x > 0.0 or noise.std_v > 0.0
    streams = NoiseStreams(cfg.seed, n) if noisy else None
    disturbance = scenario.disturbance
    disturbed = disturbance.kind != "none"

    x0 = np.asarray(scenario.x0, dtype=float)
    if x0.shape != (2 * n,):
        raise ConfigError(f"x0 must have length {2 * n}")
    state = x0.tolist()
    g = plant.gain(x0).tolist()

    ts = TimeSeries(np.empty((n_steps + 1, 2 + len(_PER_NODE) * n)))
    buf, done = [], 0    # recorded steps not yet written, rows written
    diverged_at = None

    def deriv(y, tau):
        # reads the held u_applied and d of the step being integrated
        return plant.derivative(y, tau, u_applied, d)

    # numpy arithmetic in the step (Duffing's cube) overflows to inf without
    # a warning, and the run ends as a divergence, as on a float overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * dt
            measured = apply_noise(state, noise, streams) if noisy else state
            xm = measured[0::2]
            vm = measured[1::2] if estimator is None else estimator.update(xm)
            u, alpha, beta = control(xm, vm, g, dt)
            u_applied = delay.push(u) if delay.n else u
            d = eval_disturbance(disturbance, t) if disturbed else 0.0

            buf += [*state, *u_applied, *alpha, *beta, d]
            if len(buf) >= RECORD_BLOCK:
                done = _write_block(ts, done, buf, n)
                buf.clear()

            if k == n_steps:
                break

            try:
                state = rk4_step(deriv, state, t, dt).tolist()
            except DivergenceError:
                state = None
            if state is None or max(map(abs, state)) > DIVERGENCE_LIMIT:
                diverged_at = t + dt
                break

    _write_block(ts, done, buf, n)
    ts = TimeSeries(ts.table[:k + 1], diverged_at)
    ts.t[:] = np.arange(k + 1) * dt
    ts.s[:], ts.V[:] = controllers.surface_energy(ts.alpha, ts.beta)
    return ts


def _write_block(ts: TimeSeries, start: int, values: list, n: int) -> int:
    """Write steps recorded as [*state, *u, *alpha, *beta, d] over ``n``
    nodes into ``ts`` from row ``start``; returns the next row."""
    block = np.array(values).reshape(-1, 5 * n + 1)
    rows = slice(start, start + len(block))
    ts.x[rows], ts.v[rows] = block[:, 0:2 * n:2], block[:, 1:2 * n:2]
    ts.u[rows], ts.alpha[rows], ts.beta[rows] = np.split(block[:, 2 * n:-1], 3, axis=1)
    ts.d[rows] = block[:, -1]
    return start + len(block)
