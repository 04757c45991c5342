"""Deterministic fixed-step closed-loop simulation.

The integrator is classic RK4 with zero-order hold: the control vector and
the disturbance value are computed once per step and held constant across
the four stages.  Measurement noise only touches what the controller sees;
the integrated state stays exact.  Runs abort with a divergence flag once
any state magnitude exceeds 1e6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergenceError, InvalidInputError

DIVERGENCE_LIMIT = 1e6
DT_MIN = 1e-6
DT_MAX = 1e-1
MAX_STEPS = 10 ** 8
MAX_RECORDED_SAMPLES = 10 ** 7    # recorded rows x nodes a run may allocate
NOISE_BLOCK = 256                 # draws taken from each noise stream at once
DISTURBANCE_KINDS = ("none", "sinusoid")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_final: float = 10.0
    seed: int = 42
    record_stride: int = 1

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ConfigError("sim.dt must be positive")
        if not DT_MIN <= self.dt <= DT_MAX:
            raise ConfigError(f"sim.dt must lie in [{DT_MIN:g}, {DT_MAX:g}]")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ConfigError("sim.t_final must be >= dt")
        if round(self.t_final / self.dt) > MAX_STEPS:
            raise ConfigError(f"sim step count exceeds {MAX_STEPS:g}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("sim.seed must be an integer in [0, 2^64)")
        if not isinstance(self.record_stride, int) or self.record_stride < 1:
            raise ConfigError("sim.record_stride must be an integer >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class NoiseConfig:
    std_x: float = 0.0
    std_v: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.std_x) and self.std_x >= 0):
            raise ConfigError("noise.std_x must be >= 0")
        if not (math.isfinite(self.std_v) and self.std_v >= 0):
            raise ConfigError("noise.std_v must be >= 0")


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = "none"
    amplitude: float = 0.0
    angular_frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigError(
                f"disturbance.kind must be one of {DISTURBANCE_KINDS}"
            )
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigError("disturbance.amplitude must be >= 0")
        if not (math.isfinite(self.angular_frequency) and self.angular_frequency >= 0):
            raise ConfigError("disturbance.angular_frequency must be >= 0")


@dataclass(frozen=True)
class DelaySpec:
    tau: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ConfigError("delay.tau must be >= 0")


def eval_disturbance(spec: DisturbanceSpec, t: float) -> float:
    """Matched disturbance added to every acceleration channel."""
    if spec.kind == "none":
        return 0.0
    return spec.amplitude * math.sin(spec.angular_frequency * t)


def _draw_rows(gens):
    """Endless rows of the next draw of every stream in ``gens``.

    Each stream is drawn NOISE_BLOCK values at a time, which equal as many
    scalar draws; nothing is drawn before the first row is requested.
    """
    while True:
        yield from np.stack([g.standard_normal(NOISE_BLOCK) for g in gens], axis=1)


class NoiseStreams:
    """Independent Gaussian stream per measured channel per node.

    Stream identities are derived from the scenario seed as (seed, node, 0)
    for positions and (seed, node, 1) for velocities, so adding nodes never
    reshuffles the draws of existing ones.  ``x_rows``/``v_rows`` yield one
    draw per node and step.
    """

    def __init__(self, seed: int, n_nodes: int):
        self.x = [np.random.default_rng([seed, i, 0]) for i in range(n_nodes)]
        self.v = [np.random.default_rng([seed, i, 1]) for i in range(n_nodes)]
        self.x_rows = _draw_rows(self.x)
        self.v_rows = _draw_rows(self.v)


def apply_noise(state, cfg: NoiseConfig, streams: NoiseStreams) -> np.ndarray:
    """Measured copy of the state.

    Channels with zero std pass through exactly and consume no draws.
    """
    measured = np.array(state, dtype=float)
    if cfg.std_x > 0.0:
        measured[0::2] += cfg.std_x * next(streams.x_rows)
    if cfg.std_v > 0.0:
        measured[1::2] += cfg.std_v * next(streams.v_rows)
    return measured


class DelayLine:
    """FIFO input delay of ceil(tau / dt) steps, zero-filled at start.

    Values may be scalars or node vectors; the fill value is the scalar
    0.0, which broadcasts against a vector.
    """

    def __init__(self, tau: float, dt: float):
        if tau < 0:
            raise ConfigError("delay tau must be >= 0")
        # round() guards against 0.01/0.001 style quotients landing above
        # the intended integer by one ulp
        self.n = math.ceil(round(tau / dt, 9))
        self._buf = [0.0] * self.n
        self._head = 0

    def push(self, u):
        if self.n == 0:
            return u
        out = self._buf[self._head]
        self._buf[self._head] = u
        self._head = (self._head + 1) % self.n
        return out


class LowPassDifferentiator:
    """Backward difference followed by a first-order low-pass filter.

    ``x`` may be a scalar or a node vector, filtered elementwise.  The first
    output is +0.0 in the shape of ``x``.
    """

    def __init__(self, cutoff_hz: float, dt: float):
        if not (math.isfinite(cutoff_hz) and cutoff_hz > 0):
            raise ConfigError("derivative filter cutoff must be > 0")
        r = 2.0 * math.pi * cutoff_hz * dt
        self.a = r / (r + 1.0)
        self.dt = dt
        self._prev = None
        self._y = None

    def update(self, x):
        if self._prev is None:
            self._prev = x
            self._y = np.zeros_like(x, dtype=float)
            return self._y
        diff = (x - self._prev) / self.dt
        # rebinding, not +=: an output already returned must not change
        self._y = self._y + self.a * (diff - self._y)
        self._prev = x
        return self._y


def rk4_step(deriv: Callable, state, t: float, dt: float) -> np.ndarray:
    """One classic Runge-Kutta 4 step of ``state' = deriv(state, t)``."""
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidInputError("dt must be > 0")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(deriv(y, t), dtype=float)
    k2 = np.asarray(deriv(y + (0.5 * dt) * k1, t + 0.5 * dt), dtype=float)
    k3 = np.asarray(deriv(y + (0.5 * dt) * k2, t + 0.5 * dt), dtype=float)
    k4 = np.asarray(deriv(y + dt * k3, t + dt), dtype=float)
    # dividing the stage sum first keeps y + dt exact for a constant
    # unit derivative
    out = y + dt * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
    if not np.isfinite(out).all():
        raise DivergenceError(t)
    return out


@dataclass
class TimeSeries:
    """Recorded run: time, true state, applied control and diagnostics.

    Arrays are (samples,) for ``t`` and ``d`` and (samples, nodes) for the
    rest.  CSV column order is ``t``, then per node ``x, v, u, alpha, beta,
    s, V``, then ``d``; single-node runs drop the node suffix.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    s: np.ndarray
    V: np.ndarray
    d: np.ndarray
    diverged: bool = False
    diverged_at: float | None = None

    _PER_NODE = ("x", "v", "u", "alpha", "beta", "s", "V")

    @property
    def n_nodes(self) -> int:
        return self.x.shape[1]

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    def column_names(self) -> list[str]:
        return self._layout(self.n_nodes)

    @classmethod
    def _layout(cls, n_nodes: int) -> list[str]:
        names = ["t"]
        for i in range(n_nodes):
            suffix = "" if n_nodes == 1 else str(i + 1)
            names.extend(f"{base}{suffix}" for base in cls._PER_NODE)
        names.append("d")
        return names

    def column(self, name: str) -> np.ndarray:
        table = dict(zip(self.column_names(), self._columns()))
        if name not in table:
            raise InvalidInputError(
                f"unknown column '{name}', available: {', '.join(table)}"
            )
        return table[name]

    def _columns(self) -> list[np.ndarray]:
        cols = [self.t]
        for i in range(self.n_nodes):
            cols.extend(getattr(self, base)[:, i] for base in self._PER_NODE)
        cols.append(self.d)
        return cols

    def write_csv(self, path) -> None:
        cols = self._columns()
        names = self.column_names()
        with open(path, "w", newline="") as f:
            if self.diverged:
                f.write(f"# diverged_at={self.diverged_at!r}\n")
            f.write(",".join(names) + "\n")
            for row in zip(*cols):
                f.write(",".join(repr(float(val)) for val in row) + "\n")

    @classmethod
    def read_csv(cls, path) -> "TimeSeries":
        """Read a run CSV written by :meth:`write_csv`, bit for bit.

        Raises InvalidInputError for undecodable bytes, a header that is
        not a run layout, or a malformed body.
        """
        try:
            with open(path, "r", encoding="utf-8", newline="") as f:
                lines = f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not a UTF-8 text file: {exc}") from None
        comments = []
        while lines and lines[0].startswith("#"):
            comments.append(lines.pop(0))
        if not lines:
            raise InvalidInputError(f"{path}: empty CSV")
        names = lines[0].split(",")
        per = len(cls._PER_NODE)
        n_nodes, rest = divmod(len(names) - 2, per)
        if rest or n_nodes < 1 or names != cls._layout(n_nodes):
            raise InvalidInputError(f"{path}: header is not a run CSV layout")
        diverged = False
        diverged_at = None
        try:
            for head in comments:
                if head.startswith("# diverged_at="):
                    diverged = True
                    diverged_at = float(head.split("=", 1)[1])
            data = np.array(
                [[float(cell) for cell in line.split(",")] for line in lines[1:]]
            )
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed CSV: {exc}") from None
        if data.ndim != 2 or data.shape[1] != len(names):
            raise InvalidInputError(f"{path}: malformed CSV body")
        fields = {
            base: np.stack(
                [data[:, 1 + i * per + j] for i in range(n_nodes)], axis=1
            )
            for j, base in enumerate(cls._PER_NODE)
        }
        return cls(
            t=data[:, 0],
            d=data[:, -1],
            diverged=diverged,
            diverged_at=diverged_at,
            **fields,
        )


def simulate_run(scenario) -> TimeSeries:
    """Run one validated scenario to completion or divergence.

    Per step: measure (noise, then optional derivative estimate), evaluate
    each node controller on its own (x, v) pair, push the control vector
    through the input delay, sample the disturbance, record, then integrate
    one RK4 step with control and disturbance held.  Noise, delay, the
    velocity estimate and recording act on whole node vectors; only the
    control laws run once per node.

    A step whose result is non-finite or exceeds DIVERGENCE_LIMIT in
    magnitude ends the run: ``diverged_at`` is the time of that rejected
    state (t + dt) and the series keeps every sample before it, so at
    ``record_stride`` 1, ``diverged_at == n_samples * dt``.
    """
    plant = scenario.make_plant()
    n = plant.n_nodes
    cfg = scenario.sim
    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.record_stride

    ctrls = scenario.make_controllers()
    if len(ctrls) != n:
        raise ConfigError(f"expected {n} controllers, got {len(ctrls)}")
    streams = NoiseStreams(cfg.seed, n)
    delay = DelayLine(scenario.delay.tau, dt)
    estimator = None
    if scenario.estimate_velocity:
        estimator = LowPassDifferentiator(scenario.velocity_filter_cutoff_hz, dt)

    state = np.asarray(scenario.x0, dtype=float)
    if state.shape != (2 * n,):
        raise ConfigError(f"x0 must have length {2 * n}")

    n_rec = n_steps // stride + 1
    rec_t = np.empty(n_rec)
    rec_d = np.empty(n_rec)
    rec_state = np.empty((n_rec, 2 * n))
    rec_u = np.empty((n_rec, n))
    rec_diag = np.empty((n_rec, n, 4))   # alpha, beta, s, V

    diverged_at = None
    rec_i = 0

    for k in range(n_steps + 1):
        t = k * dt
        measured = apply_noise(state, scenario.noise, streams)
        xm = measured[0::2]
        vm = measured[1::2] if estimator is None else estimator.update(xm)
        g = plant.gain(measured)
        # one ControlOutput row per node: u, alpha, beta, s, V
        nodes = zip(ctrls, xm.tolist(), vm.tolist(), g.tolist())
        out = np.array([c.step(x, v, gi, dt) for c, x, v, gi in nodes], dtype=float)
        u_applied = delay.push(out[:, 0])
        d = eval_disturbance(scenario.disturbance, t)

        if k % stride == 0:
            rec_t[rec_i] = t
            rec_d[rec_i] = d
            rec_state[rec_i] = state
            rec_u[rec_i] = u_applied
            rec_diag[rec_i] = out[:, 1:]
            rec_i += 1

        if k == n_steps:
            break

        def deriv(y, tau, _u=u_applied, _d=d):
            return plant.derivative(y, tau, _u, _d)

        try:
            state = rk4_step(deriv, state, t, dt)
        except DivergenceError:
            state = None
        if state is None or np.abs(state).max() > DIVERGENCE_LIMIT:
            diverged_at = t + dt
            break

    return TimeSeries(
        t=rec_t[:rec_i],
        x=rec_state[:rec_i, 0::2],
        v=rec_state[:rec_i, 1::2],
        u=rec_u[:rec_i],
        alpha=rec_diag[:rec_i, :, 0],
        beta=rec_diag[:rec_i, :, 1],
        s=rec_diag[:rec_i, :, 2],
        V=rec_diag[:rec_i, :, 3],
        d=rec_d[:rec_i],
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
    )
