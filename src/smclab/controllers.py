"""Sliding mode controller variants for second-order plants.

All controllers act on one measured (x, v) pair and emit a
:class:`ControlOutput` carrying the control value plus diagnostics with a
shared schema: ``u``, ``alpha``, ``beta``, sliding variable ``s`` and the
energy ``V = s^2 / 2``.

* ``observer-free``   u = -lambda tanh(alpha), alpha = v + k1 x,
                      beta = u / g, s = alpha - beta
* ``classical``       u = -k sign(s), s = v + lam_s x (sign(0) = 0)
* ``super-twisting``  u = -k1st sqrt(|s|) sign(s) + vi, vi integrated
                      with vi' = -k2st sign(s)
* ``adaptive``        u = -k sat(s / phi), gain k grows with |s| up to kmax
* ``none``            u = 0, for open-loop reference runs

The baselines record ``alpha = s`` and ``beta = 0`` so every run shares one
output schema.

Parameter sets are frozen.  The two stateful laws take their run state as an
argument and return it advanced next to the output; :class:`Controller` is
the only holder of that state during a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError, SingularGainError

G_MIN = 1e-9
TANH_TABLE_MIN = 64
TANH_TABLE_SPAN = 6.0


class ControlOutput(NamedTuple):
    u: float
    alpha: float
    beta: float
    s: float
    V: float


def _out(u: float, alpha: float, beta: float, s: float) -> ControlOutput:
    return ControlOutput(u=u, alpha=alpha, beta=beta, s=s, V=0.5 * s * s)


def _check_pair(x, v) -> tuple[float, float]:
    x = float(x)
    v = float(v)
    if not (math.isfinite(x) and math.isfinite(v)):
        raise InvalidInputError("measured state must be finite")
    return x, v


def _sign(s: float) -> float:
    if s > 0.0:
        return 1.0
    if s < 0.0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class ObserverFreeParams:
    k1: float = 1.0             # surface slope, alpha = v + k1 x
    lam: float = 5.0            # control amplitude, |u| <= lam
    tanh_table_size: int = 0    # 0 = exact tanh, >=64 = lookup table

    def __post_init__(self):
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ConfigError("observer-free k1 must be > 0")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("observer-free lambda must be > 0")
        if self.tanh_table_size != 0 and self.tanh_table_size < TANH_TABLE_MIN:
            raise ConfigError(f"tanh table size must be 0 or >= {TANH_TABLE_MIN}")


@dataclass(frozen=True)
class ClassicalParams:
    lam_s: float = 1.0          # surface slope, s = v + lam_s x
    k: float = 5.0              # switching gain

    def __post_init__(self):
        if not (math.isfinite(self.lam_s) and self.lam_s > 0):
            raise ConfigError("classical lam_s must be > 0")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ConfigError("classical k must be > 0")


@dataclass(frozen=True)
class SuperTwistingParams:
    lam_s: float = 1.0
    k1st: float = 1.5 * math.sqrt(5.0)
    k2st: float = 5.5

    def __post_init__(self):
        if not (math.isfinite(self.lam_s) and self.lam_s > 0):
            raise ConfigError("super-twisting lam_s must be > 0")
        if not (math.isfinite(self.k1st) and self.k1st > 0):
            raise ConfigError("super-twisting k1st must be > 0")
        if not (math.isfinite(self.k2st) and self.k2st > 0):
            raise ConfigError("super-twisting k2st must be > 0")


@dataclass(frozen=True)
class AdaptiveParams:
    lam_s: float = 1.0
    gamma: float = 5.0          # adaptation rate
    phi: float = 0.05           # boundary layer half width
    k0: float = 1.0             # initial gain
    kmax: float = 50.0          # adaptation ceiling

    def __post_init__(self):
        if not (math.isfinite(self.lam_s) and self.lam_s > 0):
            raise ConfigError("adaptive lam_s must be > 0")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError("adaptive gamma must be >= 0")
        if not (math.isfinite(self.phi) and self.phi > 0):
            raise ConfigError("adaptive phi must be > 0")
        if not (math.isfinite(self.k0) and self.k0 >= 0):
            raise ConfigError("adaptive k0 must be >= 0")
        if not (math.isfinite(self.kmax) and self.kmax >= self.k0):
            raise ConfigError("adaptive kmax must be >= k0")


@lru_cache(maxsize=None)
def _tanh_table(size: int):
    grid = np.linspace(0.0, TANH_TABLE_SPAN, size)
    return grid, np.tanh(grid)


def tanh_fast(alpha: float, table_size: int = 1024) -> float:
    """Piecewise-linear tanh lookup on [-6, 6], clamped to tanh(6) outside.

    Odd symmetry is exact: the table holds ``table_size`` samples on [0, 6]
    and negative arguments are mirrored.  Max absolute error is <= 1e-3 for
    ``table_size >= 1024``.
    """
    if table_size < TANH_TABLE_MIN:
        raise ConfigError(f"tanh table size must be >= {TANH_TABLE_MIN}")
    grid, table = _tanh_table(table_size)
    a = abs(alpha)
    if a >= TANH_TABLE_SPAN:
        mag = float(table[-1])
    else:
        mag = float(np.interp(a, grid, table))
    return -mag if alpha < 0 else mag


def observer_free_control(x, v, g_val, p: ObserverFreeParams) -> ControlOutput:
    """Smooth bounded control u = -lambda tanh(alpha), alpha = v + k1 x.

    The sliding variable is s = alpha - beta with beta = u / g, hence
    s = alpha + (lambda / g) tanh(alpha).  Only the measured pair and the
    local input gain are needed; no auxiliary state estimate is kept.
    """
    x, v = _check_pair(x, v)
    g_val = float(g_val)
    if not math.isfinite(g_val):
        raise InvalidInputError("g_val must be finite")
    if abs(g_val) < G_MIN:
        raise SingularGainError(f"|g| < {G_MIN:g}, cannot normalize control")
    alpha = v + p.k1 * x
    if p.tanh_table_size:
        th = tanh_fast(alpha, p.tanh_table_size)
    else:
        th = math.tanh(alpha)
    u = -p.lam * th
    beta = u / g_val
    s = alpha - beta
    return _out(u, alpha, beta, s)


def classical_smc_control(x, v, p: ClassicalParams) -> ControlOutput:
    """Discontinuous control u = -k sign(s) on the surface s = v + lam_s x."""
    x, v = _check_pair(x, v)
    s = v + p.lam_s * x
    u = -p.k * _sign(s)
    return _out(u, s, 0.0, s)


def super_twisting_control(x, v, dt, p: SuperTwistingParams,
                           vi: float) -> tuple[ControlOutput, float]:
    """Second-order sliding control; the integrator advances after output.

    u = -k1st sqrt(|s|) sign(s) + vi, and the returned integrator state is
    vi - k2st sign(s) dt.
    """
    x, v = _check_pair(x, v)
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidInputError("dt must be > 0")
    s = v + p.lam_s * x
    u = -p.k1st * math.sqrt(abs(s)) * _sign(s) + vi
    return _out(u, s, 0.0, s), vi - p.k2st * _sign(s) * dt


def adaptive_smc_control(x, v, dt, p: AdaptiveParams,
                         k: float) -> tuple[ControlOutput, float]:
    """Boundary layer control u = -k sat(s / phi) with gain adaptation.

    The returned gain min(kmax, k + gamma |s| dt) is formed after the output.
    """
    x, v = _check_pair(x, v)
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidInputError("dt must be > 0")
    s = v + p.lam_s * x
    sat = min(1.0, max(-1.0, s / p.phi))
    u = -k * sat
    return _out(u, s, 0.0, s), min(p.kmax, k + p.gamma * abs(s) * dt)


_ZERO = ControlOutput(0.0, 0.0, 0.0, 0.0, 0.0)


class _Law(NamedTuple):
    params: type
    # (params, state, x, v, g, dt) -> (ControlOutput, state)
    step: Callable
    # params -> a priori bound on |u|, None when the law carries no such bound
    input_bound: Callable
    # params -> state at t = 0; None for laws that keep no state
    initial_state: Callable | None = None


_LAWS = {
    "observer-free": _Law(
        ObserverFreeParams,
        lambda p, st, x, v, g, dt: (observer_free_control(x, v, g, p), st),
        lambda p: p.lam,
    ),
    "classical": _Law(
        ClassicalParams,
        lambda p, st, x, v, g, dt: (classical_smc_control(x, v, p), st),
        lambda p: p.k,
    ),
    "super-twisting": _Law(
        SuperTwistingParams,
        lambda p, vi, x, v, g, dt: super_twisting_control(x, v, dt, p, vi),
        lambda p: None,
        lambda p: 0.0,
    ),
    "adaptive": _Law(
        AdaptiveParams,
        lambda p, k, x, v, g, dt: adaptive_smc_control(x, v, dt, p, k),
        lambda p: p.kmax,
        lambda p: p.k0,
    ),
    "none": _Law(type(None), lambda p, st, x, v, g, dt: (_ZERO, st), lambda p: 0.0),
}
CONTROLLER_NAMES = tuple(_LAWS)


def param_type(name: str):
    if name not in _LAWS:
        raise ConfigError(
            f"unknown controller '{name}', expected one of {CONTROLLER_NAMES}"
        )
    return _LAWS[name].params


def is_observer_free(name: str) -> bool | None:
    """True when the law needs no state beyond the measured (x, v) pair,
    None for a name that is not a known law."""
    law = _LAWS.get(name)
    return None if law is None else law.initial_state is None


def declared_input_bound(name: str, params) -> float | None:
    """A priori bound on |u|, or None when the law carries no such bound."""
    law = _LAWS.get(name)
    return None if law is None else law.input_bound(params)


class Controller:
    """One control law bound to one plant node, holding its run state.

    Parameters are frozen and may be shared between nodes and runs; each
    controller starts from the law's initial state.
    """

    def __init__(self, name: str, params=None):
        cls = param_type(name)
        if params is None:
            params = cls()
        if not isinstance(params, cls):
            raise ConfigError(f"controller '{name}' expects {cls.__name__} parameters")
        law = _LAWS[name]
        self.name = name
        self.params = params
        self.state = None if law.initial_state is None else law.initial_state(params)
        self._law = law.step

    def step(self, x, v, g_val, dt) -> ControlOutput:
        out, self.state = self._law(self.params, self.state, x, v, g_val, dt)
        return out


def make_controller(name: str, params=None) -> Controller:
    return Controller(name, params)
