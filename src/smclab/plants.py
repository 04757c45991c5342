"""Second-order benchmark plants of the form xdd = f(x, xd, t) + g(x) u.

Four plants are shipped, selectable by name in scenario files:

* ``pendulum``   inverted pendulum,      xdd = a sin(x) - c v + b u
* ``vdp``        Van der Pol oscillator, xdd = mu (1 - x^2) v - x + b u
* ``duffing``    Duffing oscillator,     xdd = lin x + cub x^3 - delta v + b u
* ``network5``   ring of diffusively coupled pendulums, one input per node

State vectors are flat and interleaved, ``[x_1, v_1, ..., x_N, v_N]``, and
each plant function maps that list to the interleaved derivative list on
Python floats: the one-node plants unpack ``x, v = state``, the network
splits and re-interleaves its node lists.  The input gain is a constant
per-node vector (``b`` for every shipped plant).  Each params class
rejects ``|b| < 1e-9``, so ``validate`` does, and a :class:`PlantModel`
checks its ``g`` by the same rule, for a hand-built gain.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, nan, sin
from typing import Callable

import numpy as np

from .errors import ConfigError, SingularGainError

G_MIN = 1e-9
TOPOLOGIES = ("ring", "chain")


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(value)))


def _check_gain(what: str, g) -> None:
    if not np.all(np.abs(g) >= G_MIN):
        raise SingularGainError(f"{what} must be >= {G_MIN:g}")


@dataclass(frozen=True)
class PendulumParams:
    a: float = 1.0      # gravity torque coefficient
    c: float = 0.1      # viscous damping
    b: float = 1.0      # input gain

    def __post_init__(self):
        if not _finite((self.a, self.c, self.b)):
            raise ConfigError("pendulum parameters must be finite")
        if self.a < 0:
            raise ConfigError("pendulum a must be >= 0")
        if self.c < 0:
            raise ConfigError("pendulum c must be >= 0")
        _check_gain("pendulum |b|", self.b)


@dataclass(frozen=True)
class VanDerPolParams:
    mu: float = 1.0     # nonlinear damping strength
    b: float = 1.0

    def __post_init__(self):
        if not _finite((self.mu, self.b)):
            raise ConfigError("vdp parameters must be finite")
        if self.mu < 0:
            raise ConfigError("vdp mu must be >= 0")
        _check_gain("vdp |b|", self.b)


@dataclass(frozen=True)
class DuffingParams:
    lin: float = 1.0    # linear stiffness term
    cub: float = -1.0   # cubic stiffness term
    delta: float = 0.2  # viscous damping
    b: float = 1.0

    def __post_init__(self):
        if not _finite((self.lin, self.cub, self.delta, self.b)):
            raise ConfigError("duffing parameters must be finite")
        if self.delta < 0:
            raise ConfigError("duffing delta must be >= 0")
        _check_gain("duffing |b|", self.b)


@dataclass(frozen=True)
class NetworkParams:
    n: int = 5
    kappa: float = 0.5          # coupling strength
    topology: str = "ring"
    node: PendulumParams = PendulumParams()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ConfigError("network n must be an integer >= 2")
        if not _finite(self.kappa) or self.kappa < 0:
            raise ConfigError("network kappa must be >= 0")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"network topology must be one of {TOPOLOGIES}")


# Each plant maps the interleaved state list, the per-node gains gs and held
# controls us (lists of floats) and the disturbance d to the interleaved
# derivative list [v_1, a_1, ..., v_N, a_N].  Every acceleration keeps the
# operation order of the array form drift + g u + d, so the floats round
# exactly as the arrays did.


def _finite_sin(x: float) -> float:
    """np.sin's value on one float: nan, not an error, for +-inf."""
    return sin(x) if isfinite(x) else nan


def _pendulum(state, gs, us, d, p: PendulumParams) -> list:
    x, v = state
    try:
        s = sin(x)
    except ValueError:
        # math.sin raises on an infinite stage state; np.sin gave nan there,
        # which ends the step as a divergence
        s = nan
    return [v, p.a * s - p.c * v + gs[0] * us[0] + d]


def _vdp(state, gs, us, d, p: VanDerPolParams) -> list:
    x, v = state
    return [v, p.mu * (1.0 - x * x) * v - x + gs[0] * us[0] + d]


def _duffing(state, gs, us, d, p: DuffingParams) -> list:
    x, v = state
    # numpy's array power loop rounds x ** 3 differently from Python's float
    # power and from x * x * x, so the cube stays on it
    (x3,) = np.power([x], 3).tolist()
    return [v, p.lin * x + p.cub * x3 - p.delta * v + gs[0] * us[0] + d]


def _network(state, gs, us, d, p: NetworkParams, sin=sin) -> list:
    """Pendulum nodes plus diffusive coupling kappa * sum_j (x_j - x_i)."""
    a, c, k = p.node.a, p.node.c, p.kappa
    xs, vs = state[0::2], state[1::2]
    try:
        if p.topology == "ring":
            left, right = xs[-1:] + xs[:-1], xs[1:] + xs[:1]
            acc = [a * sin(x) - c * v + k * ((xl - x) + (xr - x)) + g * u + d
                   for xl, x, xr, v, g, u in zip(left, xs, right, vs, gs, us)]
        else:
            # a chain end has one neighbor; each coupling sum starts from +0.0
            left = [0.0] + [k * (xl - x) for xl, x in zip(xs, xs[1:])]
            right = [k * (xr - x) for x, xr in zip(xs, xs[1:])] + [0.0]
            acc = [a * sin(x) - c * v + ((0.0 + cl) + cr) + g * u + d
                   for x, v, cl, cr, g, u in zip(xs, vs, left, right, gs, us)]
    except ValueError:
        # as in _pendulum
        return _network(state, gs, us, d, p, _finite_sin)
    out = state[:]
    out[0::2], out[1::2] = vs, acc
    return out


@dataclass(frozen=True)
class PlantModel:
    """Uniform plant interface used by the simulator.

    ``f(state, gs, us, d, params)`` maps the interleaved state list
    ``[x_1, v_1, ..., x_N, v_N]``, the per-node input gains and held
    controls (lists of length N) and the disturbance to the interleaved
    closed-loop derivative list ``[v_1, a_1, ..., v_N, a_N]`` with
    ``a = drift + g u + d``.  The one-node plants unpack two floats.
    ``g`` is the constant per-node input gain (length N), read-only after
    construction.
    """

    name: str
    n_nodes: int
    params: object
    f: Callable[..., list]
    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        if g.shape != (self.n_nodes,):
            raise ConfigError(f"plant '{self.name}': g must have shape ({self.n_nodes},)")
        _check_gain(f"plant '{self.name}': |g|", g)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_g", g.tolist())

    def gain(self, state) -> np.ndarray:
        return self.g

    def derivative(self, state, t, u, d=0.0):
        """Closed-loop derivative for held control u and disturbance d.

        The simulator's step passes ``state`` and ``u`` as lists of floats
        and gets a list back.  Any other input (an array, a scalar u) gives
        an ndarray with the same values.
        """
        if type(state) is list and type(u) is list:
            return self.f(state, self._g, u, d, self.params)
        state = np.asarray(state, dtype=float).tolist()
        u = np.broadcast_to(np.asarray(u, dtype=float), (self.n_nodes,)).tolist()
        return np.array(self.f(state, self._g, u, float(d), self.params))


# name -> (params type, derivative function, params -> (nodes, input gain))
_PLANTS = {
    "pendulum": (PendulumParams, _pendulum, lambda p: (1, p.b)),
    "vdp": (VanDerPolParams, _vdp, lambda p: (1, p.b)),
    "duffing": (DuffingParams, _duffing, lambda p: (1, p.b)),
    "network5": (NetworkParams, _network, lambda p: (p.n, p.node.b)),
}
PLANT_NAMES = tuple(_PLANTS)


def param_type(name: str):
    if name not in _PLANTS:
        raise ConfigError(f"unknown plant '{name}', expected one of {PLANT_NAMES}")
    return _PLANTS[name][0]


def node_count(name: str, params) -> int:
    """Number of nodes of the named plant with these parameters."""
    return _PLANTS[name][2](params)[0]


def make_plant(name: str, params=None) -> PlantModel:
    """Build a PlantModel by selector name, with optional parameter override."""
    cls = param_type(name)
    if params is None:
        params = cls()
    if not isinstance(params, cls):
        raise ConfigError(f"plant '{name}' expects {cls.__name__} parameters")
    n, b = _PLANTS[name][2](params)
    return PlantModel(name=name, n_nodes=n, params=params,
                      f=_PLANTS[name][1], g=np.full(n, float(b)))
