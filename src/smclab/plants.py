"""Second-order benchmark plants of the form xdd = f(x, xd, t) + g(x) u.

Four plants are shipped, selectable by name in scenario files:

* ``pendulum``   inverted pendulum,      xdd = a sin(x) - c v + b u
* ``vdp``        Van der Pol oscillator, xdd = mu (1 - x^2) v - x + b u
* ``duffing``    Duffing oscillator,     xdd = lin x + cub x^3 - delta v + b u
* ``network5``   ring of diffusively coupled pendulums, one input per node

State vectors are flat and interleaved, ``[x_1, v_1, ..., x_N, v_N]``.
The drift is a pure function of the state, evaluated on Python floats.  The
input gain is a constant per-node vector (``b`` for every shipped plant),
checked for ``|g| >= 1e-9`` once, when a :class:`PlantModel` is built.
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
        if self.b == 0:
            raise ConfigError("pendulum b must be nonzero")


@dataclass(frozen=True)
class VanDerPolParams:
    mu: float = 1.0     # nonlinear damping strength
    b: float = 1.0

    def __post_init__(self):
        if not _finite((self.mu, self.b)):
            raise ConfigError("vdp parameters must be finite")
        if self.mu < 0:
            raise ConfigError("vdp mu must be >= 0")
        if self.b == 0:
            raise ConfigError("vdp b must be nonzero")


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
        if self.b == 0:
            raise ConfigError("duffing b must be nonzero")


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


# Each plant maps per-node lists of floats (positions xs, velocities vs,
# gains gs, held controls us) and the disturbance d to the list of closed-loop
# accelerations.  Every expression keeps the operation order of the array
# form drift + g u + d, so the floats round exactly as the arrays did.


def _finite_sin(x: float) -> float:
    """np.sin's value on one float: nan, not an error, for +-inf."""
    return sin(x) if isfinite(x) else nan


def _pendulum_acc(xs, vs, gs, us, d, p: PendulumParams, sin=sin) -> list:
    a, c = p.a, p.c
    try:
        return [a * sin(x) - c * v + g * u + d for x, v, g, u in zip(xs, vs, gs, us)]
    except ValueError:
        # math.sin raises on an infinite stage state; np.sin gave nan there,
        # which ends the step as a divergence
        return _pendulum_acc(xs, vs, gs, us, d, p, _finite_sin)


def _vdp_acc(xs, vs, gs, us, d, p: VanDerPolParams) -> list:
    mu = p.mu
    return [mu * (1.0 - x * x) * v - x + g * u + d for x, v, g, u in zip(xs, vs, gs, us)]


def _duffing_acc(xs, vs, gs, us, d, p: DuffingParams) -> list:
    # numpy's array power loop rounds x ** 3 differently from Python's float
    # power and from x * x * x, so the cube stays on it
    cubes = np.power(xs, 3).tolist()
    lin, cub, delta = p.lin, p.cub, p.delta
    return [lin * x + cub * x3 - delta * v + g * u + d
            for x, x3, v, g, u in zip(xs, cubes, vs, gs, us)]


def _network_acc(xs, vs, gs, us, d, p: NetworkParams, sin=sin) -> list:
    """Pendulum nodes plus diffusive coupling kappa * sum_j (x_j - x_i)."""
    a, c, k = p.node.a, p.node.c, p.kappa
    try:
        if p.topology == "ring":
            left, right = xs[-1:] + xs[:-1], xs[1:] + xs[:1]
            return [a * sin(x) - c * v + k * ((xl - x) + (xr - x)) + g * u + d
                    for xl, x, xr, v, g, u in zip(left, xs, right, vs, gs, us)]
        # a chain end has one neighbor; each coupling sum starts from +0.0
        left = [0.0] + [k * (xl - x) for xl, x in zip(xs, xs[1:])]
        right = [k * (xr - x) for x, xr in zip(xs, xs[1:])] + [0.0]
        return [a * sin(x) - c * v + ((0.0 + cl) + cr) + g * u + d
                for x, v, cl, cr, g, u in zip(xs, vs, left, right, gs, us)]
    except ValueError:
        # as in _pendulum_acc
        return _network_acc(xs, vs, gs, us, d, p, _finite_sin)


@dataclass(frozen=True)
class PlantModel:
    """Uniform plant interface used by the simulator.

    ``f(xs, vs, gs, us, d, params)`` maps per-node lists of positions,
    velocities, input gains and held controls, and the disturbance, to the
    list of closed-loop accelerations ``drift + g u + d`` (length N).
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
        if not np.all(np.abs(g) >= G_MIN):
            raise SingularGainError(f"plant '{self.name}': |g| must be >= {G_MIN:g}")
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
        as_array = type(state) is not list or type(u) is not list
        if as_array:
            state = np.asarray(state, dtype=float).tolist()
            u = np.broadcast_to(np.asarray(u, dtype=float), (self.n_nodes,)).tolist()
            d = float(d)
        xs, vs = state[0::2], state[1::2]
        out = state[:]
        out[0::2] = vs
        out[1::2] = self.f(xs, vs, self._g, u, d, self.params)
        return np.array(out) if as_array else out


# name -> (params type, acceleration function, params -> (nodes, input gain))
_PLANTS = {
    "pendulum": (PendulumParams, _pendulum_acc, lambda p: (1, p.b)),
    "vdp": (VanDerPolParams, _vdp_acc, lambda p: (1, p.b)),
    "duffing": (DuffingParams, _duffing_acc, lambda p: (1, p.b)),
    "network5": (NetworkParams, _network_acc, lambda p: (p.n, p.node.b)),
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
