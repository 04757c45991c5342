"""Second-order benchmark plants of the form xdd = f(x, xd, t) + g(x) u.

Four plants are shipped, selectable by name in scenario files:

* ``pendulum``   inverted pendulum,      xdd = a sin(x) - c v + b u
* ``vdp``        Van der Pol oscillator, xdd = mu (1 - x^2) v - x + b u
* ``duffing``    Duffing oscillator,     xdd = lin x + cub x^3 - delta v + b u
* ``network5``   ring of diffusively coupled pendulums, one input per node

State vectors are flat and interleaved, ``[x_1, v_1, ..., x_N, v_N]``.
The drift is a pure function of the state.  The input gain is a constant
per-node vector (``b`` for every shipped plant), checked for ``|g| >= 1e-9``
once, when a :class:`PlantModel` is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, SingularGainError

G_MIN = 1e-9
PLANT_NAMES = ("pendulum", "vdp", "duffing", "network5")
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


def _pendulum_drift(x, v, p: PendulumParams):
    return p.a * np.sin(x) - p.c * v


def _vdp_drift(x, v, p: VanDerPolParams):
    return p.mu * (1.0 - x * x) * v - x


def _duffing_drift(x, v, p: DuffingParams):
    return p.lin * x + p.cub * x ** 3 - p.delta * v


def _coupling(x: np.ndarray, p: NetworkParams, prev, nxt) -> np.ndarray:
    """Diffusive position coupling kappa * sum_j (x_j - x_i) over neighbors.

    On a ring, ``prev``/``nxt`` index each node's two neighbors.
    """
    if p.topology == "ring":
        return p.kappa * ((x[prev] - x) + (x[nxt] - x))
    acc = np.zeros_like(x)
    acc[1:] += p.kappa * (x[:-1] - x[1:])
    acc[:-1] += p.kappa * (x[1:] - x[:-1])
    return acc


def _network_drift(x, v, p: NetworkParams, prev, nxt):
    return _pendulum_drift(x, v, p.node) + _coupling(x, p, prev, nxt)


def _assemble(state: np.ndarray, acc: np.ndarray) -> np.ndarray:
    out = np.empty_like(state)
    out[0::2] = state[1::2]
    out[1::2] = acc
    return out


@dataclass(frozen=True)
class PlantModel:
    """Uniform plant interface used by the simulator.

    ``f(state, t)`` returns the per-node drift acceleration (length N) and
    ``g`` is the constant per-node input gain (length N), read-only after
    construction.
    """

    name: str
    n_nodes: int
    params: object
    f: Callable[[np.ndarray, float], np.ndarray]
    g: np.ndarray

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        if g.shape != (self.n_nodes,):
            raise ConfigError(f"plant '{self.name}': g must have shape ({self.n_nodes},)")
        if not np.all(np.abs(g) >= G_MIN):
            raise SingularGainError(f"plant '{self.name}': |g| must be >= {G_MIN:g}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    def gain(self, state) -> np.ndarray:
        return self.g

    def derivative(self, state, t, u, d=0.0) -> np.ndarray:
        """Closed-loop derivative for held control u and disturbance d."""
        state = np.asarray(state, dtype=float)
        acc = self.f(state, t) + self.g * u + d
        return _assemble(state, acc)


_PARAM_TYPES = {
    "pendulum": PendulumParams,
    "vdp": VanDerPolParams,
    "duffing": DuffingParams,
    "network5": NetworkParams,
}


def param_type(name: str):
    if name not in _PARAM_TYPES:
        raise ConfigError(f"unknown plant '{name}', expected one of {PLANT_NAMES}")
    return _PARAM_TYPES[name]


def make_plant(name: str, params=None) -> PlantModel:
    """Build a PlantModel by selector name, with optional parameter override."""
    cls = param_type(name)
    if params is None:
        params = cls()
    if not isinstance(params, cls):
        raise ConfigError(f"plant '{name}' expects {cls.__name__} parameters")

    if name == "pendulum":
        n, drift, b = 1, lambda s, t: _pendulum_drift(s[0::2], s[1::2], params), params.b
    elif name == "vdp":
        n, drift, b = 1, lambda s, t: _vdp_drift(s[0::2], s[1::2], params), params.b
    elif name == "duffing":
        n, drift, b = 1, lambda s, t: _duffing_drift(s[0::2], s[1::2], params), params.b
    else:
        n, b = params.n, params.node.b
        prev, nxt = np.roll(np.arange(n), 1), np.roll(np.arange(n), -1)
        drift = lambda s, t: _network_drift(s[0::2], s[1::2], params, prev, nxt)
    return PlantModel(name=name, n_nodes=n, params=params, f=drift, g=np.full(n, float(b)))
