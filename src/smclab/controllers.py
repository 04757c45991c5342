"""Sliding mode controller variants for second-order plants.

Every law maps a measured (x, v) pair and the local input gain g to the
control ``u`` and the surface terms ``alpha`` and ``beta``, from which
:func:`surface_energy` gives the sliding variable ``s = alpha - beta`` and
the energy ``V = s^2 / 2``.

* ``observer-free``   u = -lambda tanh(alpha), alpha = v + k1 x,
                      beta = u / g, s = alpha - beta
* ``classical``       u = -k sign(s), s = v + lam_s x (sign(0) = 0)
* ``super-twisting``  u = -k1st sqrt(|s|) sign(s) + vi, vi integrated
                      with vi' = -k2st sign(s)
* ``adaptive``        u = -k sat(s / phi), gain k grows with |s| up to kmax
* ``none``            u = 0, for open-loop reference runs

The baselines record ``alpha = s`` and ``beta = 0`` so every run shares one
output schema.

Each law's arithmetic exists once, in its list form: per-node lists of x,
v and g in, per-node lists u, alpha and beta out.  The simulator calls it
once per step per group of nodes sharing a law and its parameters
(:func:`node_laws`).  The public one-node functions are thin calls into it
that check their inputs first: finite x, v and g, ``|g| >= G_MIN``, dt > 0.

Parameter sets are frozen.  The two stateful laws take their run state as an
argument and return it advanced next to the output; :class:`Controller`
holds it for one node, :func:`node_laws` for a run's nodes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (InvalidInputError, SingularGainError, check_positive, check_ranges,
                     is_number, named_params)
from .plants import G_MIN

TANH_TABLE_MIN = 64
TANH_TABLE_MAX = 2 ** 16    # 1 MB of grid and table
TANH_TABLE_SPAN = 6.0


class ControlOutput(NamedTuple):
    u: float
    alpha: float
    beta: float
    s: float
    V: float


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


def _tanh_size_rule(size, exact_ok: bool) -> tuple[bool, str]:
    """The tanh table size rule as a :func:`check_ranges` pair: an integer in
    [TANH_TABLE_MIN, TANH_TABLE_MAX], or 0 (exact tanh) where ``exact_ok``."""
    ok = is_number(size, numbers.Integral) and (
        TANH_TABLE_MIN <= size <= TANH_TABLE_MAX or exact_ok and size == 0)
    span = f"in [{TANH_TABLE_MIN}, {TANH_TABLE_MAX}]"
    return ok, f"tanh table size must be {'0 or ' if exact_ok else ''}{span}"


@dataclass(frozen=True)
class ObserverFreeParams:
    k1: float = 1.0             # surface slope, alpha = v + k1 x
    lam: float = 5.0            # control amplitude, |u| <= lam
    tanh_table_size: int = 0    # 0 = exact tanh, 64 .. 2**16 = lookup table

    def __post_init__(self):
        check_ranges(
            positive={"observer-free k1": self.k1, "observer-free lambda": self.lam},
            rules=[_tanh_size_rule(self.tanh_table_size, exact_ok=True)])


@dataclass(frozen=True)
class ClassicalParams:
    lam_s: float = 1.0          # surface slope, s = v + lam_s x
    k: float = 5.0              # switching gain

    def __post_init__(self):
        check_ranges(positive={"classical lam_s": self.lam_s, "classical k": self.k})


@dataclass(frozen=True)
class SuperTwistingParams:
    lam_s: float = 1.0
    k1st: float = 1.5 * math.sqrt(5.0)
    k2st: float = 5.5

    def __post_init__(self):
        check_ranges(positive={"super-twisting lam_s": self.lam_s,
                               "super-twisting k1st": self.k1st,
                               "super-twisting k2st": self.k2st})


@dataclass(frozen=True)
class AdaptiveParams:
    lam_s: float = 1.0
    gamma: float = 5.0          # adaptation rate
    phi: float = 0.05           # boundary layer half width
    k0: float = 1.0             # initial gain
    kmax: float = 50.0          # adaptation ceiling

    def __post_init__(self):
        number = is_number(self.kmax)
        check_ranges(positive={"adaptive lam_s": self.lam_s, "adaptive phi": self.phi},
                     nonnegative={"adaptive gamma": self.gamma, "adaptive k0": self.k0},
                     # kmax is compared with a valid k0 only
                     rules=[(math.isfinite(self.kmax) and number
                             and (self.kmax >= self.k0 or not 0 <= self.k0 < math.inf),
                             f"adaptive kmax must be {'>= k0' if number else 'a number'}")])


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
    check_ranges(rules=[_tanh_size_rule(table_size, exact_ok=False)])
    return _tanh_lookup([alpha], table_size)[0]


def _tanh_lookup(alpha: list, size: int) -> list:
    """:func:`tanh_fast` over a list of floats, with one ``np.interp`` call.

    ``np.interp`` returns the table's last value at or above the span, which
    is the clamp; negative arguments are mirrored.
    """
    grid, table = _tanh_table(size)
    mags = np.interp(np.abs(alpha), grid, table).tolist()
    return [-m if a < 0 else m for a, m in zip(alpha, mags)]


def surface_energy(alpha, beta):
    """(s, V) = (alpha - beta, 0.5 * s * s), on floats or elementwise on
    arrays, with the same bits and, like floats, no overflow warnings.
    For the baselines' beta = 0.0, s is alpha bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = alpha - beta
        return s, 0.5 * s * s


def _surface(p, xs, vs) -> list:
    return [v + p.lam_s * x for x, v in zip(xs, vs)]


def _observer_free_rows(p, state, xs, vs, gs, dt):
    if len(xs) == 1 and not p.tanh_table_size:
        # one node: the same operations on floats, without the comprehensions
        (x,), (v,), (g,) = xs, vs, gs
        alpha = v + p.k1 * x
        u = -p.lam * math.tanh(alpha)
        return ([u], [alpha], [u / g]), state
    alpha = [v + p.k1 * x for x, v in zip(xs, vs)]
    size = p.tanh_table_size
    th = _tanh_lookup(alpha, size) if size else map(math.tanh, alpha)
    u = [-p.lam * t for t in th]
    return (u, alpha, [ui / g for ui, g in zip(u, gs)]), state


def _classical_rows(p, state, xs, vs, gs, dt):
    s = _surface(p, xs, vs)
    return ([-p.k * _sign(si) for si in s], s, [0.0] * len(s)), state


def _super_twisting_rows(p, vis, xs, vs, gs, dt):
    s = _surface(p, xs, vs)
    u = [-p.k1st * math.sqrt(abs(si)) * _sign(si) + vi for si, vi in zip(s, vis)]
    vis = [vi - p.k2st * _sign(si) * dt for si, vi in zip(s, vis)]
    return (u, s, [0.0] * len(s)), vis


def _adaptive_rows(p, ks, xs, vs, gs, dt):
    s = _surface(p, xs, vs)
    u = [-k * min(1.0, max(-1.0, si / p.phi)) for si, k in zip(s, ks)]
    ks = [min(p.kmax, k + p.gamma * abs(si) * dt) for si, k in zip(s, ks)]
    return (u, s, [0.0] * len(s)), ks


def _one(rows, p, state, x, v, g, dt) -> tuple[ControlOutput, object]:
    """A list form on one node; ``state`` is that node's state or None."""
    (u, alpha, beta), state = rows(p, None if state is None else [state], [x], [v], [g], dt)
    out = ControlOutput(u[0], alpha[0], beta[0], *surface_energy(alpha[0], beta[0]))
    return out, None if state is None else state[0]


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
    return _one(_observer_free_rows, p, None, x, v, g_val, None)[0]


def classical_smc_control(x, v, p: ClassicalParams) -> ControlOutput:
    """Discontinuous control u = -k sign(s) on the surface s = v + lam_s x."""
    return _one(_classical_rows, p, None, *_check_pair(x, v), None, None)[0]


def super_twisting_control(x, v, dt, p: SuperTwistingParams,
                           vi: float) -> tuple[ControlOutput, float]:
    """Second-order sliding control; the integrator advances after output.

    u = -k1st sqrt(|s|) sign(s) + vi, and the returned integrator state is
    vi - k2st sign(s) dt.
    """
    return _one(_super_twisting_rows, p, vi, *_check_pair(x, v), None, check_positive(float(dt)))


def adaptive_smc_control(x, v, dt, p: AdaptiveParams,
                         k: float) -> tuple[ControlOutput, float]:
    """Boundary layer control u = -k sat(s / phi) with gain adaptation.

    The returned gain min(kmax, k + gamma |s| dt) is formed after the output.
    """
    return _one(_adaptive_rows, p, k, *_check_pair(x, v), None, check_positive(float(dt)))


class _Law(NamedTuple):
    params: type
    # list form: (params, states, xs, vs, gs, dt) -> ((u, alpha, beta),
    # states) over per-node lists; states is None for laws that keep none
    rows: Callable
    # params -> a priori bound on |u|, None when the law carries no such bound
    input_bound: Callable
    # params -> state at t = 0; None for laws that keep no state
    initial_state: Callable | None = None


_LAWS = {
    "observer-free": _Law(ObserverFreeParams, _observer_free_rows, lambda p: p.lam),
    "classical": _Law(ClassicalParams, _classical_rows, lambda p: p.k),
    "super-twisting": _Law(SuperTwistingParams, _super_twisting_rows,
                           lambda p: None, lambda p: 0.0),
    "adaptive": _Law(AdaptiveParams, _adaptive_rows, lambda p: p.kmax, lambda p: p.k0),
    "none": _Law(type(None), lambda p, st, xs, *_: (([0.0] * len(xs),) * 3, st),
                 lambda p: 0.0),
}
CONTROLLER_NAMES = tuple(_LAWS)


def param_type(name: str):
    return named_params("controller", _LAWS, name)[0].params


def is_observer_free(name: str) -> bool | None:
    """True when the law needs no state beyond the measured (x, v) pair,
    None for a name that is not a known law."""
    law = _LAWS.get(name)
    return None if law is None else law.initial_state is None


def declared_input_bound(name: str, params) -> float | None:
    """A priori bound on |u|, or None when the law carries no such bound."""
    law = _LAWS.get(name)
    return None if law is None else law.input_bound(params)


def _bind(name: str, params):
    """(list form, params, state at t = 0) for a checked name and params."""
    law, params = named_params("controller", _LAWS, name, params)
    return law.rows, params, None if law.initial_state is None else law.initial_state(params)


class Controller:
    """One control law bound to one plant node, holding its run state.

    Parameters are frozen and may be shared between nodes and runs; each
    controller starts from the law's initial state.  ``step`` runs the
    law's list form on one node and checks nothing; the public one-node
    functions check their inputs.
    """

    def __init__(self, name: str, params=None):
        self._rows, self.params, self.state = _bind(name, params)
        self.name = name

    def step(self, x, v, g_val, dt) -> ControlOutput:
        out, self.state = _one(self._rows, self.params, self.state, x, v, g_val, dt)
        return out


def node_groups(names, params) -> dict:
    """Which nodes share a law: ``(law, repr(params)) -> node indices``, in
    node order.  repr tells -0.0 from 0.0, which == does not."""
    groups = {}
    for i, key in enumerate(zip(names, map(repr, params))):
        groups.setdefault(key, []).append(i)
    return groups


def node_laws(names, params) -> Callable:
    """One control step over a run's nodes, ``(xs, vs, gs, dt) -> (u, alpha,
    beta)``, per-node lists in and out; node i runs law ``names[i]`` with
    ``params[i]``.

    Nodes are grouped by :func:`node_groups` once, and each step calls every
    group's list form once with the group's run state.  One group spanning
    every node gets the lists as they are.  Nothing is checked per step:
    the simulator checks the state after every step, and a plant rejects
    ``|g| < G_MIN`` when it is built.
    """
    parts = []
    for (name, _), nodes in node_groups(names, params).items():
        rows, p, st = _bind(name, params[nodes[0]])
        parts.append([rows, p, None if st is None else [st] * len(nodes), nodes])
    n = len(names)

    def step(xs, vs, gs, dt):
        if len(parts) == 1:
            part = parts[0]
            cols, part[2] = part[0](part[1], part[2], xs, vs, gs, dt)
            return cols
        cols = [[0.0] * n for _ in range(3)]
        for part in parts:
            rows, p, state, nodes = part
            picked = ([seq[i] for i in nodes] for seq in (xs, vs, gs))
            got, part[2] = rows(p, state, *picked, dt)
            for col, values in zip(cols, got):
                for i, value in zip(nodes, values):
                    col[i] = value
        return cols

    return step
