"""Plant dynamics: hand-checked evaluations, coupling algebra, errors."""
import math

import numpy as np
import pytest

from smclab import plants
from smclab.errors import ConfigError, SingularGainError
from smclab.plants import (
    DuffingParams,
    NetworkParams,
    PendulumParams,
    VanDerPolParams,
    make_plant,
)


def deriv(name, state, u, p):
    """State derivative of a named plant at t = 0, no disturbance."""
    return make_plant(name, p).derivative(state, 0.0, u)


def test_pendulum_equilibrium():
    p = PendulumParams(a=1.0, c=0.0, b=1.0)
    out = deriv("pendulum", [0.0, 0.0], 0.0, p)
    assert np.array_equal(out, [0.0, 0.0])


def test_pendulum_gravity_term():
    # sin(pi/2) = 1, no damping, no input
    p = PendulumParams(a=1.0, c=0.0, b=1.0)
    out = deriv("pendulum", [math.pi / 2, 0.0], 0.0, p)
    assert out[0] == 0.0
    assert abs(out[1] - 1.0) < 1e-15


def test_pendulum_pure_input_channel():
    p = PendulumParams(a=1.0, c=0.0, b=1.0)
    out = deriv("pendulum", [0.0, 0.0], 2.0, p)
    assert np.array_equal(out, [0.0, 2.0])


def test_vdp_origin_equilibrium():
    out = deriv("vdp", [0.0, 0.0], 0.0, VanDerPolParams(mu=1.0))
    assert np.array_equal(out, [0.0, 0.0])


def test_vdp_on_unit_circle():
    # mu(1 - 1)*1 - 1 = -1
    out = deriv("vdp", [1.0, 1.0], 0.0, VanDerPolParams(mu=1.0))
    assert np.array_equal(out, [1.0, -1.0])


def test_vdp_damping_term():
    # 2*(1 - 0)*1 - 0 = 2
    out = deriv("vdp", [0.0, 1.0], 0.0, VanDerPolParams(mu=2.0))
    assert np.array_equal(out, [1.0, 2.0])


def test_duffing_double_well_equilibrium():
    p = DuffingParams(lin=1.0, cub=-1.0, delta=0.2)
    out = deriv("duffing", [1.0, 0.0], 0.0, p)
    assert np.array_equal(out, [0.0, 0.0])


def test_duffing_unstable_origin():
    out = deriv("duffing", [0.0, 0.0], 0.0, DuffingParams())
    assert np.array_equal(out, [0.0, 0.0])


def test_duffing_cubic_term():
    # 2 - 8 = -6
    p = DuffingParams(lin=1.0, cub=-1.0, delta=0.2)
    out = deriv("duffing", [2.0, 0.0], 0.0, p)
    assert np.array_equal(out, [0.0, -6.0])


def test_network_synchronized_equilibrium():
    p = NetworkParams()
    out = deriv("network5", np.zeros(2 * p.n), np.zeros(p.n), p)
    assert np.array_equal(out, np.zeros(2 * p.n))


def test_network_two_node_chain_diffusion():
    # positions (0, 1), no gravity: accelerations are +-kappa * 1
    p = NetworkParams(n=2, kappa=0.5, topology="chain",
                      node=PendulumParams(a=0.0, c=0.1, b=1.0))
    out = deriv("network5", [0.0, 0.0, 1.0, 0.0], [0.0, 0.0], p)
    assert np.array_equal(out, [0.0, 0.5, 0.0, -0.5])


def test_network_identical_states_no_coupling():
    # coupling vanishes at synchrony regardless of kappa
    p = NetworkParams(n=5, kappa=3.7, topology="ring")
    state = np.tile([0.7, -0.2], 5)
    out = deriv("network5", state, np.zeros(5), p)
    single = deriv("pendulum", [0.7, -0.2], 0.0, p.node)
    for i in range(5):
        assert np.array_equal(out[2 * i:2 * i + 2], single)


def test_network_kappa_zero_matches_independent_pendulums():
    rng = np.random.default_rng(11)
    state = rng.uniform(-2.0, 2.0, 10)
    u = rng.uniform(-1.0, 1.0, 5)
    p = NetworkParams(n=5, kappa=0.0, topology="ring")
    out = deriv("network5", state, u, p)
    for i in range(5):
        expected = deriv("pendulum", state[2 * i:2 * i + 2], float(u[i]), p.node)
        assert np.array_equal(out[2 * i:2 * i + 2], expected)


@pytest.mark.parametrize("topology", ["ring", "chain"])
def test_network_coupling_sums_to_zero(topology):
    rng = np.random.default_rng(13)
    state = rng.uniform(-1.5, 1.5, 10)
    p = NetworkParams(n=5, kappa=0.8, topology=topology)
    p0 = NetworkParams(n=5, kappa=0.0, topology=topology)
    coupled = deriv("network5", state, np.zeros(5), p)
    free = deriv("network5", state, np.zeros(5), p0)
    coupling = (coupled - free)[1::2]
    assert abs(coupling.sum()) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_ring_coupling_matches_roll_reference(n):
    # the neighbor gather must round exactly like the np.roll expression
    rng = np.random.default_rng(n)
    p = NetworkParams(n=n, kappa=0.37, topology="ring")
    for _ in range(20):
        state = rng.uniform(-3.0, 3.0, 2 * n)
        x, v = state[0::2], state[1::2]
        ring = p.kappa * ((np.roll(x, 1) - x) + (np.roll(x, -1) - x))
        expected = (p.node.a * np.sin(x) - p.node.c * v) + ring
        out = deriv("network5", state, np.zeros(n), p)
        assert out[1::2].tobytes() == expected.tobytes()


def test_dynamics_are_pure():
    rng = np.random.default_rng(17)
    state = rng.uniform(-1.0, 1.0, 2)
    a = deriv("vdp", state, 0.3, VanDerPolParams())
    b = deriv("vdp", state, 0.3, VanDerPolParams())
    assert np.array_equal(a, b)


def test_param_validation():
    with pytest.raises(ConfigError):
        PendulumParams(b=0.0)
    with pytest.raises(ConfigError):
        PendulumParams(a=-1.0)
    with pytest.raises(ConfigError):
        VanDerPolParams(mu=-0.5)
    with pytest.raises(ConfigError):
        DuffingParams(delta=-0.1)
    with pytest.raises(ConfigError):
        NetworkParams(n=1)
    with pytest.raises(ConfigError):
        NetworkParams(topology="star")
    with pytest.raises(ConfigError):
        NetworkParams(kappa=-1.0)
    # every violation is listed, and a gain below the floor makes it singular
    with pytest.raises(SingularGainError) as err:
        PendulumParams(a=-1.0, b=0.0)
    assert err.value.errors == ["pendulum a must be >= 0", "pendulum |b| must be >= 1e-09"]


def test_make_plant_names_and_dimensions():
    assert make_plant("pendulum").n_nodes == 1
    assert make_plant("vdp").n_nodes == 1
    assert make_plant("duffing").n_nodes == 1
    assert make_plant("network5").n_nodes == 5
    unknown = ("^unknown plant 'lorenz', expected one of "
               "\\('pendulum', 'vdp', 'duffing', 'network5'\\)$")
    with pytest.raises(ConfigError, match=unknown):
        make_plant("lorenz")
    with pytest.raises(ConfigError, match=unknown):
        plants.param_type("lorenz")
    with pytest.raises(ConfigError, match="^plant 'pendulum' expects PendulumParams parameters$"):
        make_plant("pendulum", VanDerPolParams())


def test_make_plant_rejects_vanishing_gain():
    with pytest.raises(SingularGainError):
        make_plant("pendulum", PendulumParams(b=1e-12))


def test_gain_checked_at_construction():
    # a hand-built model gets the same singularity check as make_plant
    def build(g):
        return plants.PlantModel(
            name="custom", n_nodes=2, params=None,
            f=lambda s, t: np.zeros(2), g=g,
        )

    assert np.array_equal(build([2.0, -1.0]).gain(np.zeros(4)), [2.0, -1.0])
    for g in ([2.0, 0.0], [1e-12, 1.0], [np.nan, 1.0]):
        with pytest.raises(SingularGainError):
            build(g)
    with pytest.raises(ConfigError):
        build([1.0])
    with pytest.raises(ValueError):
        build([1.0, 1.0]).g[0] = 0.0  # read-only once checked


def test_disturbance_enters_acceleration_channel():
    model = make_plant("pendulum", PendulumParams(a=1.0, c=0.0, b=1.0))
    out = model.derivative([0.0, 0.0], 0.0, 0.0, d=0.25)
    assert np.array_equal(out, [0.0, 0.25])
