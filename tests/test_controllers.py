"""Control law unit checks: hand values, structure, boundedness, symmetry."""
import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smclab import controllers
from smclab.controllers import (
    AdaptiveParams,
    ClassicalParams,
    Controller,
    ObserverFreeParams,
    SuperTwistingParams,
    adaptive_smc_control,
    classical_smc_control,
    declared_input_bound,
    observer_free_control,
    super_twisting_control,
    tanh_fast,
)
from smclab.errors import ConfigError, InvalidInputError, SingularGainError

TANH_1 = 0.7615941559557649  # tanh(1) to double precision


def test_observer_free_equilibrium():
    out = observer_free_control(0.0, 0.0, 1.0, ObserverFreeParams(k1=1.0, lam=2.0))
    assert out == (0.0, 0.0, -0.0, 0.0, 0.0)
    assert out.u == 0.0 and out.s == 0.0 and out.V == 0.0


def test_observer_free_unit_point():
    out = observer_free_control(1.0, 0.0, 1.0, ObserverFreeParams(k1=1.0, lam=1.0))
    assert out.alpha == 1.0
    assert abs(out.u - (-TANH_1)) < 1e-15
    assert abs(out.beta - (-TANH_1)) < 1e-15
    assert abs(out.s - (1.0 + TANH_1)) < 1e-15


def test_observer_free_saturates_at_lambda():
    out = observer_free_control(1e6, 0.0, 1.0, ObserverFreeParams(k1=1.0, lam=3.0))
    assert abs(out.u - (-3.0)) < 1e-9
    assert abs(out.u) <= 3.0


def test_observer_free_rejects_singular_gain():
    p = ObserverFreeParams()
    with pytest.raises(SingularGainError):
        observer_free_control(1.0, 0.0, 0.0, p)
    with pytest.raises(SingularGainError):
        observer_free_control(1.0, 0.0, 1e-10, p)
    with pytest.raises(InvalidInputError):
        observer_free_control(np.nan, 0.0, 1.0, p)


def test_observer_free_rejects_a_non_finite_gain():
    with pytest.raises(InvalidInputError, match="g_val must be finite"):
        observer_free_control(1.0, 0.0, math.nan, ObserverFreeParams())


def test_super_twisting_rejects_a_zero_step():
    with pytest.raises(InvalidInputError, match="dt must be > 0"):
        super_twisting_control(1.0, 0.0, 0.0, SuperTwistingParams(), 0.0)


def test_classical_sign_branches():
    p = ClassicalParams(lam_s=1.0, k=2.0)
    assert classical_smc_control(1.0, 0.0, p).u == -2.0
    assert classical_smc_control(1.0, 0.0, p).s == 1.0
    assert classical_smc_control(0.0, 0.0, p).u == 0.0  # sign(0) convention
    assert classical_smc_control(-1.0, 0.0, p).u == 2.0


def test_classical_records_uniform_schema():
    out = classical_smc_control(0.3, -0.1, ClassicalParams())
    assert out.alpha == out.s
    assert out.beta == 0.0


def test_super_twisting_rest():
    p = SuperTwistingParams()
    out, vi = super_twisting_control(0.0, 0.0, 1e-3, p, 0.0)
    assert out.u == 0.0
    assert vi == 0.0


def test_super_twisting_sqrt_law():
    p = SuperTwistingParams(lam_s=1.0, k1st=1.0, k2st=1.0)
    out, _ = super_twisting_control(4.0, 0.0, 1e-3, p, 0.0)
    assert out.u == -2.0  # sqrt(4) = 2


def test_super_twisting_integrator_step():
    p = SuperTwistingParams(lam_s=1.0, k1st=1.0, k2st=1.0)
    _, vi = super_twisting_control(1.0, 0.0, 0.1, p, 0.0)  # s = 1 > 0
    assert vi == -0.1


def test_adaptive_stalls_at_origin():
    p = AdaptiveParams(k0=1.0)
    out, k = adaptive_smc_control(0.0, 0.0, 1e-3, p, p.k0)
    assert out.u == 0.0
    assert k == 1.0


def test_adaptive_saturated_branch():
    p = AdaptiveParams(lam_s=1.0, phi=0.5, k0=1.0)
    out, _ = adaptive_smc_control(1.0, 0.0, 1e-3, p, p.k0)
    assert out.u == -1.0  # sat(1/0.5) clamps to 1


def test_adaptive_gain_update():
    p = AdaptiveParams(lam_s=1.0, gamma=2.0, phi=0.5, k0=1.0, kmax=10.0)
    _, k = adaptive_smc_control(1.0, 0.0, 0.01, p, p.k0)  # |s| = 1
    assert abs(k - 1.02) < 1e-15


def test_adaptive_gain_ceiling():
    p = AdaptiveParams(lam_s=1.0, gamma=1e6, phi=0.5, k0=1.0, kmax=10.0)
    _, k = adaptive_smc_control(1.0, 0.0, 0.1, p, p.k0)
    assert k == 10.0


def test_tanh_fast_zero_is_exact():
    assert tanh_fast(0.0, 1024) == 0.0


def test_tanh_fast_clamps_outside_span():
    assert abs(tanh_fast(100.0, 1024) - math.tanh(6.0)) < 1e-12
    assert abs(tanh_fast(-100.0, 1024) + math.tanh(6.0)) < 1e-12


def test_tanh_fast_error_bound_at_1024():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-6.0, 6.0, 100_000)
    worst = max(abs(tanh_fast(float(a), 1024) - math.tanh(float(a))) for a in xs)
    assert worst <= 1e-3


def test_tanh_fast_rejects_small_table():
    with pytest.raises(ConfigError):
        tanh_fast(1.0, 63)
    with pytest.raises(ConfigError):
        ObserverFreeParams(tanh_table_size=32)
    # a size that is not an integer is rejected before np.linspace sees it
    with pytest.raises(ConfigError):
        tanh_fast(0.3, 100.5)
    with pytest.raises(ConfigError):
        ObserverFreeParams(tanh_table_size=100.5)
    # 0 means exact tanh and is allowed
    ObserverFreeParams(tanh_table_size=0)


@given(alphas=st.lists(st.floats() | st.sampled_from([6.0, -6.0, 0.0, -0.0]),
                       min_size=1, max_size=20),
       size=st.sampled_from([64, 1024, 2 ** 16]))
def test_property_tanh_table_matches_scalar_lookup(alphas, size):
    # one np.interp over the node list gives each node the scalar lookup:
    # mirrored, and the table's last entry at or above 6
    grid = np.linspace(0.0, 6.0, size)
    table = np.tanh(grid)

    def scalar(a):
        mag = float(table[-1]) if abs(a) >= 6.0 else float(np.interp(abs(a), grid, table))
        return -mag if a < 0 else mag

    want = [scalar(a) for a in alphas]
    assert repr([tanh_fast(a, size) for a in alphas]) == repr(want)
    # alpha = v + k1 x = -0.0 + a is a itself, and u = -1.0 * tanh(alpha)
    n, p = len(alphas), ObserverFreeParams(k1=1.0, lam=1.0, tanh_table_size=size)
    step = controllers.node_laws(["observer-free"] * n, [p] * n)
    u, alpha, *_ = step(alphas, [-0.0] * n, [1.0] * n, 1e-3)
    assert repr(alpha) == repr(alphas)
    assert repr(u) == repr([-1.0 * w for w in want])


def test_param_validation():
    with pytest.raises(ConfigError):
        ObserverFreeParams(k1=0.0)
    with pytest.raises(ConfigError):
        ObserverFreeParams(lam=-1.0)
    with pytest.raises(ConfigError):
        ClassicalParams(k=0.0)
    with pytest.raises(ConfigError):
        SuperTwistingParams(k2st=0.0)
    with pytest.raises(ConfigError):
        AdaptiveParams(phi=0.0)
    with pytest.raises(ConfigError):
        AdaptiveParams(k0=5.0, kmax=1.0)
    # every violation of one parameter set is listed
    with pytest.raises(ConfigError) as err:
        AdaptiveParams(phi=0.0, k0=5.0, kmax=1.0)
    assert err.value.errors == ["adaptive phi must be > 0", "adaptive kmax must be >= k0"]


def test_bounded_for_random_inputs():
    rng = np.random.default_rng(101)
    p = ObserverFreeParams(k1=1.0, lam=5.0)
    for _ in range(10_000):
        x, v = rng.uniform(-100.0, 100.0, 2)
        out = observer_free_control(float(x), float(v), 1.0, p)
        assert abs(out.u) <= p.lam


def test_lipschitz_in_alpha():
    rng = np.random.default_rng(103)
    p = ObserverFreeParams(k1=1.0, lam=4.0)
    for _ in range(5_000):
        a1, a2 = rng.uniform(-10.0, 10.0, 2)
        u1 = observer_free_control(float(a1), 0.0, 1.0, p).u
        u2 = observer_free_control(float(a2), 0.0, 1.0, p).u
        assert abs(u1 - u2) <= p.lam * abs(a1 - a2) + 1e-12


def test_surface_identity_exact_for_unit_gain():
    # with g = 1 both evaluation orders agree bit for bit
    rng = np.random.default_rng(107)
    p = ObserverFreeParams(k1=1.0, lam=5.0)
    for _ in range(20_000):
        x, v = rng.uniform(-50.0, 50.0, 2)
        out = observer_free_control(float(x), float(v), 1.0, p)
        recomputed = out.alpha + p.lam * math.tanh(out.alpha)
        assert abs(out.s - recomputed) <= 2 * math.ulp(max(abs(out.s), 1e-300))


def test_surface_identity_general_gain():
    # for g != 1 the two evaluation orders round differently, so the match
    # is measured in ulps of the dominant term, not of a cancelled s
    rng = np.random.default_rng(107)
    p = ObserverFreeParams(k1=1.0, lam=5.0)
    for _ in range(20_000):
        x, v, g = rng.uniform(-50.0, 50.0, 3)
        if abs(g) < 1e-6:
            continue
        out = observer_free_control(float(x), float(v), float(g), p)
        recomputed = out.alpha + (p.lam / g) * math.tanh(out.alpha)
        scale = max(abs(out.alpha), abs(out.beta), abs(out.s))
        assert abs(out.s - recomputed) <= 2 * math.ulp(scale)


def test_sign_coupling_for_positive_gain():
    rng = np.random.default_rng(109)
    p = ObserverFreeParams(k1=2.0, lam=3.0)
    for _ in range(10_000):
        x, v = rng.uniform(-20.0, 20.0, 2)
        out = observer_free_control(float(x), float(v), 1.5, p)
        if out.alpha > 0:
            assert out.s > 0
        elif out.alpha < 0:
            assert out.s < 0
        else:
            assert out.s == 0.0
    assert observer_free_control(0.0, 0.0, 1.5, p).s == 0.0


def test_odd_symmetry_is_exact():
    rng = np.random.default_rng(113)
    p = ObserverFreeParams(k1=1.0, lam=5.0)
    pf = ObserverFreeParams(k1=1.0, lam=5.0, tanh_table_size=256)
    for _ in range(5_000):
        x, v = rng.uniform(-30.0, 30.0, 2)
        assert observer_free_control(-x, -v, 1.0, p).u == \
            -observer_free_control(x, v, 1.0, p).u
        assert observer_free_control(-x, -v, 1.0, pf).u == \
            -observer_free_control(x, v, 1.0, pf).u


def test_control_output_energy_identity():
    rng = np.random.default_rng(127)
    for _ in range(1_000):
        x, v = rng.uniform(-5.0, 5.0, 2)
        out = observer_free_control(float(x), float(v), 1.0, ObserverFreeParams())
        assert out.V == 0.5 * out.s * out.s


def test_stateful_params_are_isolated():
    # controllers sharing one frozen params instance keep separate state
    p = SuperTwistingParams()
    a = Controller("super-twisting", p)
    b = Controller("super-twisting", p)
    a.step(1.0, 0.0, 1.0, 0.1)
    assert a.state != 0.0 and b.state == 0.0

    template = AdaptiveParams(k0=2.0)
    ctrl = Controller("adaptive", template)
    for _ in range(100):
        ctrl.step(1.0, 0.0, 1.0, 1e-3)
    assert ctrl.state > 2.0
    assert template.k0 == 2.0
    assert Controller("adaptive", template).state == 2.0


def test_pure_params_are_frozen():
    with pytest.raises(FrozenInstanceError):
        ObserverFreeParams().k1 = 2.0
    with pytest.raises(FrozenInstanceError):
        ClassicalParams().k = 1.0
    with pytest.raises(FrozenInstanceError):
        SuperTwistingParams().k2st = 1.0
    with pytest.raises(FrozenInstanceError):
        AdaptiveParams().k0 = 1.0


def test_declared_input_bounds():
    assert declared_input_bound("observer-free", ObserverFreeParams(lam=5.0)) == 5.0
    assert declared_input_bound("classical", ClassicalParams(k=2.0)) == 2.0
    assert declared_input_bound("adaptive", AdaptiveParams(kmax=7.0)) == 7.0
    assert declared_input_bound("super-twisting", SuperTwistingParams()) is None
    assert declared_input_bound("none", None) == 0.0


def test_make_controller_validation():
    with pytest.raises(ConfigError):
        Controller("pid")
    with pytest.raises(ConfigError):
        Controller("classical", ObserverFreeParams())
    none_ctrl = Controller("none")
    assert none_ctrl.step(3.0, 1.0, 1.0, 1e-3).u == 0.0


def test_observer_free_attribute_map():
    # derived from whether a law keeps run state
    derived = {name: controllers.is_observer_free(name)
               for name in controllers.CONTROLLER_NAMES}
    assert derived == {
        "observer-free": True,
        "classical": True,
        "super-twisting": False,
        "adaptive": False,
        "none": True,
    }
    assert controllers.is_observer_free("pid") is None


# ------------------------------------------------------------- properties

finite = st.floats(allow_nan=False, allow_infinity=False)
gains = st.floats(min_value=1e-9, max_value=1e9) | st.floats(min_value=-1e9, max_value=-1e-9)
measured_pairs = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=50
)


@given(x=finite, v=finite, g=gains, lam=st.floats(1e-3, 1e3),
       table=st.sampled_from([0, 64, 1024]))
def test_property_observer_free_input_bound(x, v, g, lam, table):
    p = ObserverFreeParams(k1=1.0, lam=lam, tanh_table_size=table)
    assert abs(observer_free_control(x, v, g, p).u) <= lam


@given(x=finite, v=finite, g=st.floats(min_value=1e-9, max_value=1e9),
       k1=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 1e3))
def test_property_sign_of_s_follows_alpha(x, v, g, k1, lam):
    out = observer_free_control(x, v, g, ObserverFreeParams(k1=k1, lam=lam))
    assert np.sign(out.s) == np.sign(out.alpha)


@given(pairs=measured_pairs, k0=st.floats(0.0, 10.0), span=st.floats(0.0, 100.0),
       gamma=st.floats(0.0, 1e3), dt=st.floats(1e-6, 0.1))
def test_property_adaptive_gain_monotone_and_bounded(pairs, k0, span, gamma, dt):
    p = AdaptiveParams(gamma=gamma, k0=k0, kmax=k0 + span)
    k = p.k0
    for x, v in pairs:
        _, k_next = adaptive_smc_control(x, v, dt, p, k)
        assert k <= k_next
        assert p.k0 <= k_next <= p.kmax
        k = k_next


@given(pairs=measured_pairs, g=gains, dt=st.floats(1e-6, 0.1))
def test_property_controller_equals_threaded_state(pairs, g, dt):
    laws = {
        "super-twisting": (SuperTwistingParams(), super_twisting_control, 0.0),
        "adaptive": (AdaptiveParams(k0=2.0), adaptive_smc_control, 2.0),
    }
    for name, (p, law, state) in laws.items():
        ctrl = Controller(name, p)
        for x, v in pairs:
            out, state = law(x, v, dt, p, state)
            assert ctrl.step(x, v, g, dt) == out
        assert ctrl.state == state


measured_nodes = st.lists(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), gains), min_size=1, max_size=20
)


@given(nodes=measured_nodes, dt=st.floats(1e-6, 0.1), table=st.sampled_from([0, 64, 1024]),
       mixed=st.lists(st.sampled_from(controllers.CONTROLLER_NAMES), min_size=20, max_size=20))
def test_property_list_form_equals_one_node_calls(nodes, dt, table, mixed):
    # one law on every node passes the lists straight to its list form;
    # the mixed draw scatters several groups back into node order
    params = {
        "observer-free": ObserverFreeParams(k1=1.5, lam=3.0, tanh_table_size=table),
        "classical": ClassicalParams(lam_s=0.7, k=2.0),
        "super-twisting": SuperTwistingParams(),
        "adaptive": AdaptiveParams(k0=2.0, gamma=50.0),
        "none": None,
    }
    n = len(nodes)
    for names in [[name] * n for name in controllers.CONTROLLER_NAMES] + [mixed[:n]]:
        step = controllers.node_laws(names, [params[name] for name in names])
        ctrls = [Controller(name, params[name]) for name in names]
        for j in range(3):    # the inputs turn, and each output depends on the state
            turn = nodes[j % n:] + nodes[:j % n]
            xs, vs, gs = map(list, zip(*turn))
            u, alpha, beta = step(xs, vs, gs, dt)
            want = [c.step(x, v, g, dt) for c, (x, v, g) in zip(ctrls, turn)]
            assert repr(list(zip(u, alpha, beta))) == repr([out[:3] for out in want])
            # the simulator derives s and V from the recorded columns
            s, V = controllers.surface_energy(np.array(alpha), np.array(beta))
            assert repr(list(zip(s.tolist(), V.tolist()))) == repr([out[3:] for out in want])


edge_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1.7e308])


@given(pairs=st.lists(st.tuples(edge_floats, edge_floats), min_size=1, max_size=20))
def test_property_surface_energy_arrays_equal_floats(pairs):
    # signed zeros, infinities, nan and values whose V overflows: the
    # array form gives the float form's bits and warns about none of them
    alpha, beta = map(list, zip(*pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, V = controllers.surface_energy(np.array(alpha), np.array(beta))
        want = [controllers.surface_energy(a, b) for a, b in pairs]
    assert s.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert V.tobytes() == np.array([w[1] for w in want]).tobytes()
    plain = [(a - b, 0.5 * (a - b) * (a - b)) for a, b in pairs]
    assert np.array(want).tobytes() == np.array(plain).tobytes()
