"""The rules stated once in smclab.errors: numbers, ranges and the step size."""
import dataclasses
import math

import numpy as np
import pytest

from smclab import controllers, metrics, plants, sim
from smclab.errors import ConfigError, InvalidInputError

PARAMS_AND_CONFIGS = (
    plants.PendulumParams, plants.VanDerPolParams, plants.DuffingParams, plants.NetworkParams,
    controllers.ObserverFreeParams, controllers.ClassicalParams,
    controllers.SuperTwistingParams, controllers.AdaptiveParams,
    sim.SimConfig, sim.NoiseConfig, sim.DisturbanceSpec, sim.DelaySpec,
)
# annotations are strings under postponed evaluation
NUMBER_FIELDS = [(cls, f.name) for cls in PARAMS_AND_CONFIGS
                 for f in dataclasses.fields(cls) if f.type in ("int", "float", int, float)]


def test_every_params_and_config_class_has_number_fields():
    assert {cls for cls, _ in NUMBER_FIELDS} == set(PARAMS_AND_CONFIGS)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("cls, name", NUMBER_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NUMBER_FIELDS])
def test_a_bool_is_never_a_number(cls, name, flag):
    with pytest.raises(ConfigError):
        cls(**{name: flag})


@pytest.mark.parametrize("build, message", [
    (lambda: sim.NoiseConfig(std_x=True), "noise.std_x must be a number"),
    (lambda: sim.DelaySpec(tau=False), "delay.tau must be a number"),
    (lambda: plants.PendulumParams(a=True), "pendulum a must be a number"),
    (lambda: controllers.ClassicalParams(k=False), "classical k must be a number"),
    (lambda: sim.SimConfig(t_final=True), "sim.t_final must be a number"),
    (lambda: sim.SimConfig(t_final=False), "sim.t_final must be a number"),
    (lambda: sim.SimConfig(seed=True), "sim.seed must be an integer in [0, 2^64)"),
    (lambda: sim.SimConfig(record_stride=True), "sim.record_stride must be an integer >= 1"),
    (lambda: plants.NetworkParams(n=True), "network n must be an integer >= 2"),
    (lambda: controllers.AdaptiveParams(kmax=True), "adaptive kmax must be a number"),
    (lambda: controllers.ObserverFreeParams(tanh_table_size=False),
     "tanh table size must be 0 or in [64, 65536]"),
])
def test_a_bool_gets_one_message(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.errors == [message]


def test_numpy_numbers_stay_numbers():
    assert sim.NoiseConfig(std_x=np.float32(0.5)).std_x == 0.5
    assert plants.PendulumParams(a=np.int64(2)).a == 2
    assert controllers.ObserverFreeParams(tanh_table_size=np.int64(128)).tanh_table_size == 128


STEP_SIZE_ARGUMENTS = {
    "rk4_step": lambda dt: sim.rk4_step(lambda y, t: y, [1.0, 0.0], 0.0, dt),
    "super_twisting_control": lambda dt: controllers.super_twisting_control(
        0.1, 0.0, dt, controllers.SuperTwistingParams(), 0.0),
    "adaptive_smc_control": lambda dt: controllers.adaptive_smc_control(
        0.1, 0.0, dt, controllers.AdaptiveParams(), 1.0),
    "settling_time": lambda dt: metrics.settling_time(np.zeros(10), 0.02, dt),
    "lyapunov_stats": lambda dt: metrics.lyapunov_stats(np.ones(3), np.ones(3), dt),
}


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize("call", STEP_SIZE_ARGUMENTS)
def test_every_step_size_argument_is_finite_and_positive(call, dt):
    with pytest.raises(InvalidInputError, match=r"^dt must be > 0$"):
        STEP_SIZE_ARGUMENTS[call](dt)
