"""Scenario schema, validation, the built-in suite, and the batch driver."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from smclab import controllers, plants, scenarios, sim
from smclab.errors import ConfigError, ScenarioValidationError
from smclab.scenarios import (
    builtin_suite,
    load_scenario,
    run_key,
    run_suite,
    validate,
)


def _suite_by_name():
    return {sc.name: sc for sc in builtin_suite()}


def _fig1_raw():
    return _suite_by_name()["fig1_pendulum_observer_free"].to_dict()


# ------------------------------------------------------------- validation

def test_builtin_fig1_validates():
    sc = validate(_fig1_raw())
    assert sc.name == "fig1_pendulum_observer_free"
    assert sc.plant == "pendulum"
    assert sc.controller == ("observer-free",)
    assert sc.controller_params[0].lam == 5.0


def test_zero_dt_is_rejected():
    raw = _fig1_raw()
    raw["sim"]["dt"] = 0.0
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert any("dt must be positive" in msg for msg in err.value.errors)


def test_network_controller_count_mismatch():
    raw = _suite_by_name()["fig4_network5_observer_free"].to_dict()
    raw["controller"] = [{"name": "observer-free"}] * 4
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert any("expected 5" in msg for msg in err.value.errors)


def test_all_violations_are_collected():
    raw = {
        "name": "bad scenario name!",
        "plant": {"name": "lorenz"},
        "controller": {"name": "observer-free"},
        "x0": [0.5, "a"],
        "sim": {"dt": 0.0},
    }
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    joined = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 4
    assert "name" in joined and "plant" in joined
    assert "x0" in joined and "dt must be positive" in joined


def test_recorded_sample_cap_is_a_violation():
    # 1e6 steps + 1 initial sample, times 10 nodes, is just over the cap
    raw = _suite_by_name()["fig4_network5_observer_free"].to_dict()
    raw["plant"]["n"] = 10
    raw["x0"] = [0.1, 0.0] * 10
    raw["sim"]["t_final"] = 1000.0
    raw["bogus"] = 1
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    capped = [msg for msg in err.value.errors if "recorded samples" in msg]
    assert len(capped) == 1 and "10000010 recorded samples" in capped[0]
    assert any("bogus" in msg for msg in err.value.errors)

    # the stride thins only the written files: every step is still recorded
    del raw["bogus"]
    raw["sim"]["record_stride"] = 2
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == capped
    raw["sim"]["t_final"] = 999.0
    assert validate(raw).sim.record_stride == 2


def test_integers_too_large_for_a_float_are_violations():
    huge = 10 ** 400
    raw = _fig1_raw()
    raw["plant"]["a"] = huge
    raw["x0"] = [0.5, huge]
    raw["velocity_filter_cutoff_hz"] = huge
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == [
        "plant.a: expected a finite number",
        "x0[1]: expected a finite number",
        "velocity_filter_cutoff_hz: expected a finite number",
    ]


def test_unchecked_node_count_allocates_nothing_per_node():
    # a 2-element x0 for a million nodes: validation must fail without
    # building per-node controller lists
    raw = _suite_by_name()["fig4_network5_observer_free"].to_dict()
    raw["plant"]["n"] = 10 ** 6
    raw["x0"] = [0.1, 0.0]
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioValidationError) as err:
            validate(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert any("x0: expected length 2000000" in msg for msg in err.value.errors)


def test_tanh_table_size_is_bounded():
    raw = _fig1_raw()
    raw["controller"]["tanh_table_size"] = 2 ** 16
    assert validate(raw).controller_params[0].tanh_table_size == 2 ** 16
    raw["controller"]["tanh_table_size"] = 2 ** 16 + 1
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == ["controller: tanh table size must be 0 or in [64, 65536]"]
    with pytest.raises(ConfigError):
        controllers.tanh_fast(0.5, 2 ** 16 + 1)


_PLANT_NODES = [("pendulum", 1), ("vdp", 1), ("duffing", 1), ("network5", 3), ("network5", 7)]


@pytest.mark.parametrize("plant,nodes", _PLANT_NODES)
def test_node_count_agrees_everywhere(plant, nodes):
    assert {name for name, _ in _PLANT_NODES} == set(plants.PLANT_NAMES)
    raw = _fig1_raw()
    raw["plant"] = {"name": plant, **({"n": nodes} if nodes > 1 else {})}
    raw["x0"] = [0.1]
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    demanded = [msg for msg in err.value.errors if msg.startswith("x0: expected length ")]
    assert len(demanded) == 1
    length = int(demanded[0].split()[3])
    raw["x0"] = [0.1, 0.0] * (length // 2)
    sc = validate(raw)
    model = sc.make_plant()
    assert sc.n_nodes == model.n_nodes == len(model.g) == length // 2 == nodes
    assert len(sc.controller) == nodes


def test_unknown_fields_and_schema_version():
    raw = _fig1_raw()
    raw["extra_knob"] = 1
    with pytest.raises(ScenarioValidationError, match="unknown field"):
        validate(raw)

    raw = _fig1_raw()
    raw["schema"] = 99
    with pytest.raises(ScenarioValidationError, match="unsupported version"):
        validate(raw)


def test_lambda_alias_round_trips():
    raw = _fig1_raw()
    assert "lambda" in raw["controller"]
    assert "lam" not in raw["controller"]
    sc = validate(raw)
    assert sc.controller_params[0].lam == raw["controller"]["lambda"]


def test_none_controller_takes_no_parameters():
    raw = _fig1_raw()
    raw["controller"] = {"name": "none", "k": 1.0}
    with pytest.raises(ScenarioValidationError, match="takes no parameters"):
        validate(raw)


def test_unknown_controller_parameter():
    raw = _fig1_raw()
    raw["controller"]["slope"] = 2.0
    with pytest.raises(ScenarioValidationError, match="unknown parameter"):
        validate(raw)
    # run state is not a parameter: the integrator and the adaptive gain
    # always start from 0 and k0
    for entry in ({"name": "super-twisting", "vi": 0.5},
                  {"name": "adaptive", "k": 2.0}):
        raw["controller"] = entry
        with pytest.raises(ScenarioValidationError, match="unknown parameter"):
            validate(raw)


def test_x0_length_checked_against_plant():
    raw = _fig1_raw()
    raw["x0"] = [0.5, 0.0, 0.1]
    with pytest.raises(ScenarioValidationError, match="length 2"):
        validate(raw)


# ---------------------------------------------------------- serialization

def test_every_builtin_round_trips():
    for sc in builtin_suite():
        assert validate(sc.to_dict()) == sc


def test_json_round_trip_is_loss_free():
    fig1 = _suite_by_name()["fig1_pendulum_observer_free"]
    tuned = {
        "observer-free": controllers.ObserverFreeParams(k1=0.7, lam=3.5,
                                                        tanh_table_size=256),
        "classical": controllers.ClassicalParams(lam_s=1.5, k=2.0),
        "super-twisting": controllers.SuperTwistingParams(lam_s=0.8, k1st=2.5, k2st=4.0),
        "adaptive": controllers.AdaptiveParams(lam_s=1.2, gamma=3.0, phi=0.1,
                                               k0=2.0, kmax=20.0),
    }
    variants = [
        dataclasses.replace(fig1, name=f"tuned_{i}", controller=(name,),
                            controller_params=(params,))
        for i, (name, params) in enumerate(tuned.items())
    ]
    for sc in builtin_suite() + variants:
        assert validate(json.loads(sc.to_json())) == sc


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(_fig1_raw()))
    assert load_scenario(path) == _suite_by_name()["fig1_pendulum_observer_free"]


def test_run_key_tracks_physics_only():
    a = _suite_by_name()["fig1_pendulum_observer_free"]
    raw = a.to_dict()
    raw["name"] = "renamed"
    raw["views"] = ["state", "control"]
    raw["matrix_group"] = ""
    assert run_key(validate(raw)) == run_key(a)

    # the key identifies the physical experiment, so swapping the control
    # law keeps it equal while touching the plant or x0 changes it
    raw2 = a.to_dict()
    raw2["controller"] = {"name": "classical"}
    assert run_key(validate(raw2)) == run_key(a)

    raw3 = a.to_dict()
    raw3["x0"] = [0.6, 0.0]
    assert run_key(validate(raw3)) != run_key(a)

    raw4 = a.to_dict()
    raw4["plant"]["c"] = 0.2
    assert run_key(validate(raw4)) != run_key(a)


# ------------------------------------------------------------------ suite

def test_builtin_suite_composition():
    suite = builtin_suite()
    names = [sc.name for sc in suite]
    assert len(suite) == 20
    assert len(set(names)) == 20

    # 4 plants x 4 controllers for the comparison figures
    comparison = [sc for sc in suite if sc.matrix_group]
    assert len(comparison) == 16
    assert {sc.matrix_group for sc in comparison} == \
        {"pendulum", "vdp", "duffing", "network5"}

    # exactly one run carries the sinusoidal perturbation
    disturbed = [sc for sc in suite if sc.disturbance.kind == "sinusoid"]
    assert len(disturbed) == 1
    assert disturbed[0].disturbance.amplitude == 0.2
    assert disturbed[0].disturbance.angular_frequency == 5.0

    # exactly one noisy-measurement run
    noisy = [sc for sc in suite if sc.noise.std_x > 0 or sc.noise.std_v > 0]
    assert len(noisy) == 1
    assert noisy[0].noise.std_x == 0.01 and noisy[0].noise.std_v == 0.01

    probes = [sc for sc in suite if sc.delay.tau > 0]
    assert len(probes) == 1
    assert probes[0].delay.tau == 0.01

    # shared integration defaults
    for sc in suite:
        assert sc.sim.dt == 1e-3
        assert sc.sim.t_final == 10.0
        assert sc.sim.seed == 42


def test_builtin_suite_all_validate():
    for sc in builtin_suite():
        validated = validate(sc.to_dict())
        assert validated == sc


def test_network_scenario_is_decentralized():
    sc = _suite_by_name()["fig4_network5_observer_free"]
    assert sc.controller == ("observer-free",) * 5
    params = sc.controller_params
    assert len(params) == 5
    assert len({id(p) for p in params}) == 5  # one instance per node
    assert all(p.lam == 5.0 for p in params)


def test_network_initial_angles_are_seeded():
    sc = _suite_by_name()["fig4_network5_observer_free"]
    angles = np.asarray(sc.x0[0::2])
    expected = np.random.default_rng(42).uniform(-0.3, 0.3, 5)
    assert np.array_equal(angles, expected)
    assert np.array_equal(np.asarray(sc.x0[1::2]), np.zeros(5))
    assert np.all(np.abs(angles) <= 0.3)


def test_comparison_figures_share_conditions():
    suite = _suite_by_name()
    for fig, plant in (("fig1", "pendulum"), ("fig2", "vdp"),
                       ("fig3", "duffing"), ("fig4", "network5")):
        group = [sc for sc in suite.values()
                 if sc.matrix_group == plant]
        assert len(group) == 4
        x0s = {sc.x0 for sc in group}
        assert len(x0s) == 1  # strict sharing of initial conditions
        assert all(sc.name.startswith(fig) for sc in group)


def test_robustness_trio_shares_the_plant():
    suite = _suite_by_name()
    trio = [suite["fig5_vdp_nominal"], suite["fig6_vdp_noise"],
            suite["fig7_vdp_disturbance"]]
    assert {sc.plant for sc in trio} == {"vdp"}
    assert {sc.x0 for sc in trio} == {(2.0, 0.0)}
    for sc in trio:
        assert sc.views == ("state", "control")
        assert sc.controller == ("observer-free",)


# ----------------------------------------------------------------- driver

def test_run_suite_over_pendulum_controllers(tmp_path):
    suite = [sc for sc in builtin_suite() if sc.matrix_group == "pendulum"]
    result = run_suite(suite, tmp_path, parallelism=2)
    assert len(result.runs) == 4
    assert not result.failures
    assert set(result.matrices) == {"pendulum"}
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "fig1_pendulum_adaptive.csv",
        "fig1_pendulum_classical.csv",
        "fig1_pendulum_observer_free.csv",
        "fig1_pendulum_super_twisting.csv",
        "matrix_pendulum.csv",
        "summary.csv",
    ]


def test_full_suite_outputs(suite_serial):
    result, out, elapsed = suite_serial
    assert len(result.runs) == 20
    assert result.failures == {}
    assert set(result.matrices) == {"pendulum", "vdp", "duffing", "network5"}

    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 25  # 20 runs + summary + 4 matrices
    for sc in builtin_suite():
        assert (out / f"{sc.name}.csv").exists()

    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 21
    assert summary[0].startswith("name,")
    assert summary[1:] == sorted(summary[1:])  # stable ordering

    assert elapsed < 60.0  # desk-scale budget


def test_suite_output_is_parallelism_independent(suite_serial, suite_parallel):
    _, out1, _ = suite_serial
    result4, out4 = suite_parallel
    assert result4.failures == {}
    names1 = sorted(p.name for p in out1.iterdir())
    names4 = sorted(p.name for p in out4.iterdir())
    assert names1 == names4
    for name in names1:
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name


def test_run_suite_collects_failures(tmp_path):
    blowup = validate({
        "name": "blowup",
        "plant": {"name": "duffing", "lin": 5.0, "cub": 1.0, "delta": 0.0},
        "controller": {"name": "none"},
        "x0": [1.0, 0.0],
        "sim": {"dt": 1e-3, "t_final": 10.0},
    })
    fig1 = _suite_by_name()["fig1_pendulum_observer_free"]
    result = run_suite([blowup, fig1], tmp_path, parallelism=1)
    assert "blowup" in result.failures
    assert "diverged" in result.failures["blowup"]
    assert "fig1_pendulum_observer_free" in result.runs
    # partial CSV still written, carrying the divergence flag
    text = (tmp_path / "blowup.csv").read_text()
    assert text.startswith("# diverged_at=")


def test_run_suite_lists_an_overflowed_run_as_failed(tmp_path):
    short = sim.SimConfig(t_final=0.05)
    pendulum = [dataclasses.replace(sc, sim=short) for sc in builtin_suite()
                if sc.matrix_group == "pendulum"]
    steep = controllers.ObserverFreeParams(k1=1e200)    # V = s^2 / 2 overflows
    pendulum = [dataclasses.replace(sc, controller_params=(steep,))
                if sc.controller == ("observer-free",) else sc for sc in pendulum]
    result = run_suite(pendulum, tmp_path)
    assert result.failures == {
        "fig1_pendulum_observer_free": "overflowed: non-finite values in V"
    }
    matrix = result.matrices["pendulum"]
    for prop in ("NoChattering", "BoundedInput", "DelayTolerant", "Smoothness"):
        assert matrix.verdict(prop, "observer-free") is False, prop


def test_delay_reruns_feed_the_matrix(suite_serial):
    result, _, _ = suite_serial
    matrix = result.matrices["pendulum"]
    verdict = matrix.verdict("DelayTolerant", "observer-free")
    assert verdict is not None  # the tau=10 ms rerun actually happened
    assert matrix.measured["DelayTolerant"]["observer-free"] is not None


@pytest.mark.parametrize("law", ["super-twisting", "adaptive"])
def test_stateful_law_runs_are_deterministic(law, tmp_path):
    # all nodes share one frozen params instance when the document gives
    # one controller object; state lives in the per-node controllers
    raw = _suite_by_name()[f"fig4_network5_{law.replace('-', '_')}"].to_dict()
    raw["sim"]["t_final"] = 1.0
    raw["controller"] = {"name": law}
    shared = validate(raw)
    assert len({id(p) for p in shared.controller_params}) == 1
    raw["controller"] = [{"name": law}] * 5
    per_node = validate(raw)
    assert len({id(p) for p in per_node.controller_params}) == 5

    outputs = []
    for i, sc in enumerate((shared, per_node, shared)):
        path = tmp_path / f"run{i}.csv"
        sim.simulate_run(sc).write_csv(path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
