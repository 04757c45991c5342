"""Scenario schema, validation, the built-in suite, and the batch driver."""
import dataclasses
import hashlib
import json
import math
import pickle
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smclab import controllers, errors, plants, scenarios, sim
from smclab.errors import ConfigError, ScenarioValidationError, SmcLabError
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
    # a bool or a string is not a number either, in a list or on its own
    raw = _fig1_raw()
    raw["x0"] = [0.5, True]
    raw["velocity_filter_cutoff_hz"] = "20"
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == [
        "x0[1]: expected a number",
        "velocity_filter_cutoff_hz: expected a number",
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
    # a string where a number belongs is a wrongly typed value
    raw["controller"] = {"name": "observer-free", "k1": "abc"}
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == ["controller.k1: unsupported value type"]


def test_a_document_needs_only_name_plant_controller_and_x0():
    raw = {"name": "tiny", "plant": {"name": "pendulum"},
           "controller": {"name": "classical"}, "x0": [0.5, 0.0]}
    sc = validate(raw)
    assert sc.sim == sim.SimConfig()
    assert sc.noise == sim.NoiseConfig() and sc.delay == sim.DelaySpec()
    for key in raw:
        with pytest.raises(ScenarioValidationError) as err:
            validate({k: v for k, v in raw.items() if k != key})
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{key}: required"), err.value.errors


@pytest.mark.parametrize("table", ["plant", "controller", "controller[2]"])
@pytest.mark.parametrize("fault", ["not an object", "no name", "unknown name",
                                   "unknown key", "string for a number"])
def test_plant_and_controller_tables_give_one_message_per_fault(table, fault):
    # the same fault in the plant object, the one controller object and
    # the third entry of a per-node controller list
    if table == "controller[2]":
        raw = _suite_by_name()["fig4_network5_observer_free"].to_dict()
        raw["controller"] = [dict(raw["controller"]) for _ in range(5)]
        holder, key = raw["controller"], 2
    else:
        raw = holder = _fig1_raw()
        key = table
    kind, names, number = (("plant", plants.PLANT_NAMES, "a") if table == "plant"
                           else ("controller", controllers.CONTROLLER_NAMES, "k1"))
    entry = dict(holder[key])
    expected = {
        "not an object": (1, f"{table}: expected an object"),
        "no name": ({k: v for k, v in entry.items() if k != "name"},
                    f"{table}.name: unknown {kind} None, expected one of {names}"),
        "unknown name": ({**entry, "name": "lorenz"},
                         f"{table}.name: unknown {kind} 'lorenz', expected one of {names}"),
        "unknown key": ({**entry, "bogus": 1.0}, f"{table}.bogus: unknown parameter"),
        "string for a number": ({**entry, number: "abc"},
                                f"{table}.{number}: unsupported value type"),
    }
    holder[key], message = expected[fault]
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == [message]


def test_x0_length_checked_against_plant():
    raw = _fig1_raw()
    raw["x0"] = [0.5, 0.0, 0.1]
    with pytest.raises(ScenarioValidationError, match="length 2"):
        validate(raw)


def test_a_document_that_is_not_an_object_is_one_violation():
    with pytest.raises(ScenarioValidationError) as err:
        validate([1])
    assert err.value.errors == ["scenario: expected a JSON object"]


@pytest.mark.parametrize("key, value, message", [
    ("x0", json.loads("[Infinity, 0.0]"), "x0: entries must be finite"),
    ("velocity_filter_cutoff_hz", 0, "velocity_filter_cutoff_hz: expected a number > 0"),
    ("velocity_filter_cutoff_hz", -1, "velocity_filter_cutoff_hz: expected a number > 0"),
    ("velocity_filter_cutoff_hz", math.nan,
     "velocity_filter_cutoff_hz: expected a number > 0"),
    ("matrix_group", 1, "matrix_group: expected a string"),
    # a name and a matrix group name output files, so a trailing newline
    # or a path separator is no name
    ("name", "a\n", "name: required, letters/digits/._- only"),
    ("matrix_group", "a/b", "matrix_group: letters/digits/._- only"),
    ("matrix_group", "a\n", "matrix_group: letters/digits/._- only"),
])
def test_each_top_level_fault_is_one_violation(key, value, message):
    raw = _fig1_raw()
    raw[key] = value
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == [message]


def test_a_null_per_node_controller_entry_is_required():
    raw = _suite_by_name()["fig4_network5_observer_free"].to_dict()
    raw["controller"] = [dict(raw["controller"]) for _ in range(5)]
    raw["controller"][2] = None
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert err.value.errors == ["controller[2]: required"]


def test_a_none_controller_round_trips():
    raw = _fig1_raw()
    raw["controller"] = {"name": "none"}
    sc = validate(raw)
    assert sc.controller == ("none",) and sc.controller_params == (None,)
    assert sc.to_dict()["controller"] == {"name": "none"}
    assert validate(sc.to_dict()) == sc


# ---------------------------------------------------------- serialization

def test_every_builtin_round_trips():
    for sc in builtin_suite():
        assert validate(sc.to_dict()) == sc


def test_settings_that_differ_in_the_sign_of_a_zero_round_trip_per_node():
    # to_dict writes one controller object only for one (law, repr(params))
    raw = {
        "name": "signed_zero",
        "plant": {"name": "network5", "n": 2},
        "controller": [{"name": "adaptive", "k0": 0.0}, {"name": "adaptive", "k0": -0.0}],
        "x0": [0.1, 0.0, 0.2, 0.0],
        "sim": {"t_final": 0.01},
    }
    sc = validate(raw)
    again = validate(sc.to_dict())
    assert repr(again) == repr(sc)
    assert sim.simulate_run(again).table.tobytes() == sim.simulate_run(sc).table.tobytes()
    assert isinstance(sc.to_dict()["controller"], list)


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


def test_load_scenario_reports_an_unreadable_file_in_one_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path, message in ((bad, "not valid JSON"), (tmp_path / "missing.json", "cannot read")):
        with pytest.raises(SmcLabError, match=message) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


def test_a_file_beats_a_builtin_name(tmp_path, monkeypatch):
    raw = _fig1_raw()
    raw["name"] = "from_file"
    (tmp_path / "fig1_pendulum_observer_free").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    assert scenarios.document("fig1_pendulum_observer_free") == raw
    assert validate(scenarios.document("fig1_pendulum_observer_free")).name == "from_file"


# the override rule as the command line applied it before scenarios.document
def _reference_parse_override(text: str):
    if "=" not in text:
        raise SmcLabError(f"override '{text}' must look like path.to.key=value")
    path, raw_value = text.split("=", 1)
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise SmcLabError(f"override '{text}' has an empty key path")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    return keys, value


def _reference_apply_override(raw: dict, keys, value, source: str):
    if not isinstance(raw, dict):
        raise SmcLabError(f"override '{source}': the scenario is not a JSON object")
    node = raw
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = {}
            node[key] = child
        if not isinstance(child, dict):
            raise SmcLabError(
                f"override '{source}': '{key}' does not address an object"
            )
        node = child
    node[keys[-1]] = value


_DOC_KEYS = st.sampled_from(["a", "b", "sim", "dt", "controller"])
_DOC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.dictionaries(_DOC_KEYS, inner, max_size=3) | st.lists(inner, max_size=2),
    max_leaves=8,
)
_DICT_DOCS = st.dictionaries(_DOC_KEYS, _DOC_VALUES, max_size=4)
# most paths then pass through a null or non-object table
_FLAT_DOCS = st.dictionaries(_DOC_KEYS, st.none() | st.integers(-3, 3) | st.lists(st.none(), max_size=1),
                             min_size=3)
_DOCS = st.one_of(_DICT_DOCS, _FLAT_DOCS, st.lists(_DOC_VALUES, max_size=2), st.text(max_size=3))
_SEGMENTS = st.sampled_from(["a", "b", "sim", "dt", "controller", "lambda", "", " ", " a ", "sim "])
# "" leaves out the "="; "a=b" puts a second one in the value
_VALUE_TEXTS = st.sampled_from([
    "=1", "=0.5", "=null", "={}", '={"a": 1}', "=[1, 2]", '="x"', "=true", "=x", "=",
    "= 2 ", "=NaN", "=1e999", "=-Infinity", "={bad", "=a=b", "=[1,", "",
]) | st.text(max_size=4).map(lambda v: "=" + v)
_OVERRIDES = st.builds(lambda segments, value: ".".join(segments) + value,
                       st.lists(_SEGMENTS, min_size=1, max_size=3), _VALUE_TEXTS)


def _outcome(make):
    try:
        return "ok", repr(make())
    except SmcLabError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS | st.just(None), texts=st.lists(_OVERRIDES, max_size=3))
@example(doc={"a": None}, texts=["a.b=1"])
@example(doc={"a": 1}, texts=["b.c. d =x", "a.b=2"])
@example(doc=None, texts=["nonsense"])
@example(doc=None, texts=["=1"])
@example(doc=[1], texts=["name=x"])
@example(doc=None, texts=["sim.dt.x=1"])
def test_document_applies_overrides_as_the_reference_does(tmp_path_factory, doc, texts):
    if doc is None:     # the built-in name, not a file
        ref, raw = "fig1_pendulum_observer_free", _fig1_raw()
    else:
        ref = tmp_path_factory.getbasetemp() / "override_doc.json"
        ref.write_text(json.dumps(doc))
        raw = json.loads(ref.read_text())

    def reference():
        for text in texts:
            keys, value = _reference_parse_override(text)
            _reference_apply_override(raw, keys, value, text)
        return raw

    assert _outcome(lambda: scenarios.document(str(ref), texts)) == _outcome(reference)


# any JSON value json.loads can give: ints beyond a float, nan and +-inf too
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats()
    | st.integers() | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _key_paths(value, path=()):
    """The key path of ``value`` and of everything nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _key_paths(child, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_accepts_or_rejects_every_json_document(data):
    by_name = _suite_by_name()
    one_node = by_name["fig1_pendulum_observer_free"].to_dict()
    network = by_name["fig4_network5_observer_free"].to_dict()
    network["controller"] = [{"name": name} for name in controllers.CONTROLLER_NAMES]
    doc = data.draw(st.sampled_from([one_node, network]))
    path = data.draw(st.sampled_from(list(_key_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    try:
        assert isinstance(validate(doc), scenarios.Scenario)
    except ScenarioValidationError:
        pass


_NOT_POSITIVE = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
_NEGATIVE = st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf])
# independent bad settings of fig1: (table, key, bad values, the one message)
_BAD_SETTINGS = (
    ("plant", "a", _NEGATIVE, "plant: pendulum a must be >= 0"),
    ("plant", "c", _NEGATIVE, "plant: pendulum c must be >= 0"),
    ("plant", "b", st.floats(-9.9e-10, 9.9e-10), "plant: pendulum |b| must be >= 1e-09"),
    ("controller", "k1", _NOT_POSITIVE, "controller: observer-free k1 must be > 0"),
    ("controller", "lambda", _NOT_POSITIVE, "controller: observer-free lambda must be > 0"),
    ("controller", "tanh_table_size", st.integers(1, 63) | st.integers(2 ** 16 + 1),
     "controller: tanh table size must be 0 or in [64, 65536]"),
    ("sim", "seed", st.integers(max_value=-1) | st.integers(min_value=2 ** 64),
     "sim: sim.seed must be an integer in [0, 2^64)"),
    ("sim", "record_stride", st.integers(max_value=0),
     "sim: sim.record_stride must be an integer >= 1"),
    ("noise", "std_x", _NEGATIVE, "noise: noise.std_x must be >= 0"),
    ("noise", "std_v", _NEGATIVE, "noise: noise.std_v must be >= 0"),
    ("disturbance", "amplitude", _NEGATIVE, "disturbance: disturbance.amplitude must be >= 0"),
    ("disturbance", "angular_frequency", _NEGATIVE,
     "disturbance: disturbance.angular_frequency must be >= 0"),
    ("disturbance", "kind", st.text().filter(lambda k: k not in sim.DISTURBANCE_KINDS),
     "disturbance: disturbance.kind must be one of ('none', 'sinusoid')"),
    ("delay", "tau", _NEGATIVE, "delay: delay.tau must be >= 0"),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validate_lists_every_range_violation(data):
    chosen = data.draw(st.sets(st.sampled_from(range(len(_BAD_SETTINGS)))))
    raw = _fig1_raw()
    want = []
    for table, key, values, message in (_BAD_SETTINGS[i] for i in sorted(chosen)):
        raw[table][key] = data.draw(values)
        want.append(message)
    # an unknown key still stops its table's range checks
    unknown = data.draw(st.none() | st.sampled_from(["plant", "controller", "sim"]))
    if unknown is not None:
        raw[unknown]["bogus"] = 1.0
        want = [m for m in want if not m.startswith(unknown + ":")]
        want.append(f"{unknown}.bogus: unknown parameter")
    if not want:
        assert validate(raw).name == raw["name"]
        return
    with pytest.raises(ScenarioValidationError) as err:
        validate(raw)
    assert sorted(err.value.errors) == sorted(want)


_GAINS = st.sampled_from([0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-9, 1.0, 1e300])
_PARAMS = st.sampled_from([0.0, 0.1, 1.0, 5.0, 1e300]) | st.floats(0.0, 100.0)
_HUGE = (st.sampled_from([0.0, 1e154, -1e154, 1e300, 1.7e308, -1.7e308])
         | st.floats(-1.7e308, 1.7e308))


def _plant_document(draw, name):
    if name == "network5":
        node = {"a": draw(_PARAMS), "c": draw(_PARAMS), "b": draw(_GAINS)}
        return {"name": name, "n": draw(st.integers(2, 5)), "kappa": draw(_PARAMS),
                "topology": draw(st.sampled_from(plants.TOPOLOGIES)), "node": node}
    fields = [f.name for f in dataclasses.fields(plants.param_type(name)) if f.name != "b"]
    return {"name": name, "b": draw(_GAINS), **{f: draw(_PARAMS) for f in fields}}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_validated_scenario_runs(data):
    # whatever validate accepts runs to a result, a divergence at worst,
    # with no exception and no numpy warning
    draw = data.draw
    plant = _plant_document(draw, draw(st.sampled_from(plants.PLANT_NAMES)))
    n = plant.get("n", 1)
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    doc = {
        "name": "fuzz",
        "plant": plant,
        "controller": {"name": draw(st.sampled_from(controllers.CONTROLLER_NAMES))},
        "x0": draw(st.lists(_HUGE, min_size=2 * n, max_size=2 * n)),
        "sim": {"dt": dt, "t_final": draw(st.sampled_from([dt, 0.01])),
                "seed": draw(st.integers(0, 3))},
        "noise": {"std_x": draw(_PARAMS), "std_v": draw(_PARAMS)},
        "disturbance": {"kind": "sinusoid", "amplitude": draw(_PARAMS),
                        "angular_frequency": draw(_PARAMS)},
        "delay": {"tau": draw(st.sampled_from([0.0, 2e-3]))},
        "estimate_velocity": draw(st.booleans()),
    }
    try:
        sc = validate(doc)
    except ScenarioValidationError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scenarios.run(sc)


def test_validate_rejects_a_vanishing_input_gain():
    by_name = _suite_by_name()
    for fig, key in (("fig1_pendulum", "pendulum |b|"), ("fig2_vdp", "vdp |b|"),
                     ("fig3_duffing", "duffing |b|")):
        raw = by_name[f"{fig}_observer_free"].to_dict()
        raw["plant"]["b"] = -1e-12
        with pytest.raises(ScenarioValidationError) as exc:
            validate(raw)
        assert exc.value.errors == [f"plant: {key} must be >= 1e-09"]
    raw = by_name["fig4_network5_observer_free"].to_dict()
    raw["plant"]["node"]["b"] = 1e-12
    with pytest.raises(ScenarioValidationError) as exc:
        validate(raw)
    assert exc.value.errors == ["plant.node: pendulum |b| must be >= 1e-09"]


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


def test_run_key_is_every_field_but_the_controller_side():
    suite = _suite_by_name()
    fig1 = suite["fig1_pendulum_observer_free"]
    other = {   # a second value for every Scenario field
        "name": "renamed",
        "plant": "duffing",
        "plant_params": dataclasses.replace(fig1.plant_params, c=0.2),
        "controller": ("classical",),
        "controller_params": (controllers.ClassicalParams(),),
        "x0": (0.6, 0.0),
        "sim": dataclasses.replace(fig1.sim, seed=7),
        "noise": sim.NoiseConfig(std_x=0.01),
        "disturbance": suite["fig7_vdp_disturbance"].disturbance,
        "delay": sim.DelaySpec(tau=0.01),
        "estimate_velocity": True,
        "velocity_filter_cutoff_hz": 10.0,
        "views": ("state", "control"),
        "matrix_group": "",
    }
    assert list(other) == [f.name for f in dataclasses.fields(scenarios.Scenario)]
    controller_side = {"name", "controller", "controller_params", "views", "matrix_group"}
    for key, value in other.items():
        assert getattr(fig1, key) != value, key
        changed = run_key(dataclasses.replace(fig1, **{key: value})) != run_key(fig1)
        assert changed == (key not in controller_side), key


def test_every_error_class_survives_pickling():
    made = [
        errors.SmcLabError("boom"),
        errors.InvalidInputError("dt must be > 0"),
        errors.ConfigError("x: bad"),
        errors.ConfigError("x: bad", "y: worse"),
        errors.SingularGainError("plant.b: |b| must be >= 1e-09"),
        errors.ScenarioValidationError(["x: bad", "y: worse"]),
        errors.DivergenceError(1.5),
        errors.DivergenceError(0.25, "node 3 ran away"),
    ]
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, SmcLabError)}
    assert classes == {type(e) for e in made}
    for e in made:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e)
        assert str(back) == str(e)
        assert getattr(back, "errors", None) == getattr(e, "errors", None)
        assert getattr(back, "t", None) == getattr(e, "t", None)


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


def test_builtin_suite_definition_is_pinned():
    # perfbench swaps builtin_suite out, so its metrics cannot see a change here
    text = "".join(repr(sc) + "\n" for sc in builtin_suite())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f34a70086e6c9cb5af207492fd69c32da68d2202bcec319ac7e7de6919839f4b"


def test_builtin_suite_all_validate():
    for sc in builtin_suite():
        validated = validate(sc.to_dict())
        assert validated == sc


def test_network_scenario_is_decentralized():
    sc = _suite_by_name()["fig4_network5_observer_free"]
    assert sc.controller == ("observer-free",) * 5
    params = sc.controller_params
    assert len(params) == 5
    assert all(p.lam == 5.0 for p in params)
    # each node's input reads only that node's measured state
    xs, vs, gs = [0.1, -0.2, 0.05, 0.3, -0.1], [0.0] * 5, list(sc.make_plant().g)
    u0 = controllers.node_laws(sc.controller, params)(xs, vs, gs, 1e-3)[0]
    for i in range(5):
        moved = [x + 0.1 * (j == i) for j, x in enumerate(xs)]
        u = controllers.node_laws(sc.controller, params)(moved, vs, gs, 1e-3)[0]
        assert [j for j in range(5) if u[j] != u0[j]] == [i]


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
        "fig1_pendulum_adaptive.svg",
        "fig1_pendulum_classical.csv",
        "fig1_pendulum_classical.svg",
        "fig1_pendulum_observer_free.csv",
        "fig1_pendulum_observer_free.svg",
        "fig1_pendulum_super_twisting.csv",
        "fig1_pendulum_super_twisting.svg",
        "matrix_pendulum.csv",
        "summary.csv",
    ]


def test_full_suite_outputs(suite_serial):
    result, out, elapsed = suite_serial
    assert len(result.runs) == 20
    assert result.failures == {}
    assert set(result.matrices) == {"pendulum", "vdp", "duffing", "network5"}

    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 48  # 20 runs + 23 figures + summary + 4 matrices
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


def test_run_suite_holds_one_table_at_a_time(tmp_path, monkeypatch):
    # each run's table is freed once its CSV and figures are written, before
    # the next run or the delayed rerun starts
    short = sim.SimConfig(t_final=0.05)
    suite = [dataclasses.replace(sc, sim=short) for sc in builtin_suite()
             if sc.matrix_group in ("pendulum", "")][:6]
    buffers, alive = [], []
    simulate_run = sim.simulate_run

    def tracked(sc):
        alive.append(sum(ref() is not None for ref in buffers))
        ts = simulate_run(sc)
        root = ts.table
        while root.base is not None:
            root = root.base
        buffers.append(weakref.ref(root))
        return ts

    monkeypatch.setattr(sim, "simulate_run", tracked)
    result = run_suite(suite, tmp_path)
    assert not result.failures and len(buffers) == 4 * 2 + 2
    assert alive == [0] * len(buffers)


def _short_pendulum_pair():
    short = sim.SimConfig(t_final=0.05)
    return [dataclasses.replace(sc, sim=short) for sc in builtin_suite()
            if sc.matrix_group == "pendulum"][:2]


def _record_runs(monkeypatch, fail_on=()):
    """Wrap sim.simulate_run to log (name, thread) per call and raise for
    the scenario names in ``fail_on``."""
    calls = []
    simulate_run = sim.simulate_run

    def recorded(sc):
        calls.append((sc.name, threading.get_ident()))
        if sc.name in fail_on:
            raise RuntimeError("boom")
        return simulate_run(sc)

    monkeypatch.setattr(sim, "simulate_run", recorded)
    return calls


@pytest.mark.parametrize("parallelism", [1, 4])
def test_run_suite_runs_every_job_in_the_calling_thread(tmp_path, monkeypatch, parallelism):
    # wrappers around sim.simulate_run (such as a profiler) see every run,
    # each delayed rerun right after its own run
    calls = _record_runs(monkeypatch)
    pair = _short_pendulum_pair()
    result = run_suite(pair, tmp_path, parallelism=parallelism)
    assert not result.failures and set(result.matrices) == {"pendulum"}
    a, b = (sc.name for sc in pair)
    assert calls == [(name, threading.get_ident())
                     for name in (a, a + "+delay10ms", b, b + "+delay10ms")]


def test_run_suite_lists_a_raising_delayed_rerun(tmp_path, monkeypatch):
    pair = _short_pendulum_pair()
    name = pair[0].name
    _record_runs(monkeypatch, fail_on={name + "+delay10ms"})
    result = run_suite(pair, tmp_path)
    assert result.failures == {name + "+delay10ms": "RuntimeError: boom"}
    assert set(result.runs) == {sc.name for sc in pair}
    assert (tmp_path / f"{name}.csv").exists()
    matrix = result.matrices["pendulum"]
    assert matrix.verdict("DelayTolerant", pair[0].controller[0]) is None    # n/a
    assert matrix.verdict("DelayTolerant", pair[1].controller[0]) is not None


def test_run_suite_skips_the_rerun_of_a_member_whose_run_raised(tmp_path, monkeypatch):
    # a member without a report takes no matrix seat, so nothing reads its rerun
    pair = _short_pendulum_pair()
    a, b = (sc.name for sc in pair)
    calls = _record_runs(monkeypatch, fail_on={a})
    result = run_suite(pair, tmp_path)
    assert [name for name, _ in calls] == [a, b, b + "+delay10ms"]
    assert result.failures == {a: "RuntimeError: boom"}
    assert set(result.runs) == {b} and result.matrices == {}


@pytest.mark.parametrize("case", ["duplicate name", "duplicate seat", "parallelism 0",
                                  "two experiments"])
def test_a_bad_suite_fails_before_any_run(tmp_path, monkeypatch, case):
    calls = _record_runs(monkeypatch)
    fig1, other = _short_pendulum_pair()
    twin = dataclasses.replace(fig1, name="twin")
    moved = dataclasses.replace(other, x0=(0.4, 0.0))
    suite, parallelism, message = {
        "duplicate name": ([fig1, fig1], 1, "duplicate scenario names"),
        "duplicate seat": ([fig1, twin], 1, f"duplicate controller '{fig1.controller[0]}'"),
        "parallelism 0": ([fig1], 0, "parallelism must be >= 1"),
        "two experiments": ([fig1, moved], 1, f"matrix group 'pendulum' members "
                            f"'{fig1.name}' and '{moved.name}' run different experiments"),
    }[case]
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=message):
        run_suite(suite, out, parallelism=parallelism)
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("controller", [
    # one observer-free node among classical ones used to label the whole
    # column observer-free, with node 0's lambda as its input bound
    [{"name": "observer-free", "lambda": 5.0}] + [{"name": "classical", "k": 50.0}] * 4,
    # settings that differ only in the sign of a zero are two settings
    [{"name": "adaptive", "gamma": 0.0}] + [{"name": "adaptive", "gamma": -0.0}] * 4,
], ids=["mixed laws", "signed zero"])
def test_matrix_member_runs_one_controller_setting(tmp_path, controller):
    by_name = _suite_by_name()
    raw = by_name["fig4_network5_observer_free"].to_dict()
    raw["sim"]["t_final"] = 0.2
    raw["controller"] = controller
    mixed = validate(raw)
    classical = dataclasses.replace(by_name["fig4_network5_classical"], sim=mixed.sim)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="more than one controller setting"):
        run_suite([mixed, classical], out)
    assert not out.exists()


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
