"""End-to-end checks of the smclab command line interface."""
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from smclab import cli, scenarios, sim
from smclab.cli import main

FIG1 = "fig1_pendulum_observer_free"

BLOWUP = {
    "name": "blowup",
    "plant": {"name": "duffing", "lin": 5.0, "cub": 1.0, "delta": 0.0},
    "controller": {"name": "none"},
    "x0": [1.0, 0.0],
    "sim": {"dt": 1e-3, "t_final": 10.0},
}


# -------------------------------------------------------------------- run

def test_run_builtin_writes_three_files(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path)])
    assert code == 0

    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{FIG1}.csv", f"{FIG1}.metrics.txt", f"{FIG1}.svg"]

    out = capsys.readouterr().out
    for name in names:
        assert f"wrote {tmp_path / name}" in out

    header = (tmp_path / f"{FIG1}.csv").read_text().splitlines()[0]
    assert header == "t,x,v,u,alpha,beta,s,V,d"
    svg = (tmp_path / f"{FIG1}.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg " in svg and svg.rstrip().endswith("</svg>")
    assert (tmp_path / f"{FIG1}.metrics.txt").read_text().startswith("#")


def test_run_no_svg_writes_two_files(tmp_path):
    code = main(["run", FIG1, "--out-dir", str(tmp_path), "--no-svg"])
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{FIG1}.csv", f"{FIG1}.metrics.txt"]


def test_run_writes_the_scenarios_views(tmp_path, capsys):
    fig5 = "fig5_vdp_nominal"    # declares ["state", "control"]
    assert main(["run", fig5, "--out-dir", str(tmp_path / "fig5")]) == 0
    names = sorted(p.name for p in (tmp_path / "fig5").iterdir())
    assert names == [f"{fig5}.csv", f"{fig5}.metrics.txt", f"{fig5}.svg", f"{fig5}.u.svg"]
    out = capsys.readouterr().out
    for name in names:
        assert f"wrote {tmp_path / 'fig5' / name}" in out
    assert ">control</text>" in (tmp_path / "fig5" / f"{fig5}.u.svg").read_text()

    raw = scenarios.builtin_suite()[0].to_dict()
    raw.update(name="u_only", views=["control"])
    sc_path = tmp_path / "u_only.json"
    sc_path.write_text(json.dumps(raw))
    assert main(["run", str(sc_path), "--out-dir", str(tmp_path / "u")]) == 0
    names = sorted(p.name for p in (tmp_path / "u").iterdir())
    assert names == ["u_only.csv", "u_only.metrics.txt", "u_only.u.svg"]
    assert main(["run", str(sc_path), "--out-dir", str(tmp_path / "none"), "--no-svg"]) == 0
    assert sorted(p.name for p in (tmp_path / "none").iterdir()) == \
        ["u_only.csv", "u_only.metrics.txt"]


def test_run_rejects_zero_dt(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path), "--set", "sim.dt=0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "dt must be positive" in err
    assert not list(tmp_path.iterdir())


def test_run_has_no_dt_option(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", FIG1, "--dt", "0.002", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt 0.002" in capsys.readouterr().err
    assert not out.exists()


def test_run_set_override_reaches_metrics(tmp_path):
    # lambda too weak to settle in 10 s, so the report says none
    code = main([
        "run", FIG1, "--out-dir", str(tmp_path),
        "--set", "controller.lambda=0.01",
    ])
    assert code == 0
    text = (tmp_path / f"{FIG1}.metrics.txt").read_text()
    assert "settling_time=none" in text


def test_run_unknown_scenario(tmp_path, capsys):
    code = main(["run", "fig99_nope", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "neither a readable file nor a built-in" in capsys.readouterr().err


def test_run_scenario_from_json_file(tmp_path):
    sc_path = tmp_path / "case.json"
    raw = scenarios.builtin_suite()[0].to_dict()
    raw["name"] = "my_case"
    sc_path.write_text(json.dumps(raw))
    code = main(["run", str(sc_path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "my_case.csv").exists()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def test_run_directory_is_config_error(tmp_path, capsys):
    code = main(["run", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "cannot read" in _one_line_error(capsys)


def test_run_reference_too_long_for_a_file_name_is_config_error(tmp_path, capsys):
    code = main(["run", "a" * 300, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "neither a readable file nor a built-in" in _one_line_error(capsys)


def test_run_non_utf8_file_is_config_error(tmp_path, capsys):
    sc_path = tmp_path / "latin1.json"
    sc_path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code = main(["run", str(sc_path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "cannot read" in _one_line_error(capsys)


def test_run_override_on_non_object_document(tmp_path, capsys):
    sc_path = tmp_path / "list.json"
    sc_path.write_text("[1]")
    code = main(["run", str(sc_path), "--set", "name=x",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not a JSON object" in _one_line_error(capsys)


def test_run_out_dir_naming_a_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", FIG1, "--out-dir", str(blocker)])
    assert code == 2
    assert "cannot create output directory" in _one_line_error(capsys)


def test_run_recording_over_the_cap_is_config_error(tmp_path, capsys):
    # every one of 2e7 steps is recorded, more than sim.MAX_RECORDED_SAMPLES,
    # whatever the stride of the written files
    for stride in (1, 10):
        code = main(["run", FIG1, "--out-dir", str(tmp_path),
                     "--set", "sim.t_final=20000",
                     "--set", f"sim.record_stride={stride}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: sim: ") and err.count("\n") == 1
        assert "20000001 recorded samples" in err
        assert "sim.record_stride" not in err
        assert not list(tmp_path.iterdir())


def test_run_divergence_exit_code(tmp_path, capsys):
    sc_path = tmp_path / "blowup.json"
    sc_path.write_text(json.dumps(BLOWUP))
    code = main(["run", str(sc_path), "--out-dir", str(tmp_path / "out")])
    assert code == 3
    captured = capsys.readouterr()
    assert "diverged at t=1.087" in captured.err
    assert "partial output written" in captured.err
    text = (tmp_path / "out" / "blowup.csv").read_text()
    assert text.startswith("# diverged_at=")
    loaded = sim.TimeSeries.read_csv(tmp_path / "out" / "blowup.csv")
    assert loaded.diverged and loaded.diverged_at == 1.087


def test_run_diverging_on_flat_huge_values_writes_its_figure(tmp_path, capsys):
    # the one recorded x is 1e308, a flat range that a pad of 1 cannot widen
    code = main(["run", FIG1, "--out-dir", str(tmp_path), "--set", "x0=[1e308,0]",
                 "--set", "sim.t_final=0.01"])
    assert code == 3
    assert capsys.readouterr().err == "run diverged at t=0.001 s, partial output written\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{FIG1}.csv", f"{FIG1}.svg"]

    for y in (1e308, -1e308, sys.float_info.max, -sys.float_info.max):
        svg = cli.render_line_svg([("x", [0.0, 1.0], [y, y])])
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        assert all(math.isfinite(float(v)) for v in re.split(r"[ ,]", points))


def test_plot_flat_t_beyond_2_53_draws(tmp_path, capsys):
    # one row at t = 2^53 + 4, where a pad of 1 rounds back to t itself
    path = tmp_path / "one.csv"
    sim.TimeSeries(np.array([[9007199254740996.0, 1.0, 0, 0, 0, 0, 0, 0, 0]])).write_csv(path)
    out = tmp_path / "one.svg"
    assert main(["plot", str(path), "--columns", "x", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    for t in (2.0 ** 52, 2.0 ** 53, 9007199254740996.0, -sys.float_info.max):
        svg = cli.render_line_svg([("x", [t, t], [0.0, 1.0])])
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        assert all(math.isfinite(float(v)) for v in re.split(r"[ ,]", points))


def test_run_diverging_beyond_a_float_span_skips_its_figure(tmp_path, capsys):
    # x spans 2e308, which no float holds: the divergence still decides the exit
    code = main(["run", "fig4_network5_observer_free", "--out-dir", str(tmp_path),
                 "--set", "x0=[1e308,0,-1e308,0,0,0,0,0,0,0]", "--set", "sim.t_final=0.01"])
    assert code == 3
    svg = tmp_path / "fig4_network5_observer_free.svg"
    assert capsys.readouterr().err == (
        f"skipped {svg}: the plotted values span more than a float can hold\n"
        "run diverged at t=0.001 s, partial output written\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["fig4_network5_observer_free.csv"]


def test_run_overflowing_numpy_ends_as_a_divergence_without_a_warning(tmp_path, capsys):
    # Duffing's cube runs on numpy: (1e103) ** 3 overflows at the first step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "fig3_duffing_observer_free", "--out-dir", str(tmp_path),
                     "--set", "x0=[1e103,0]", "--set", "sim.t_final=0.01"])
    assert code == 3
    assert capsys.readouterr().err == "run diverged at t=0.001 s, partial output written\n"


def test_run_vanishing_input_gain_is_invalid_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", FIG1, "--set", "plant.b=1e-12", "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "invalid scenario: plant: pendulum |b| must be >= 1e-09\n"
    assert not out.exists()
    # one line per violation, every range check of the table included
    code = main(["run", FIG1, "--set", "plant.b=1e-12", "--set", "plant.a=-1",
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid scenario: plant: pendulum a must be >= 0\n"
        "invalid scenario: plant: pendulum |b| must be >= 1e-09\n")
    assert not out.exists()


def test_run_output_that_cannot_be_written_is_config_error(tmp_path, capsys):
    blocker = tmp_path / f"{FIG1}.svg"
    blocker.mkdir()
    code = main(["run", FIG1, "--out-dir", str(tmp_path), "--set", "sim.t_final=0.1"])
    assert code == 2
    assert _one_line_error(capsys) == f"error: cannot write {blocker}: Is a directory\n"


@pytest.mark.parametrize("scenario,override,message", [
    (FIG1, "views=[[1]]", "views: expected a non-empty list drawn from"),
    (FIG1, "plant=1", "plant: expected an object"),
    ("fig4_network5_observer_free", "plant.node=1", "plant.node: expected an object"),
])
def test_run_json_value_of_the_wrong_shape_is_config_error(tmp_path, capsys, scenario,
                                                           override, message):
    code = main(["run", scenario, "--out-dir", str(tmp_path), "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {message}") and err.count("\n") == 1, err


def test_svg_escapes_title_and_labels_as_xml_sax():
    # the bytes xml.sax.saxutils.escape gave: &, < and > replaced, quotes kept
    text = """a&b<c>"d'e"""
    escaped = """a&amp;b&lt;c&gt;"d'e"""
    traces = [(text, [0.0, 1.0], [0.0, 2.0])]
    svg = cli.render_line_svg(traces, title=text, ylabel=text)
    plain = cli.render_line_svg([("LABEL", [0.0, 1.0], [0.0, 2.0])],
                                title="TITLE", ylabel="YLABEL")
    want = (plain.replace(">LABEL<", f">{escaped}<").replace(">TITLE<", f">{escaped}<")
            .replace(">YLABEL<", f">{escaped}<"))
    assert svg == want and svg.count(escaped) == 3


def test_importing_the_cli_leaves_urllib_out():
    code = "import sys, smclab.cli; print('urllib.request' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False\n"


def test_run_honours_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    code = main(["run", FIG1, "--no-svg"])
    assert code == 0
    assert (target / f"{FIG1}.csv").exists()
    # an explicit flag wins over the environment
    explicit = tmp_path / "explicit"
    code = main(["run", FIG1, "--out-dir", str(explicit), "--no-svg"])
    assert code == 0
    assert (explicit / f"{FIG1}.csv").exists()


def test_run_integer_too_large_for_a_float_is_config_error(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path),
                 "--set", "controller.lambda=1" + "0" * 400])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "invalid scenario: controller.lambda: expected a finite number\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sets, message", [
    (["sim.t_final=1e308"], "sim: sim step count exceeds 1e+08"),
    (["disturbance.kind=sinusoid", "disturbance.amplitude=0.1",
      "disturbance.angular_frequency=1e308", "sim.t_final=2.5"],
     "disturbance.angular_frequency: the phase at sim.t_final overflows a float"),
    (["estimate_velocity=true", "velocity_filter_cutoff_hz=1e308", "sim.t_final=0.01"],
     "velocity_filter_cutoff_hz: 2 pi cutoff sim.dt overflows a float"),
], ids=["step-count", "disturbance-phase", "filter-coefficient"])
def test_run_overflowing_derived_number_is_config_error(tmp_path, capsys, sets, message):
    args = ["run", FIG1, "--out-dir", str(tmp_path)]
    for text in sets:
        args += ["--set", text]
    assert main(args) == 2
    assert capsys.readouterr().err == f"invalid scenario: {message}\n"
    assert not list(tmp_path.iterdir())


def test_run_delay_longer_than_any_run(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path),
                 "--set", "delay.tau=1e308", "--set", "sim.t_final=0.01"])
    assert code == 0
    ts = sim.TimeSeries.read_csv(tmp_path / f"{FIG1}.csv")
    assert not ts.u.any()       # every applied control is the fill


def test_run_tanh_table_over_the_limit_is_config_error(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path),
                 "--set", "controller.tanh_table_size=1" + "0" * 400])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        "invalid scenario: controller: tanh table size must be 0 or in [64, 65536]\n"
    )
    assert not list(tmp_path.iterdir())


def test_run_overflowing_v_is_reported_as_diverged(tmp_path, capsys):
    # k1 = 1e200 keeps the state and u finite, but V = s^2 / 2 overflows
    code = main(["run", FIG1, "--out-dir", str(tmp_path),
                 "--set", "controller.k1=1e200", "--set", "sim.t_final=0.01"])
    assert code == 3
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{FIG1}.csv", f"{FIG1}.metrics.txt", f"{FIG1}.svg"]
    assert capsys.readouterr().err == "run overflowed: non-finite values in V\n"
    text = (tmp_path / f"{FIG1}.metrics.txt").read_text()
    for line in ("diverged=true", "lyap_violation_count=none", "lyap_epsilon_hat=none"):
        assert line in text.splitlines()


def test_run_bad_override_syntax(tmp_path, capsys):
    code = main(["run", FIG1, "--out-dir", str(tmp_path), "--set", "nonsense"])
    assert code == 2
    assert "must look like" in capsys.readouterr().err


def test_run_unknown_parameter_override(tmp_path, capsys):
    code = main([
        "run", FIG1, "--out-dir", str(tmp_path), "--set", "controller.slope=2",
    ])
    assert code == 2
    assert "unknown parameter" in capsys.readouterr().err


# ------------------------------------------------------------------- plot

@pytest.fixture(scope="module")
def fig1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("plotsrc")
    assert main(["run", FIG1, "--out-dir", str(out), "--no-svg"]) == 0
    return out / f"{FIG1}.csv"


def test_plot_single_csv(fig1_csv, tmp_path, capsys):
    out = tmp_path / "x.svg"
    code = main(["plot", str(fig1_csv), "--columns", "x,u", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert ">x</text>" in svg and ">u</text>" in svg
    assert f"wrote {out}" in capsys.readouterr().out


def test_plot_default_output_path(fig1_csv):
    code = main(["plot", str(fig1_csv), "--columns", "x"])
    assert code == 0
    assert fig1_csv.with_suffix(".plot.svg").exists()


def test_plot_overlay_multiple_csvs(fig1_csv, tmp_path):
    copies = []
    for i in range(3):
        p = tmp_path / f"copy{i}.csv"
        p.write_bytes(fig1_csv.read_bytes())
        copies.append(str(p))
    out = tmp_path / "overlay.svg"
    code = main(["plot", *copies, "--columns", "u",
                 "--out", str(out), "--title", "controls"])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 3
    assert ">copy0:u</text>" in svg  # per-file labels in the legend
    assert ">controls</text>" in svg


def test_plot_unknown_column(fig1_csv, capsys):
    code = main(["plot", str(fig1_csv), "--columns", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "no column 'bogus'" in err
    assert "available: t, x, v, u, alpha, beta, s, V, d" in err


def test_plot_missing_file(tmp_path, capsys):
    # a missing file and a directory are unreadable inputs, not failed writes
    for path in (tmp_path / "absent.csv", tmp_path):
        code = main(["plot", str(path), "--columns", "x"])
        assert code == 2
        assert _one_line_error(capsys).startswith(f"error: {path}: cannot read: ")


def test_plot_non_utf8_csv_is_config_error(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfet,x\n0.0,1.0\n")
    code = main(["plot", str(path), "--columns", "x"])
    assert code == 2
    assert "not a UTF-8 text file" in _one_line_error(capsys)


def test_plot_out_under_a_file_is_config_error(fig1_csv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["plot", str(fig1_csv), "--columns", "x",
                 "--out", str(blocker / "x.svg")])
    assert code == 2
    assert "cannot create output directory" in _one_line_error(capsys)


def test_plot_out_naming_a_directory_is_config_error(fig1_csv, tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    code = main(["plot", str(fig1_csv), "--columns", "x", "--out", str(target)])
    assert code == 2
    assert "cannot write" in _one_line_error(capsys)
    assert list(target.iterdir()) == []


def test_plot_non_finite_values_are_config_errors(tmp_path, capsys):
    # a real run: with k1 = 1e200, V = s^2 / 2 overflows to inf on every row
    raw = {sc.name: sc for sc in scenarios.builtin_suite()}[FIG1].to_dict()
    raw["controller"]["k1"] = 1e200
    raw["sim"]["t_final"] = 0.01
    ts = sim.simulate_run(scenarios.validate(raw))
    path = tmp_path / "big_k1.csv"
    ts.write_csv(path)
    assert main(["plot", str(path), "--columns", "V"]) == 2
    assert f"{path}: column 'V' holds nan or inf" in _one_line_error(capsys)
    assert main(["plot", str(path), "--columns", "x"]) == 0
    capsys.readouterr()

    ts.table[1, 0] = float("nan")
    ts.write_csv(path)
    assert main(["plot", str(path), "--columns", "x"]) == 2
    assert f"{path}: column 't' holds nan or inf" in _one_line_error(capsys)

    # finite values whose range overflows a float
    ts.table[:, 0] = range(ts.n_samples)
    ts.table[:, 1] = 1e308
    ts.table[0, 1] = -1e308
    ts.write_csv(path)
    assert main(["plot", str(path), "--columns", "x"]) == 2
    assert "span more than a float can hold" in _one_line_error(capsys)


def test_plot_span_whose_ticks_underflow(tmp_path, capsys):
    # a sixth of 5e-324 rounds to 0, and the power of ten of 3e-323 / 6 to 0
    for top in (5e-324, 3e-323):
        ts = sim.TimeSeries(np.zeros((2, 9)))
        ts.table[:, 0] = [0.0, 1.0]
        ts.table[1, 1] = top
        path, out = tmp_path / "tiny.csv", tmp_path / "p.svg"
        ts.write_csv(path)
        assert main(["plot", str(path), "--columns", "x", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text().count("<polyline") == 1


def test_plot_writes_utf8_under_an_ascii_locale(fig1_csv, tmp_path):
    # the SVG declares UTF-8, so a non-ASCII title must not be written in
    # the locale's encoding; chr keeps this source ASCII for "-c"
    out = tmp_path / "lambda.svg"
    code = ("import sys; from smclab.cli import main; sys.exit(main(["
            "'plot', sys.argv[1], '--columns', 'x', '--title', chr(0x3bb) + ' sweep', "
            "'--out', sys.argv[2]]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-c", code, str(fig1_csv), str(out)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f">{chr(0x3bb)} sweep</text>" in out.read_text(encoding="utf-8")


def test_plot_empty_columns(fig1_csv, capsys):
    code = main(["plot", str(fig1_csv), "--columns", ","])
    assert code == 2
    assert "lists no column" in capsys.readouterr().err


# ------------------------------------------------------------------ suite

def test_suite_cli_end_to_end(tmp_path, capsys, suite_serial):
    out = tmp_path / "suite"
    code = main(["suite", "--out-dir", str(out), "--parallelism", "4"])
    captured = capsys.readouterr()
    assert code == 0

    stdout = captured.out
    groups = re.findall(r"=== (\w+) ===", stdout)
    assert groups == sorted(["pendulum", "vdp", "duffing", "network5"])
    assert f"ran 20 scenarios, output in {out}" in stdout

    # matrix text carries per-controller verdicts in declared order
    pendulum_block = stdout.split("=== pendulum ===")[1].split("===")[0]
    chatter_line = next(
        line for line in pendulum_block.splitlines()
        if line.startswith("NoChattering")
    )
    marks = re.findall(r"(yes|no|n/a)", chatter_line)
    assert marks[0] == "no"    # classical relay chatters
    assert marks[-1] == "yes"  # the smooth law does not

    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 25
    assert {"summary.csv", "matrix_pendulum.csv", "matrix_vdp.csv",
            "matrix_duffing.csv", "matrix_network5.csv"} <= set(csvs)

    # figure files: .svg for the state view, .u.svg for the control view
    assert (out / "fig1_pendulum_observer_free.svg").exists()
    assert (out / "fig7_vdp_disturbance.svg").exists()
    assert (out / "fig7_vdp_disturbance.u.svg").exists()
    assert not (out / "fig1_pendulum_observer_free.u.svg").exists()
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 23  # 20 state views + 3 control views

    # the command writes what run_suite writes, file for file
    _, api_out, _ = suite_serial
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in api_out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (api_out / name).read_bytes(), name


def test_suite_rerun_is_byte_identical(tmp_path, monkeypatch):
    pendulum_only = [
        sc for sc in scenarios.builtin_suite() if sc.matrix_group == "pendulum"
    ]
    monkeypatch.setattr(scenarios, "builtin_suite", lambda: pendulum_only)
    out = tmp_path / "suite"
    assert main(["suite", "--out-dir", str(out)]) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(snapshot) == 10  # 4 runs x (csv + svg) + summary + matrix
    assert main(["suite", "--out-dir", str(out)]) == 0
    for p in sorted(out.iterdir()):
        assert p.read_bytes() == snapshot[p.name], p.name


def test_suite_reports_partial_failures(tmp_path, monkeypatch, capsys):
    blowup = scenarios.validate(BLOWUP)

    def tiny_suite():
        return [blowup]

    monkeypatch.setattr(scenarios, "builtin_suite", tiny_suite)
    code = main(["suite", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 4
    assert "failed: blowup: diverged at t=1.087 s" in captured.err
    assert "ran 1 scenarios" in captured.out


def test_suite_skips_a_figure_it_cannot_draw_and_lists_the_run(tmp_path, monkeypatch, capsys):
    # as in smclab run: x spans 2e308, the figure is skipped, the failure decides the exit
    raw = {sc.name: sc for sc in scenarios.builtin_suite()}[
        "fig4_network5_observer_free"].to_dict()
    raw.update(x0=[1e308, 0, -1e308, 0, 0, 0, 0, 0, 0, 0], matrix_group="")
    raw["sim"]["t_final"] = 0.01
    monkeypatch.setattr(scenarios, "builtin_suite", lambda: [scenarios.validate(raw)])
    out = tmp_path / "out"
    code = main(["suite", "--out-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err == (
        f"skipped {out / 'fig4_network5_observer_free.svg'}: the plotted values span "
        "more than a float can hold\n"
        "failed: fig4_network5_observer_free: diverged at t=0.001 s\n"
    )
    assert sorted(p.name for p in out.iterdir()) == [
        "fig4_network5_observer_free.csv", "summary.csv"]


def test_suite_output_that_cannot_be_written_is_config_error(tmp_path, monkeypatch, capsys):
    raw = {sc.name: sc for sc in scenarios.builtin_suite()}[FIG1].to_dict()
    raw["sim"]["t_final"] = 0.1
    monkeypatch.setattr(scenarios, "builtin_suite", lambda: [scenarios.validate(raw)])
    blocker = tmp_path / f"{FIG1}.csv"
    blocker.mkdir()
    code = main(["suite", "--out-dir", str(tmp_path)])
    assert code == 2
    assert _one_line_error(capsys) == f"error: cannot write {blocker}: Is a directory\n"


def test_suite_out_dir_naming_a_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["suite", "--out-dir", str(blocker)])
    assert code == 2
    assert "cannot create output directory" in _one_line_error(capsys)


def test_suite_rejects_bad_parallelism(tmp_path, capsys):
    code = main(["suite", "--out-dir", str(tmp_path), "--parallelism", "0"])
    assert code == 2
    assert "parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("copies, args, message", [
    (2, [], "duplicate scenario names in suite"),
    (1, ["--parallelism", "0"], "parallelism must be >= 1"),
])
def test_a_rejected_suite_makes_no_directory(tmp_path, monkeypatch, capsys,
                                             copies, args, message):
    fig1 = {sc.name: sc for sc in scenarios.builtin_suite()}[FIG1]
    monkeypatch.setattr(scenarios, "builtin_suite", lambda: [fig1] * copies)
    out = tmp_path / "out"
    assert main(["suite", "--out-dir", str(out), *args]) == 2
    assert _one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()


# ------------------------------------------------------------------- help

def test_help_text_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in ("run", "suite", "plot", "example: smclab"):
        assert word in out


def test_subcommand_help_has_example(capsys):
    for command in ("run", "suite", "plot"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "example: smclab" in capsys.readouterr().out


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
