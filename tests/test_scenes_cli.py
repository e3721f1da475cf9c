"""Tests for scene files, ray fans, serialization, and the CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from edgeray import cli
from edgeray.cli import _load_scene, main
from edgeray.errors import ConfigError, DimensionError
from edgeray.hamiltonian import FlowSettings, integrate_interior
from edgeray.metric import VALIDATION_SAMPLES, wave_symbol
from edgeray.phase import EdgePhasePoint
from edgeray.rays_io import dump_columns, serialize_dump
from edgeray.run import run_scenario
from edgeray.scenes import (
    SCENE_KEYS,
    PointSource,
    blow_down,
    blow_down_segment,
    builtin_scene,
    fan_directions,
    parse_scene,
    scenario_rays,
)

CUSTOM_SCENE = """
# wobbly circle fiber over a point edge
b = 0; f = 1
k = [[(1 + 0.2*sin(z1))^2]]
fiber = circle(6.283185307179586)
t_span = [0.0, 1.0]
source = [0.0, 0.5, 1.2, 1.0, 1.0, 0.0]
policy = same_fiber
"""


def test_builtin_scene_references():
    config = builtin_scene("product_cone(2.0)")
    assert config.spec.f == 1
    assert config.name == "product_cone(2.0)"
    assert builtin_scene("product_edge(2, 2)").spec.b == 2
    assert builtin_scene("sphere_edge").spec.f == 2
    for bad in ("nope", "product_cone(x)", "product_cone(1, 2, 3)",
                "product_cone(-1.0)", "1bad"):
        with pytest.raises(ConfigError):
            builtin_scene(bad)


def test_custom_scene_parses():
    config = parse_scene(CUSTOM_SCENE)
    assert config.name == "custom"
    assert config.spec.b == 0 and config.spec.f == 1
    assert config.spec.fiber.kind == "circle"
    assert isinstance(config.source, EdgePhasePoint)
    assert config.source.x == 0.5
    assert config.t_span == (0.0, 1.0)


def test_quoted_matrix_entries_are_tolerated():
    quoted = CUSTOM_SCENE.replace('[[(1 + 0.2*sin(z1))^2]]',
                                  '[["(1 + 0.2*sin(z1))^2"]]')
    a = parse_scene(CUSTOM_SCENE)
    b = parse_scene(quoted)
    assert a.spec.k == b.spec.k


def test_scene_validation_errors():
    with pytest.raises(ConfigError, match="either source or origin"):
        parse_scene(CUSTOM_SCENE + "origin = [0.5, 1.0]\n")
    with pytest.raises(ConfigError, match="fan_count"):
        parse_scene(CUSTOM_SCENE + "fan_count = 4\n")
    with pytest.raises(ConfigError, match="unknown scene key"):
        parse_scene("builtin = product_cone(1.0)\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scene("builtin = product_cone(1.0)\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="fix the metric"):
        parse_scene("builtin = product_cone(1.0)\nk = [[1]]\n")
    with pytest.raises(ConfigError, match="missing metric key"):
        parse_scene("b = 0; f = 1\nfiber = torus\n")
    with pytest.raises(ConfigError, match="increasing"):
        parse_scene("builtin = product_cone(1.0)\nt_span = [1.0, 0.5]\n")
    with pytest.raises(DimensionError):
        parse_scene("builtin = product_cone(1.0)\nsource = [0, 1, 2]\n")
    with pytest.raises(DimensionError):
        parse_scene("builtin = product_cone(1.0)\norigin = [0.5, 0, 0]\n")
    with pytest.raises(ConfigError, match="format"):
        parse_scene("builtin = product_cone(1.0)\nformat = yaml\n")
    # a value that is not a number (or not a whole one, or not a rational
    # order) is a config error naming its key, raised while parsing
    cone = "builtin = product_cone(1.0)\n"
    fan = cone + "origin = [0.5, 0.1]\n"
    metric = "b = 0; f = 1; k = [[1]]\n"
    for key, text in [("fan_count", fan + "fan_count = abc"),
                      ("fan_count", fan + "fan_count = 2.5"),
                      ("seed", cone + "seed = abc"),
                      ("t_span", cone + "t_span = [a, 2]"),
                      ("source", cone + "source = [0, 0.5, 0, 1, x, 0]"),
                      ("origin", cone + "origin = [0.5, q]"),
                      ("s_incident", cone + "s_incident = abc"),
                      ("nonfocusing", cone + "nonfocusing = [abc, 1]"),
                      ("x_max", metric + "x_max = abc"),
                      ("b", "b = abc; f = 1; k = [[1]]"),
                      ("f", "b = 0; f = 1.5; k = [[1]]"),
                      ("z_box", metric + "z_box = [[a, 1]]"),
                      ("fiber", metric + "fiber = circle(abc)")]:
        with pytest.raises(ConfigError, match="^%s = " % key):
            parse_scene(text + "\n")


def test_fan_directions_deterministic_unit_vectors():
    a = fan_directions(3, 12, seed=7)
    b = fan_directions(3, 12, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (12, 3)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = fan_directions(3, 12, seed=8)
    assert np.max(np.abs(a - c)) > 1e-3
    d = fan_directions(1, 5, seed=0)
    np.testing.assert_array_equal(d, [[1.0], [-1.0], [1.0], [-1.0], [1.0]])


def test_scenario_rays_are_characteristic():
    config = builtin_scene("product_edge(1, 1)")
    assert scenario_rays(config) == [config.source]
    config.source = PointSource(origin=np.array([0.6, 0.1, 0.5]),
                                fan_count=8)
    rays = scenario_rays(config)
    assert len(rays) == 8
    for q in rays:
        assert q.x == 0.6 and q.tau == 1.0
        assert abs(wave_symbol(config.spec, q)) < 1e-12
    config.seed = 11
    rays2 = scenario_rays(config)
    assert any(abs(a.xi - b.xi) > 1e-6 for a, b in zip(rays, rays2))
    config.source = PointSource(origin=np.array([0.0, 0.1, 0.5]),
                                fan_count=2)
    with pytest.raises(ConfigError, match="interior"):
        scenario_rays(config)


def test_blow_down_maps_chart_to_cartesian():
    pt = blow_down(1.0, 2.0, 0.0)
    np.testing.assert_allclose(pt, [1.0, 0.0, 2.0], atol=1e-15)
    pts = blow_down(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                    np.array([0.0, math.pi / 2]))
    assert pts.shape == (2, 3)
    np.testing.assert_allclose(pts[1], [0.0, 2.0, 1.0], atol=1e-12)
    config = builtin_scene("blowup_curve_r3")
    segment = integrate_interior(config.spec, config.source, direction=-1,
                                 s_max=0.3)
    path3 = blow_down_segment(segment)
    assert path3.shape == (len(segment.s), 3)
    np.testing.assert_allclose(
        path3[0], blow_down(config.source.x, config.source.y[0],
                            config.source.z[0]), atol=1e-14)


def test_load_scene_overrides():
    config = _load_scene("product_cone(1.0)", seed=9)
    assert config.seed == 9
    config = _load_scene("product_cone(1.0)")
    assert config.seed == 0 and config.out is None


def test_cli_validate(capsys):
    assert main(["validate", "product_cone(1.0)"]) == 0
    out = capsys.readouterr().out
    assert "normal form OK" in out
    assert main(["validate", "no_such_scene"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_trace_to_file(tmp_path, capsys):
    out_file = tmp_path / "rays.csv"
    code = main(["trace", "product_cone(1.0)", "--out", str(out_file)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "scene product_cone(1.0)" in stdout
    assert "dump written to" in stdout
    text = out_file.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(dump_columns(0, 1))
    assert len(text.splitlines()) > 10


def test_cli_trace_jsonl_stdout(capsys):
    code = main(["trace", "product_cone(1.0)", "--format", "jsonl"])
    assert code == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()
            if line.startswith("{")]
    assert rows
    assert set(rows[0]) == set(dump_columns(0, 1))
    kinds = {row["branch_kind"] for row in rows}
    assert "incident" in kinds


def test_cli_trace_scene_file(tmp_path, capsys):
    scene = tmp_path / "scene.cfg"
    scene.write_text(CUSTOM_SCENE)
    assert main(["trace", str(scene)]) == 0
    out = capsys.readouterr().out
    assert "scene custom" in out


def test_cli_trace_rejects_source_at_edge_or_with_zero_tau(tmp_path, capsys):
    """A source at or below x_stop, or with tau = 0, is a config error."""
    for source in ("[0.0, 5e-5, 0.3, 1.0, -1.0, 0.0]",
                   "[0.0, 1e-4, 0.3, 1.0, -1.0, 0.0]",
                   "[0.0, 0.5, 0.3, 0.0, 0.0, 0.0]"):
        scene = tmp_path / "scene.cfg"
        scene.write_text("builtin = product_cone(1.0)\nsource = %s\n"
                         % source)
        assert main(["trace", str(scene)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_trace_rejects_x_stop_at_or_above_launch_height(tmp_path,
                                                            capsys):
    """Outgoing rays are seeded at EPS_LAUNCH = 1e-3, so an x_stop at or
    above it is a config error, from the scene or from --x-stop."""
    scene = tmp_path / "scene.cfg"
    text = ("builtin = product_cone(1.0)\n"
            "source = [0.0, 0.5, 0.3, 1.0, 1.0, 0.0]\nt_span = [0.0, 1.0]\n")
    scene.write_text(text + "x_stop = 0.002\n")
    assert main(["trace", str(scene)]) == 2
    assert "config error" in capsys.readouterr().err
    scene.write_text(text)
    assert main(["trace", str(scene), "--x-stop", "0.001"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scene_line, args", [
    ("atol = -1", []), ("atol = nan", []), ("rtol = abc", []),
    ("", ["--x-stop", "-1"]), ("", ["--x-stop", "0"]),
    ("", ["--rtol", "nan"]), ("", ["--rtol", "-1"]),
    ("", ["--rtol", "1e-15"])])
def test_cli_trace_refuses_bad_tolerances(tmp_path, capsys, scene_line,
                                          args):
    """FlowSettings rejects a tolerance or x_stop the integrator cannot
    use, whether a scene key or an option sets it: exit 2, no dump."""
    scene = tmp_path / "scene.cfg"
    scene.write_text("builtin = product_cone(1.0)\n"
                     "source = [0.0, 0.5, 0.3, 1.0, 1.0, 0.0]\n"
                     "t_span = [0.0, 1.0]\n%s\n" % scene_line)
    out_file = tmp_path / "rays.csv"
    assert main(["trace", str(scene), "--out", str(out_file), *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out_file.exists()


def test_cli_trace_refuses_an_invalid_custom_metric(tmp_path, capsys):
    """A custom metric that fails validate_normal_form is a config error
    before any ray is traced, and no dump is written."""
    scene = tmp_path / "negative.cfg"
    scene.write_text("b = 0; f = 1; k = [[-1]]; "
                     "fiber = circle(6.283185307179586); "
                     "t_span = [0.0, 1.0]; "
                     "source = [0.0, 0.5, 1.2, 1.0, 1.0, 0.0]\n")
    out_file = tmp_path / "rays.csv"
    assert main(["trace", str(scene), "--out", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "at %d points" % VALIDATION_SAMPLES in err
    assert "metric eigenvalue" in err
    assert not out_file.exists()


def test_cli_validate_caps_fail_lines(tmp_path, capsys):
    """A negative-definite fiber block fails at every sample; validate
    prints the first FAIL_LINES of them and a count of the rest."""
    scene = tmp_path / "negative.cfg"
    scene.write_text("b = 0; f = 1; k = [[-1]]; "
                     "fiber = circle(6.283185307179586)\n")
    assert main(["validate", str(scene)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL: ")]
    assert len(fails) == cli.FAIL_LINES
    assert lines[-1] == "... and %d more" % (VALIDATION_SAMPLES
                                             - cli.FAIL_LINES)
    assert "at %d points" % VALIDATION_SAMPLES in captured.err


def test_cli_takes_only_the_options_a_command_reads(tmp_path, monkeypatch,
                                                     capsys):
    """Each subcommand rejects options it would ignore (argparse exit 2),
    and the ones it takes are applied."""
    out_file = tmp_path / "rays.jsonl"
    for argv in (["partners", "product_cone(1.0)", "--z", "0",
                  "--out", str(out_file)],
                 ["orders", "--n", "3", "--f", "1", "--rtol", "1e-3"],
                 ["orders", "--n", "3", "--f", "1", "--seed", "1"],
                 ["validate", "product_cone(1.0)", "--format", "jsonl"],
                 ["eigencheck", "product_edge(1, 1)", "--x-stop", "1e-5"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
    assert not out_file.exists()
    capsys.readouterr()

    seen = []

    def recording_run(config):
        seen.append(config)
        return run_scenario(config)

    monkeypatch.setattr(cli, "run_scenario", recording_run)
    assert main(["trace", "product_cone(1.0)", "--out", str(out_file),
                 "--format", "jsonl", "--seed", "7", "--rtol", "1e-9",
                 "--x-stop", "5e-5"]) == 0
    (config,) = seen
    assert (config.out, config.format, config.seed) == (str(out_file),
                                                        "jsonl", 7)
    assert (config.settings.rtol, config.settings.x_stop) == (1e-9, 5e-5)
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert rows and set(rows[0]) == set(dump_columns(0, 1))
    capsys.readouterr()

    def validate_output(*seed):
        assert main(["validate", "perturbed_edge(0.3)", *seed]) == 0
        return capsys.readouterr().out

    assert validate_output() == validate_output("--seed", "0")
    assert validate_output() != validate_output("--seed", "5")


def test_cli_eigencheck(capsys):
    assert main(["eigencheck", "product_edge(1, 1)", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "radial linearization OK" in out
    assert "multiplicities" in out
    point = "0,0,0.2,1.0,0,0.8,0.6,0"
    assert main(["eigencheck", "product_edge(1, 1)", "--point", point]) == 0
    capsys.readouterr()
    assert main(["eigencheck", "product_edge(1, 1)", "--point", "1,2"]) == 2


def test_cli_partners(capsys):
    assert main(["partners", "product_cone(1.0)", "--z", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "1 partner(s) at fiber arc pi" in out
    assert main(["partners", "product_cone(1.0)", "--z", "0.3,0.4"]) == 2


def test_cli_orders(capsys):
    assert main(["orders", "--n", "3", "--f", "1", "--s", "0"]) == 0
    out = capsys.readouterr().out
    assert "incident <-1/2, diffracted <0" in out
    assert "a-priori -3/4, nonfocusing degree <-1/4" in out
    assert main(["orders", "--m", "1", "--l", "1/2", "--f", "1"]) == 0
    out = capsys.readouterr().out
    assert "threshold incoming (m=1, l=1/2, f=1): inadmissible" in out
    assert "threshold outgoing (m=1, l=1/2, f=1): inadmissible" in out
    assert main(["orders", "--k", "2", "--eps", "1/8"]) == 0
    out = capsys.readouterr().out
    assert "k'=>8" in out
    assert main(["orders"]) == 2


@pytest.mark.parametrize("argv", [
    "orders --n 1 --f 1", "orders --k 1 --eps 0",
    "orders --n 3 --f 1 --s abc", "orders --m x --l 0 --f 1",
    "partners sphere_edge --z a,b",
    "partners sphere_edge --y 0 --z 1.2,0.4 --directions -3",
    "partners product_edge(1,3) --y 0 --z 0,0,0 --directions -3",
    "eigencheck product_cone(1.0) --point 1,2,x,4,5,6",
    "eigencheck product_cone(1.0) --count 0"])
def test_cli_rejects_invalid_arguments(argv, capsys):
    """An argument a command cannot use is a config error: exit 2 with
    one line on stderr, not a traceback."""
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_dump_formats():
    config = builtin_scene("product_cone(1.0)")
    dump = run_scenario(config).dump
    csv_text = serialize_dump(dump, "csv")
    assert csv_text.splitlines()[0] == ",".join(dump_columns(0, 1))
    jsonl_text = serialize_dump(dump, "jsonl")
    row = json.loads(jsonl_text.splitlines()[0])
    assert list(row) == sorted(row)
    with pytest.raises(ConfigError):
        serialize_dump(dump, "yaml")


FAN_SCENE = """
builtin = product_edge(1, 1)
origin = [0.6, 0.1, 0.5]
fan_count = 6
seed = 3
t_span = [0.0, 0.9]
"""


def test_trace_output_is_deterministic(tmp_path):
    scene = tmp_path / "fan.cfg"
    scene.write_text(FAN_SCENE)

    def dump_bytes():
        config = parse_scene(scene.read_text())
        result = run_scenario(config)
        return serialize_dump(result.dump, "csv").encode()

    one = dump_bytes()
    assert len(one) > 1000
    assert dump_bytes() == one


def test_flow_settings_are_what_a_scene_sets():
    """Every settings field is a scene key; every other tolerance and
    budget is a module constant."""
    names = tuple(f.name for f in dataclasses.fields(FlowSettings))
    assert names == ("rtol", "atol", "x_stop")
    assert set(names) <= set(SCENE_KEYS)
