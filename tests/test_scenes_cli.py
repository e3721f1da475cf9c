"""Tests for scene files, ray fans, serialization, and the CLI."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from edgeray import _sobol, cli
from edgeray.cli import _load_scene, main
from edgeray.errors import ConfigError, DimensionError
from edgeray.hamiltonian import FlowSettings, integrate_interior
from edgeray.metric import VALIDATION_SAMPLES, transverse_momentum
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
    assert builtin_scene("perturbed_edge(-0.3)").spec.k != builtin_scene(
        "perturbed_edge(0.3)").spec.k
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
    with pytest.raises(ConfigError, match="^product_edge f = 2.5 is not"):
        builtin_scene("product_edge(1, 2.5)")
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


def scipy_fan_directions(dim, count, seed):
    """fan_directions as scipy gives it: scrambled Sobol points through
    norm.ppf, normalized."""
    from scipy.stats import norm, qmc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # count not 2**m
        raw = qmc.Sobol(d=dim, scramble=True, seed=seed).random(count)
    gauss = norm.ppf(np.clip(raw, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms == 0.0] = 1.0
    return gauss / norms[:, None]


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(dim=st.integers(2, 32), count=st.integers(1, 64),
                  seed=st.integers(0, 2 ** 64 - 1))
@hypothesis.example(dim=3, count=16, seed=0)
@hypothesis.example(dim=32, count=64, seed=2 ** 64 - 1)
def test_fan_directions_are_scipys_bit_for_bit(dim, count, seed):
    assert np.array_equal(fan_directions(dim, count, seed),
                          scipy_fan_directions(dim, count, seed))


def test_ndtri_is_scipys_on_both_sides_of_each_branch():
    """Around the clip limits, the centre, y = exp(-2) and 1 - exp(-2)
    (central or tail rational) and exp(-32) (x = 8: the far-tail one)."""
    from scipy.special import ndtri
    ys = [y for p in (1e-12, 1.0 - 1e-12, 0.5, math.exp(-2.0),
                      1.0 - math.exp(-2.0), math.exp(-32.0))
          for y in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0))]
    assert (np.array([_sobol.ndtri(float(y)) for y in ys]).tobytes()
            == ndtri(ys).tobytes())


def test_fan_limits_are_config_errors(tmp_path):
    """A fan of more than 2**30 rays, or in more than 32 dimensions
    1 + b + f, is a ConfigError (exit 2) before anything is drawn."""
    PointSource(origin=np.ones(32), fan_count=2 ** 30)
    with pytest.raises(ConfigError, match=r"^fan_count must lie in \[1, 2"):
        PointSource(origin=np.ones(2), fan_count=2 ** 30 + 1)
    with pytest.raises(ConfigError, match=r"1 \+ b \+ f <= 32"):
        PointSource(origin=np.ones(33))
    origin = "origin = [%s]\n" % ", ".join(["0.5"] * 33)
    for text in ["builtin = product_cone(1.0)\norigin = [0.5, 0.1]\n"
                 "fan_count = %d\n" % (2 ** 30 + 1),
                 "builtin = product_edge(16, 16)\n" + origin]:
        scene = tmp_path / "scene.cfg"
        scene.write_text(text)
        assert main(["trace", str(scene), "--out",
                     str(tmp_path / "rays.csv")]) == 2
    assert not (tmp_path / "rays.csv").exists()


def test_scenario_rays_are_characteristic():
    config = builtin_scene("product_edge(1, 1)")
    assert scenario_rays(config) == [config.source]
    config.source = PointSource(origin=np.array([0.6, 0.1, 0.5]),
                                fan_count=8)
    rays = scenario_rays(config)
    assert len(rays) == 8
    for q in rays:
        assert q.x == 0.6 and q.tau == 1.0
        p = config.spec.evaluator().hamilton(q.to_vector().tolist(), 1.0)[0]
        assert abs(p) < 1e-12
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


@pytest.mark.parametrize("scene_text, key", [
    ("builtin = product_cone(1.0)\n"
     "source = [0.0, 0.5, 0.0, 1.0, nan, 0.0]\n", "source"),
    ("builtin = sphere_edge\norigin = [0.5, 0.0, nan, 1.0]\n", "origin"),
    ("builtin = product_cone(1.0)\norigin = [0.5, inf]\n", "origin"),
    ("builtin = product_cone(1.0)\nt_span = [0.0, inf]\n", "t_span")])
def test_cli_trace_refuses_non_finite_numbers(tmp_path, capsys, scene_text,
                                              key):
    """A nan or inf scene value is a config error naming its key (exit 2),
    not a traceback or a failed integration."""
    scene = tmp_path / "scene.cfg"
    scene.write_text(scene_text)
    assert main(["trace", str(scene)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s = " % key)
    assert "is not a finite number" in err


def test_cli_trace_fails_typed_at_an_indefinite_origin(tmp_path, capsys):
    """A point source where the metric is indefinite (k = 1 - z1 < 0 at
    z1 = 2, outside the validated z_box) is a numerical failure (exit 3)."""
    scene = tmp_path / "indefinite.cfg"
    scene.write_text("b = 0\nf = 1\nk = [[1 - z1]]\nfiber = chart\n"
                     "z_box = [[-0.5, 0.5]]\norigin = [0.5, 2.0]\n"
                     "fan_count = 4\n")
    assert main(["trace", str(scene)]) == 3
    assert "not positive definite at the point-source origin" in (
        capsys.readouterr().err)


def test_cli_trace_checks_the_metric_at_the_origin_not_the_fan(tmp_path,
                                                               capsys):
    """At z1 = 100, k = 1 - z1 = -99: G is indefinite at the origin though
    v.G^-1.v > 0 along all four fan directions.  The trace fails at the
    origin, naming it (exit 3), instead of launching the rays and failing
    later with a characteristic drift."""
    scene = tmp_path / "indefinite.cfg"
    scene.write_text("b = 0\nf = 1\nk = [[1 - z1]]\nfiber = chart\n"
                     "z_box = [[-0.5, 0.5]]\norigin = [0.5, 100.0]\n"
                     "fan_count = 4\n")
    assert main(["trace", str(scene)]) == 3
    assert ("not positive definite at the point-source origin [0.5, 100.0]"
            in capsys.readouterr().err)


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
    ("", ["--rtol", "1e-15"]), ("atol = 0.0", []), ("atol = 1e-200", []),
    ("rtol = 1e-6", []), ("atol = 1e-6", [])])
def test_cli_trace_refuses_bad_tolerances(tmp_path, capsys, scene_line,
                                          args):
    """FlowSettings rejects a tolerance or x_stop the integrator cannot
    use, or a tolerance at the drift gate's 1e-6, whether a scene key or
    an option sets it: exit 2, no dump."""
    scene = tmp_path / "scene.cfg"
    scene.write_text("builtin = product_cone(1.0)\n"
                     "source = [0.0, 0.5, 0.3, 1.0, 1.0, 0.0]\n"
                     "t_span = [0.0, 1.0]\n%s\n" % scene_line)
    out_file = tmp_path / "rays.csv"
    assert main(["trace", str(scene), "--out", str(out_file), *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize("seed_line, args", [("seed = -1", []),
                                             ("", ["--seed", "-1"])])
def test_cli_trace_refuses_a_negative_seed(tmp_path, capsys, seed_line,
                                           args):
    """A point source's fan seed must not be negative, from the scene key
    or the option: exit 2 with one stderr line naming it."""
    scene = tmp_path / "scene.cfg"
    scene.write_text("builtin = product_cone(1.0)\norigin = [0.5, 1.0]\n"
                     "fan_count = 4\nt_span = [0.0, 0.5]\n%s\n" % seed_line)
    assert main(["trace", str(scene), "--out", str(tmp_path / "rays.csv"),
                 *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed = -1 is below 0" in err[0]


def test_cli_trace_refuses_an_off_characteristic_source(tmp_path, capsys):
    """A source with p != 0 is no light ray: exit 2 with one stderr line
    naming |p|/tau^2 = 0.75, not a drift failure of the integration."""
    scene = tmp_path / "scene.cfg"
    scene.write_text("builtin = product_cone(1.0)\n"
                     "source = [0.0, 0.5, 0.3, 1.0, 0.5, 0.0]\n"
                     "t_span = [0.0, 1.0]\n")
    out_file = tmp_path / "rays.csv"
    assert main(["trace", str(scene), "--out", str(out_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "characteristic" in err[0] and "0.75" in err[0]
    assert not out_file.exists()


def test_cli_trace_refuses_a_source_at_or_after_the_end_of_t_span(
        tmp_path, capsys):
    """A source at or after the end of t_span has nothing to trace: exit 2
    with one stderr line naming t_span, not an empty dump."""
    scene = tmp_path / "scene.cfg"
    out_file = tmp_path / "rays.csv"
    for t in ("5.0", "2.0"):
        scene.write_text("builtin = product_cone(1.0)\n"
                         "source = [%s, 0.5, 0.3, 1.0, 1.0, 0.0]\n"
                         "t_span = [0.0, 2.0]\n" % t)
        assert main(["trace", str(scene), "--out", str(out_file)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "t_span" in err[0]
        assert not out_file.exists()


CLEAN_SCENE = """builtin = product_cone(1.0)
source = [0.0, 0.5, 0.3, 1.0, 1.0, 0.0]
t_span = [0.0, 1.5]
policy = fan(4)
nonfocusing = [1/2, 1]
"""


@pytest.mark.parametrize("clean, dirty", [
    ("false", {"0.0", "0.1", "0.2", "0.3"}), ("true", set()),
    ("auto", {"0.2"})])
def test_scene_clean_key_sets_the_branch_orders(clean, dirty):
    """clean = false makes every child of the cone event dirty, true makes
    every child clean, and auto finds the one dirty child, 0.2 at the
    arc-pi partner z_bar + pi: dirty children keep the incident order 0,
    clean ones improve to the open nonfocusing bound <1/2."""
    result = run_scenario(parse_scene(CLEAN_SCENE + "clean = %s\n" % clean))
    orders = result.results[0].record.per_branch
    assert sorted(orders) == ["0", "0.0", "0.1", "0.2", "0.3"]
    for bid in ("0.0", "0.1", "0.2", "0.3"):
        want = (("0", "diffractive (dirty partner)") if bid in dirty
                else ("<1/2", "nonfocusing improvement"))
        assert (str(orders[bid].sup_order), orders[bid].rule) == want


def test_cli_trace_scene_keys_out_and_format(tmp_path, capsys):
    """A scene's out and format keys write the bytes that --out and
    --format write; clean = maybe is a config error."""
    keyed, flagged = tmp_path / "keyed.cfg", tmp_path / "flagged.cfg"
    keyed_out, flagged_out = tmp_path / "keyed.jsonl", tmp_path / "flagged"
    keyed.write_text(CLEAN_SCENE + "out = %s\nformat = jsonl\n" % keyed_out)
    flagged.write_text(CLEAN_SCENE)
    assert main(["trace", str(keyed)]) == 0
    assert main(["trace", str(flagged), "--out", str(flagged_out),
                 "--format", "jsonl"]) == 0
    assert "dump written to %s (jsonl)" % keyed_out in capsys.readouterr().out
    assert keyed_out.read_bytes() == flagged_out.read_bytes()
    assert keyed_out.read_text().startswith('{"branch_id": "0"')
    keyed.write_text(CLEAN_SCENE + "clean = maybe\n")
    assert main(["trace", str(keyed)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "clean must be" in err[0]


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


@pytest.mark.parametrize("k, message", [
    ("sqrt(z1)", "math domain error"), ("1 + exp(100000*(z1 - 2))", "range")])
def test_cli_trace_refuses_a_coefficient_undefined_on_the_box(
        tmp_path, capsys, k, message):
    """A coefficient outside its domain at a sample of the declared box
    (sqrt of a negative z1 in z_box = [-1, 3], exp overflowing at x near
    1) fails validation: a config error, not a traceback."""
    scene = tmp_path / "undefined.cfg"
    scene.write_text("b = 0; f = 1\nk = [[%s]]\nfiber = chart\n"
                     "z_box = [[-1.0, 3.0]]\nt_span = [0.0, 2.0]\n"
                     "source = [0.0, 0.5, 0.5, 1.0, 0.5, -0.8]\n"
                     "policy = same_fiber\n" % k)
    assert main(["trace", str(scene)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "metric coefficient undefined" in err and message in err


def test_cli_trace_coefficient_undefined_along_a_ray(tmp_path, capsys):
    """sqrt(1.2 - x) is defined on the validated x in [0, 1]; a ray
    running outward past x = 1.2 leaves its domain: a numerical failure
    (exit 3), not a traceback."""
    scene = tmp_path / "outward.cfg"
    scene.write_text("b = 0; f = 1\nk = [[1 + sqrt(1.2 - x)]]\n"
                     "fiber = circle(6.283185307179586)\n"
                     "t_span = [0.0, 3.0]\n"
                     "source = [0.0, 0.9, 0.5, 1.0, -1.0, 0.0]\n")
    assert main(["trace", str(scene)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "metric coefficient undefined: math domain error" in err


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
    "eigencheck product_cone(1.0) --point 0,0,0,0,nan,0",
    "eigencheck product_cone(1.0) --count 0",
    "eigencheck product_cone(1.0) --tol nan",
    "eigencheck product_cone(1.0) --tol inf",
    "eigencheck product_cone(1.0) --tol -1",
    "eigencheck product_cone(1.0) --seed -1",
    "validate product_cone(1.0) --seed -1",
    "validate product_edge(1.5,1)", "validate product_edge(1,2.5)",
    "validate product_edge(one,1)",
    "trace product_cone(1.0) --rtol 1e-6",
    "trace product_cone(1.0) --rtol 1e-4"])
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


# values at or beyond the limit of each drawn setting: rtol lies in
# [100 EPS, 1e-6) and atol in [1e-100, 1e-6), x_stop lies below 1e-3 and
# the origin, t_span increases
LIMITS = {"seed": [-1, 0, 2 ** 64 - 1], "fan_count": [-1, 0, 1],
          "rtol": [-1.0, 0.0, 2.2e-14, 2.220446049250313e-14, 9.99e-7,
                   1e-6, 1e-5, 1e-4, 0.5],
          "atol": [-1e-12, 0.0, 5e-324, 9e-101, 1e-100, 9.99e-7, 1e-6,
                   1.0],
          "x_stop": [-1e-4, 0.0, 5e-324, 9.99e-4, 1e-3, 0.5, 2.0],
          "length": [-0.1, 0.0, 5e-324]}


@hypothesis.settings(max_examples=30, deadline=2000)
@hypothesis.given(
    metric=st.one_of(
        st.floats(0.2, 3.0).map("product_cone(%r)".__mod__),
        st.floats(-0.49, 0.49).map("perturbed_edge(%r)".__mod__),
        st.tuples(st.integers(0, 2), st.integers(1, 3)).map(
            "product_edge(%d, %d)".__mod__),
        st.just("blowup_curve_r3")),
    x0=st.floats(0.05, 0.9), y=st.tuples(*[st.floats(-0.5, 0.5)] * 2),
    z=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
    t0=st.floats(-1.0, 1.0),
    settings=st.fixed_dictionaries({
        "seed": st.integers(0, 2 ** 32), "fan_count": st.integers(1, 4),
        "rtol": st.floats(1e-12, 1e-6, exclude_max=True),
        "atol": st.floats(1e-14, 1e-8),
        "x_stop": st.floats(1e-8, 9e-4), "length": st.floats(1e-6, 0.6)}),
    limit=st.none() | st.sampled_from([(key, value) for key in LIMITS
                                       for value in LIMITS[key]]))
def test_cli_trace_fuzzed_point_sources_fail_typed(metric, x0, y, z, t0,
                                                   settings, limit):
    """``edgeray trace`` of a point source on product_cone(rho), rho in
    [0.2, 3], perturbed_edge(a), |a| <= 0.49, product_edge(b, f), b <= 2
    and f <= 3, or blowup_curve_r3, at a drawn origin of 1 + b + f
    entries (x0 in [0.05, 0.9]) with t_span = [t0, t0 + length].  The
    seed, fan_count (at most 4), rtol, atol, x_stop and length (at most
    0.6) are drawn inside their limits, and in about half the examples
    one of them is set to a value of LIMITS instead: the exit code is 0,
    2 or 3, exits 2 and 3 print exactly one stderr line, and no Python
    warning is emitted, within a wall-time cap of 2 s per example."""
    settings = dict(settings, **dict([limit] if limit else []))
    spec = builtin_scene(metric).spec
    origin = [x0, *y[:spec.b], *z[:spec.f]]
    _assert_trace_fails_typed(
        "builtin = %s\norigin = %r\nt_span = [%r, %r]\n" % (
            metric, origin, t0, t0 + settings.pop("length"))
        + "".join("%s = %r\n" % item for item in settings.items()))


def _assert_trace_fails_typed(text):
    """``edgeray trace`` of a scene text, in process: the exit code is 0,
    2 or 3, exits 2 and 3 print exactly one stderr line, and no Python
    warning is emitted."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        scene = os.path.join(tmp, "scene.cfg")
        with open(scene, "w") as handle:
            handle.write(text)
        code = main(["trace", scene, "--out", os.path.join(tmp, "rays.csv")])
    assert code in (0, 2, 3), text
    assert len(err.getvalue().splitlines()) == min(code, 1), text
    assert not caught, (text, [str(w.message) for w in caught])


@hypothesis.settings(max_examples=30, deadline=2000)
@hypothesis.given(
    metric=st.one_of(
        st.floats(0.2, 3.0).map("product_cone(%r)".__mod__),
        st.floats(-0.49, 0.49).map("perturbed_edge(%r)".__mod__),
        st.just("sphere_edge"),
        st.tuples(st.integers(0, 2), st.integers(1, 3)).map(
            "product_edge(%d, %d)".__mod__),
        st.just("blowup_curve_r3")),
    policy=st.sampled_from(
        ["same_fiber", "geometric", "fan(1)", "fan(2)", "fan(4)"]),
    t0=st.floats(-1.0, 1.0), x0=st.floats(0.05, 0.6),
    y=st.floats(-0.5, 0.5), z=st.tuples(st.floats(0.3, math.pi - 0.3),
                                        *[st.floats(0.0, 2.0 * math.pi)] * 2),
    sgn_tau=st.sampled_from([-1.0, 1.0]), eta=st.floats(-0.9, 0.9),
    zeta=st.just((0.0, 0.0, 0.0)) | st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    off=st.none() | st.floats(-2.0, 2.0), length=st.floats(1e-3, 0.8))
def test_cli_trace_fuzzed_source_rays_fail_typed(metric, policy, t0, x0, y,
                                                 z, sgn_tau, eta, zeta, off,
                                                 length):
    """``edgeray trace`` of one ``source`` ray on product_cone(rho), rho in
    [0.2, 3], perturbed_edge(a), |a| <= 0.49, sphere_edge (chart
    z1 in [0.4, pi - 0.4]; z1 is drawn from [0.3, pi - 0.3]),
    product_edge(b, f), b <= 2 and f <= 3, or blowup_curve_r3, under
    same_fiber, geometric or fan(1, 2, 4), with t_span = [t0, t0 +
    length], length at most 0.8.  The source is at t0 and x0 in [0.05,
    0.6] with tau = sgn_tau, one drawn y and eta for every base
    coordinate, the first f of three drawn z, and zeta drawn or 0 (a ray
    with zeta != 0 may turn before the edge); its xi puts it on the
    characteristic set (solved from p = 0, moving toward the edge), or
    is the drawn ``off`` value.  The contract of
    _assert_trace_fails_typed holds, within a wall-time cap of 2 s per
    example."""
    spec = builtin_scene(metric).spec
    ys, zs = [y] * spec.b, list(z[:spec.f])
    etas, zetas = [eta] * spec.b, list(zeta[:spec.f])
    xi = off
    if off is None:
        try:
            xi = transverse_momentum(spec, x0, np.array(ys), np.array(zs),
                                     sgn_tau, np.array(etas),
                                     np.array(zetas), sign=sgn_tau)
        except ValueError:       # no real root: an off-characteristic ray
            xi = 0.0
    source = [t0, x0, *ys, *zs, sgn_tau, xi, *etas, *zetas]
    _assert_trace_fails_typed(
        "builtin = %s\nsource = %r\nt_span = [%r, %r]\npolicy = %s\n"
        % (metric, [float(v) for v in source], t0, t0 + length, policy))


@hypothesis.settings(max_examples=8, deadline=2000)
@hypothesis.given(
    b=st.integers(1, 2), f=st.integers(1, 3), x0=st.floats(0.005, 0.2),
    xi_hat=st.floats(5e-6, 3e-5),
    direction=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    z=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
    sgn_tau=st.sampled_from([-1.0, 1.0]), span=st.floats(1.05, 3.0))
def test_cli_trace_fuzzed_glancing_rays_end_in_the_edge(b, f, x0, xi_hat,
                                                        direction, z,
                                                        sgn_tau, span):
    """``edgeray trace`` of one grazing ``source`` ray on the flat
    product_edge(b, f), b in {1, 2} and f <= 3: x0 in [0.005, 0.2],
    |xi_hat| in [5e-6, 3e-5] (margin xi_hat^2 below phase.TOL_G), a
    drawn eta_hat direction with |eta_hat|^2 = 1 - xi_hat^2, zeta = 0 and
    either sign of tau, over a t_span of 1.05 to 3 times the straight
    line's x0 / |xi_hat|.  The trace exits 0 with one glancing event,
    and the glancing branch ends there: the ray has one branch."""
    norm = math.hypot(*direction[:b])
    hypothesis.assume(norm > 0.1)
    spec = builtin_scene("product_edge(%d, %d)" % (b, f)).spec
    etas = [math.sqrt(1.0 - xi_hat * xi_hat) * d / norm
            for d in direction[:b]]
    xi = transverse_momentum(spec, x0, np.zeros(b), np.array(z[:f]),
                             sgn_tau, np.array(etas), np.zeros(f),
                             sign=sgn_tau)
    source = [0.0, x0, *[0.0] * b, *z[:f], sgn_tau, xi, *etas, *[0.0] * f]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out):
        scene = os.path.join(tmp, "scene.cfg")
        with open(scene, "w") as handle:
            handle.write("builtin = product_edge(%d, %d)\nsource = %r\n"
                         "t_span = [0.0, %r]\n"
                         % (b, f, [float(v) for v in source],
                            span * x0 / xi_hat))
        code = main(["trace", scene, "--out", os.path.join(tmp, "rays.csv")])
    text = out.getvalue()
    assert code == 0, text
    assert text.count("glancing at") == 1, text
    assert "ray 0: 1 branches" in text, text


ELLIPTIC_SCENE = """b = 1
f = 1
h = [[exp(0.3*y1)]]
k = [[1 + 0.1*sin(z1)]]
source = [0.0, 0.013978673078859583, 0.179415305695242, 0.881410809176006, \
1.0, 0.0006192113421664407, -1.0272775053583572, 0.0]
t_span = [0.0, 50.0]
"""


def test_cli_trace_elliptic_event_is_a_typed_failure(tmp_path, capsys):
    """The ladder fit of this grazing ray lands at margin -2.92e-5 with
    xi_hat^2 = 3.8e-7: on the characteristic set to the 1e-4 of the
    defect check, but elliptic, where no ray reaches the edge.  The trace
    exits 3 with one stderr line that says so."""
    scene = tmp_path / "elliptic.cfg"
    scene.write_text(ELLIPTIC_SCENE)
    code = main(["trace", str(scene), "--out", str(tmp_path / "rays.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [
        "numerical failure: extrapolated event is elliptic: margin -2.92e-05"]


@hypothesis.settings(max_examples=8, deadline=2000)
@hypothesis.given(
    c=st.tuples(*[st.just(0.0) | st.floats(-0.3, 0.3)] * 4),
    x0=st.floats(0.005, 0.05), y=st.floats(-0.5, 0.5),
    z=st.floats(-math.pi, math.pi), sgn_tau=st.sampled_from([-1.0, 1.0]),
    xi_hat=st.floats(1e-6, 1e-2), sgn_eta=st.sampled_from([-1.0, 1.0]))
def test_cli_trace_fuzzed_custom_metrics_fail_typed(c, x0, y, z, sgn_tau,
                                                    xi_hat, sgn_eta):
    """``edgeray trace`` of one grazing or oblique ``source`` ray on a
    custom b = 1, f = 1 metric with h = exp(c1 y1), hprime = c2 y1, kyy =
    c3 and k = 1 + c4 sin(z1), each c 0 or drawn from [-0.3, 0.3]: the
    source at x0 in [0.005, 0.05] moves toward the edge with |xi_hat| in
    [1e-6, 1e-2], zeta = 0 and |eta_hat| = sqrt(1 - xi_hat^2) in the
    cometric there (xi solved from p = 0), over t_span = [0, 50].  The
    contract of _assert_trace_fails_typed holds."""
    metric = ("b = 1\nf = 1\nh = [[exp((%r)*y1)]]\nhprime = [[(%r)*y1]]\n"
              "kyy = [[(%r)]]\nk = [[1 + (%r)*sin(z1)]]\n" % c)
    spec = parse_scene(metric).spec
    ys, zs = np.array([y]), np.array([z])
    eta_eta = spec.evaluator().dual_matrix(x0, ys, zs)[1, 1]
    eta = sgn_eta * math.sqrt((1.0 - xi_hat * xi_hat) / eta_eta)
    xi = transverse_momentum(spec, x0, ys, zs, sgn_tau, np.array([eta]),
                             np.zeros(1), sign=sgn_tau)
    source = [0.0, x0, y, z, sgn_tau, float(xi), eta, 0.0]
    _assert_trace_fails_typed(metric + "source = %r\nt_span = [0.0, 50.0]\n"
                              % source)
