"""Command line interface tests, driving main() in process."""

import argparse
import glob
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logmink import cli
from logmink.cli import main, parse_config_text, write_atomic
from logmink.convex import convex_hull_3d, measure_from_csv, polytope_to_obj
from logmink.errors import InvalidParameter
from logmink.grid import field_from_csv


def cube_obj_text(half=(1.0, 1.0, 1.0)):
    corners = np.array([[sx, sy, sz] for sx in (-1, 1)
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    return polytope_to_obj(convex_hull_3d(corners * np.asarray(half)))


# ---------------------------------------------------------------------------
# config plumbing


def test_config_text_roundtrip():
    cfg = {"grid_L": "12", "f": "const:2.0", "tol": "1e-8"}
    text = "".join(f"{key}={value}\n" for key, value in cfg.items())
    assert parse_config_text(text) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(InvalidParameter):
        parse_config_text("volume=8\n")
    with pytest.raises(InvalidParameter):
        parse_config_text("grid_L 12\n")


def test_config_comments_and_blanks():
    text = "# a comment\n\ngrid_L=8\n  f = const:1.0  \n"
    cfg = parse_config_text(text)
    assert cfg == {"grid_L": "8", "f": "const:1.0"}


def test_write_atomic(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    write_atomic(str(target), "payload")
    assert target.read_text() == "payload"
    write_atomic(str(target), "replaced")
    assert target.read_text() == "replaced"
    assert glob.glob(str(tmp_path / "deep" / "*.tmp")) == []


# ---------------------------------------------------------------------------
# solve and flow commands


def test_solve_constant(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--f", "const:8.0", "--out", out]) == 0
    capsys.readouterr()
    field = field_from_csv((tmp_path / "solution.csv").read_text())
    assert field.grid.L == 16
    assert_allclose(field.values, 2.0, atol=1e-8)
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "iter,residual_sup,min_h,min_eig_W,step_size"


def test_solve_harmonics_with_obj(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["solve", "--f", "harmonics:[(1, 0, 0.1)]", "--out", out,
                 "--write-obj"])
    assert code == 0
    capsys.readouterr()
    field = field_from_csv((tmp_path / "solution.csv").read_text())
    expected = 1.0 + 0.1 * field.grid.nodes[:, 2]
    assert np.max(np.abs(field.values - expected)) < 1e-7
    assert (tmp_path / "body.obj").exists()


def test_solve_respects_grid_option(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--f", "const:1.0", "--grid-L", "8",
                 "--out", out]) == 0
    capsys.readouterr()
    text = (tmp_path / "solution.csv").read_text()
    assert text.splitlines()[0] == "# grid_L=8"


def test_solve_random_density(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--f", "random:3,0.05,2.0", "--out", out,
                 "--tol", "1e-8"]) == 0
    capsys.readouterr()
    assert (tmp_path / "solution.csv").exists()


def test_flow_writes_trace_and_snapshots(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["flow", "--f", "const:1.0", "--h0", "const:2.0",
                 "--no-renormalize", "--t-final", "0.01",
                 "--snapshot-every", "3", "--out", out])
    assert code == 0
    capsys.readouterr()
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,volume,residual_sup,min_h"
    assert len(trace) > 5
    snaps = sorted(os.path.basename(p)
                   for p in glob.glob(str(tmp_path / "body_*.obj")))
    assert snaps and snaps[0] == "body_000003.obj"
    assert (tmp_path / "solution.csv").exists()


def test_flow_stationary_run(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["flow", "--f", "const:8.0", "--out", out]) == 0
    capsys.readouterr()
    field = field_from_csv((tmp_path / "solution.csv").read_text())
    assert_allclose(field.values, 2.0, atol=1e-7)


# ---------------------------------------------------------------------------
# polytope commands


def test_measure_cube(tmp_path, capsys):
    obj = tmp_path / "cube.obj"
    obj.write_text(cube_obj_text())
    out = str(tmp_path)
    assert main(["measure", "--obj", str(obj), "--measure", "both",
                 "--out", out]) == 0
    capsys.readouterr()
    cone = measure_from_csv((tmp_path / "cone_measure.csv").read_text())
    assert cone.n_atoms == 6
    assert_allclose(cone.weights, 4.0 / 3.0, atol=1e-12)
    surface = measure_from_csv((tmp_path / "surface_measure.csv").read_text())
    assert abs(surface.total() - 24.0) < 1e-12


def test_measure_surface_only(tmp_path, capsys):
    obj = tmp_path / "cube.obj"
    obj.write_text(cube_obj_text())
    out = str(tmp_path)
    assert main(["measure", "--obj", str(obj), "--measure", "surface",
                 "--out", out]) == 0
    capsys.readouterr()
    assert (tmp_path / "surface_measure.csv").exists()
    assert not (tmp_path / "cone_measure.csv").exists()


def test_john_box(tmp_path, capsys):
    obj = tmp_path / "box.obj"
    obj.write_text(cube_obj_text(half=(1.0, 2.0, 3.0)))
    out = str(tmp_path)
    assert main(["john", "--obj", str(obj), "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("radii:")
    lines = (tmp_path / "ellipsoid.csv").read_text().splitlines()
    assert lines[0] == "quantity,x,y,z"
    rows = {line.split(",")[0]: [float(x) for x in line.split(",")[1:]]
            for line in lines[1:]}
    assert_allclose(rows["radii"],
                    np.sqrt(3.0) * np.array([1.0, 2.0, 3.0]), rtol=1e-5)
    assert_allclose(rows["center"], 0.0, atol=1e-6)


def test_diag_box(tmp_path, capsys):
    obj = tmp_path / "box.obj"
    obj.write_text(cube_obj_text(half=(1.0, 1.0, 4.0)))
    out = str(tmp_path)
    assert main(["diag", "--obj", str(obj), "--out", out]) == 0
    capsys.readouterr()
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "ratio_32,ratio_21,axis_dist_ratio,plane_dist_ratio"
    vals = [float(x) for x in lines[1].split(",")]
    assert abs(vals[0] - 4.0) < 1e-3
    assert abs(vals[1] - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# experiment command


def test_experiment_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["experiment", "--kind", "bound", "--count", "1", "--seed", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = (out_a / "report.csv").read_text()
    text_b = (out_b / "report.csv").read_text()
    assert text_a == text_b
    assert text_a.startswith("# spec: kind=bound count=1 seed=3 ")


def test_experiment_custom_inits(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["experiment", "--kind", "uniqueness", "--count", "1",
                 "--inits", "const:0.8,const:1.2", "--out", out])
    assert code == 0
    capsys.readouterr()
    text = (tmp_path / "report.csv").read_text()
    assert "inits=const:0.8|const:1.2" in text.splitlines()[0]


# ---------------------------------------------------------------------------
# configuration file and failure modes


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_L=8\nf=const:1.0\n")
    out_a = tmp_path / "a"
    assert main(["solve", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert (out_a / "solution.csv").read_text().splitlines()[0] == "# grid_L=8"
    # explicit flags win over the file
    out_b = tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--grid-L", "12",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_b / "solution.csv").read_text().splitlines()[0] == "# grid_L=12"


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--bogus", "1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_missing_density_exits_2(tmp_path, capsys):
    assert main(["solve", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_infinite_tolerance_exits_2(tmp_path, capsys):
    # an infinite tolerance would accept the initial sphere as a solution
    code = main(["solve", "--f", "random:3,0.05,2.0", "--tol", "inf",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("preset", [
    "random:x,0.1,2",               # non-integer seed
    "random:1,nan,2",               # non-finite eps
    "random:1,0.1,inf",             # non-finite lambda
    "harmonics:[1,2]",              # terms that are not tuples
    "harmonics:5",                  # not a list at all
    "harmonics:[(1,0)]",            # a term with two entries
    "harmonics:[(1,'a',0.1)]",      # a non-numeric order
    "harmonics:[(400,1,0.1)]",      # a degree above the grid's bandwidth
    "harmonics:[(1.5,0,0.1)]",      # a fractional degree
    "const:1e308",                  # a zonal coefficient that overflows
    "1.0",                          # no preset prefix
    "foo:1",                        # an unknown preset
    "harmonics:[(1,",               # a term list that does not parse
    "random:1,2",                   # two of the three random parameters
])
def test_malformed_density_preset_exits_2(tmp_path, capsys, preset):
    code = main(["solve", "--f", preset, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("preset", [
    "const:abc",                    # not a number
    "const:nan",                    # not finite
    "const:inf",                    # not finite
    "const:1e308",                  # a zonal coefficient that overflows
    "sphere:1",                     # a preset other than const
    "const:",                       # no value
])
def test_malformed_h0_preset_exits_2(tmp_path, capsys, preset):
    code = main(["solve", "--f", "const:1.0", "--h0", preset, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("argv", [
    ["experiment", "--kind", "bound", "--seed", "-1"],
    ["solve", "--f", "random:-1,0.05,2"],
    ["experiment", "--kind", "uniqueness", "--inits", "const:abc"],
    ["flow", "--f", "const:1.0", "--snapshot-every", "-2"],
    ["measure"],
    ["john"],
    ["diag"],
    ["experiment"],
    ["solve"],
], ids=["negative-seed", "negative-density-seed", "bad-init", "negative-snapshot",
        "measure-without-obj", "john-without-obj", "diag-without-obj",
        "experiment-without-kind", "solve-without-density"])
def test_bad_arguments_exit_2(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert "Traceback" not in captured.err
    assert not any(tmp_path.iterdir())


def test_config_keys_match_the_cli_flags():
    # every flag of every subcommand can be set from a --config file
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for parser in subparsers.choices.values()
             for action in parser._actions if action.dest != "help"}
    text = "".join(f"{dest}=x\n" for dest in sorted(dests))
    assert set(parse_config_text(text)) == dests


def test_each_config_key_has_one_declaration():
    # commands that take the same option group share its argparse actions
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    actions: dict = {}
    for parser in subparsers.choices.values():
        for action in parser._actions:
            if action.dest != "help":
                actions.setdefault(action.dest, set()).add(id(action))
    assert {dest: len(ids) for dest, ids in actions.items() if len(ids) > 1} == {}


@pytest.mark.parametrize("command, flag, value, typed", [
    *[(command, flag, value, typed) for command in ("measure", "john", "diag")
      for flag, value, typed in (("--grid-L", "12", 12), ("--tol", "1e-8", 1e-8),
                                 ("--seed", "3", 3))],
    ("solve", "--seed", "3", 3),
    ("flow", "--seed", "3", 3),
])
def test_flag_of_a_group_the_command_does_not_take_exits_2(tmp_path, capsys, command,
                                                           flag, value, typed):
    with pytest.raises(SystemExit) as err:
        main([command, flag, value, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # the key of the flag still loads from a config file, typed by its flag
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    merged = cli._merge(cli._build_parser().parse_args([command, "--config", str(cfg)]))
    assert merged == {key: typed}
    assert type(merged[key]) is type(typed)


@pytest.mark.parametrize("command, flag, line", [
    ("solve", ["--grid-L", "12"], "grid_L=12"),
    ("solve", ["--tol", "1e-8"], "tol=1e-8"),
    ("solve", ["--f", "const:2.0"], "f=const:2.0"),
    ("solve", ["--write-obj"], "write_obj=yes"),
    ("flow", ["--no-renormalize"], "renormalize=off"),
], ids=["int", "float", "str", "store-true", "store-false"])
def test_config_line_and_flag_merge_to_the_same_value(tmp_path, command, flag, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    parser = cli._build_parser()
    from_file = cli._merge(parser.parse_args([command, "--config", str(cfg)]))
    from_flag = cli._merge(parser.parse_args([command, *flag]))
    key = line.split("=")[0]
    assert from_file == from_flag == {key: from_flag[key]}
    assert type(from_file[key]) is type(from_flag[key])


def test_john_and_diag_on_a_solved_body(tmp_path, capsys):
    # the default ellipsoid tolerance converges on the solver's own output
    out = str(tmp_path)
    assert main(["solve", "--f", "random:3,0.05,2.0", "--write-obj",
                 "--out", out]) == 0
    obj = str(tmp_path / "body.obj")
    assert main(["john", "--obj", obj, "--out", out]) == 0
    assert main(["diag", "--obj", obj, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "ellipsoid.csv").exists()
    assert (tmp_path / "diagnostics.csv").exists()


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume=8\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["solve", "--f", "const:1.0"], "grid_L=abc"),
    (["experiment", "--kind", "bound"], "count=2.5"),
    (["flow", "--f", "const:1.0"], "renormalize=flase"),
    # typed when the file is read, even for a key this command does not use
    (["solve", "--f", "const:1.0"], "count=2.5"),
], ids=["non-integer-bandwidth", "fractional-count", "misspelt-boolean",
        "key-of-another-command"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, argv, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("measure", "measure=surfce"),
    ("experiment", "kind=bounds"),
], ids=["misspelt-measure", "misspelt-kind"])
def test_config_value_outside_the_flag_choices_exits_2(tmp_path, capsys, command, line):
    obj = tmp_path / "cube.obj"
    obj.write_text(cube_obj_text())
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"obj={obj}\n{line}\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert not out.exists()


def test_config_boolean_false_turns_renormalization_off(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("renormalize=false\n")
    base = ["flow", "--f", "const:1.0", "--h0", "const:2.0", "--t-final", "0.01"]
    runs = {"config": ["--config", str(cfg)], "flag": ["--no-renormalize"], "on": []}
    for name, extra in runs.items():
        assert main(base + extra + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    trace = {name: (tmp_path / name / "trace.csv").read_text() for name in runs}
    assert trace["config"] == trace["flag"]
    assert trace["config"] != trace["on"]


def test_missing_obj_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.obj")
    assert main(["measure", "--obj", missing, "--out", str(tmp_path)]) == 1
    assert "io error" in capsys.readouterr().err


def test_aliasing_floor_exits_1_with_a_hint(tmp_path, capsys):
    # at L=8 this density's nodal residual stalls near 3e-7, above --tol
    code = main(["solve", "--grid-L", "8", "--tol", "1e-8",
                 "--f", "random:2,0.05,2.0", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "ConvergenceFailure" in err
    assert "aliasing floor of bandwidth 8" in err
    assert "raise --grid-L or loosen --tol" in err
    assert "Traceback" not in err
    assert not (tmp_path / "solution.csv").exists()


def test_flow_aliasing_floor_hint_names_only_existing_flags(tmp_path, capsys):
    # at L=16 this density's stationary residual is 1.053e-7 against the
    # 1e-7 check, which the CLI cannot loosen
    code = main(["flow", "--f", "random:0,0.3,2.0", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "aliasing floor of bandwidth 16" in err
    assert "FlowOptions.residual_check" in err
    with pytest.raises(SystemExit):
        main(["flow", "--help"])
    usage = capsys.readouterr().out
    flags = re.findall(r"--[A-Za-z][A-Za-z-]*", err)
    assert "--grid-L" in flags
    assert all(flag in usage for flag in flags)


def test_origin_outside_body_exits_1(tmp_path, capsys):
    corners = np.array([[sx, sy, sz] for sx in (-1, 1)
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    shifted = convex_hull_3d(corners + np.array([5.0, 0.0, 0.0]))
    obj = tmp_path / "shifted.obj"
    obj.write_text(polytope_to_obj(shifted))
    code = main(["measure", "--obj", str(obj), "--measure", "cone",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "OriginNotContained" in capsys.readouterr().err


def test_no_tmp_files_left_behind(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["solve", "--f", "const:1.0", "--out", out]) == 0
    capsys.readouterr()
    assert glob.glob(str(tmp_path / "*.tmp")) == []
