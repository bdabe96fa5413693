"""Command-line interface.

Subcommands
-----------
solve        solve h det(Hess h + h I) = f by damped Newton iteration
flow         run the normalized Gauss-curvature flow to stationarity
measure      surface-area and cone-volume measures of a polytope (OBJ in)
john         minimum-volume enclosing ellipsoid of a polytope
diag         blow-down diagnostics of a polytope
experiment   run a seeded suite (uniqueness | bound | diagnostics)

Each flag is declared once, in one option group, and a command takes
only the groups it reads:

--out --config              every command
--grid-L --tol              solve, flow, experiment
--f --h0 --write-obj        solve, flow
--obj                       measure, john, diag
--seed                      experiment

plus each command's own flags.  Densities are given with ``--f`` as one of
the presets ``const:c``, ``harmonics:[(l,m,amp),...]`` or
``random:seed,eps,lambda``.  A flat ``key=value`` config file can seed any
flag of any command, typed by that flag's declaration; a command ignores
the keys it does not read, and explicit flags win.  Exit codes: 0 success,
1 computation failure (non-convergence, invalid body), 2 config or usage
error, a flag the command does not take included.

All output files are written atomically (temp file then rename), so an
interrupted run never leaves a truncated artifact.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile

from .convex import (
    blowdown_diagnostics,
    cone_volume_measure,
    enclosing_ellipsoid,
    measure_to_csv,
    polytope_from_obj,
    polytope_from_support,
    polytope_to_obj,
    surface_area_measure,
)
from .errors import InvalidParameter, LogminkError
from .experiments import _SUITES, ExperimentSpec, gen_density, run_experiment
from .flow import FlowOptions, run_flow
from .grid import DEFAULT_BANDWIDTH, _csv_text, build_grid, field_to_csv
from .solver import DensityFunction, SolveOptions, SupportFunction, newton_solve

# config-file spellings of the on/off flags' values
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def write_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory, in open()'s mode."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored.

    The keys are the destinations of the command-line flags; the values
    stay text until :func:`_config_value` types them.
    """
    known = _flag_actions()
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameter(f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise InvalidParameter(f"config line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def parse_density(descriptor: str, grid) -> DensityFunction:
    """Turn a --f preset string into a DensityFunction."""
    if ":" not in descriptor:
        raise InvalidParameter(
            f"density descriptor needs a preset prefix, got {descriptor!r}"
        )
    preset, arg = descriptor.split(":", 1)
    if preset == "const":
        return DensityFunction.constant(float(arg))
    if preset == "harmonics":
        try:
            terms = ast.literal_eval(arg)
        except (ValueError, SyntaxError) as exc:
            raise InvalidParameter(
                f"cannot parse harmonic terms from {arg!r}"
            ) from exc
        return DensityFunction.from_harmonics(terms, grid=grid)
    if preset == "random":
        parts = arg.split(",")
        if len(parts) != 3:
            raise InvalidParameter(
                f"random preset wants seed,eps,lambda, got {arg!r}"
            )
        try:
            seed, eps, lam = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidParameter(
                f"random preset wants integer seed and numeric eps,lambda, "
                f"got {arg!r}"
            ) from exc
        return gen_density(seed, eps, lam, grid=grid)
    raise InvalidParameter(f"unknown density preset {preset!r}")


def _build_parser() -> argparse.ArgumentParser:
    # Each option group is one parent parser, so every subcommand that takes
    # the group shares its argparse.Action objects: one declaration per key.
    def group(title: str) -> tuple[argparse.ArgumentParser, argparse._ArgumentGroup]:
        parent = argparse.ArgumentParser(add_help=False)
        return parent, parent.add_argument_group(title)

    io, g = group("input and output")
    g.add_argument("--out", default=None,
                   help="output directory (default current directory)")
    g.add_argument("--config", default=None,
                   help="key=value config file; explicit flags override it")

    numerics, g = group("numerics")
    g.add_argument("--grid-L", dest="grid_L", type=int, default=None,
                   help=f"spherical grid bandwidth (default {DEFAULT_BANDWIDTH})")
    g.add_argument("--tol", type=float, default=None,
                   help="solver residual tolerance relative to mean f / "
                        "flow stationarity tolerance")

    density, g = group("equation")
    g.add_argument("--f", default=None, help="density preset (const:/harmonics:/random:)")
    g.add_argument("--h0", default=None, help="initial guess preset const:c")
    g.add_argument("--write-obj", dest="write_obj", action="store_true", default=None,
                   help="also write the final body as body.obj")

    polytope, g = group("polytope")
    g.add_argument("--obj", default=None, help="input OBJ file")

    seeded, g = group("seeding")
    g.add_argument("--seed", type=int, default=None,
                   help="base seed of the suite's samples")

    parser = argparse.ArgumentParser(
        prog="logmink",
        description="Monge-Ampere solver and convex-geometry toolkit on the sphere",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", parents=[io, numerics, density],
                       help="Newton-solve h det(W) = f")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("flow", parents=[io, numerics, density],
                       help="normalized Gauss-curvature flow")
    p.set_defaults(handler=cmd_flow)
    p.add_argument("--dt", type=float, default=None, help="initial time step")
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="stop at this time instead of at stationarity")
    p.add_argument("--no-renormalize", dest="renormalize", action="store_false",
                   default=None, help="run the unnormalized (shrinking) flow")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None,
                   help="write body_NNNNNN.obj every k accepted steps")

    p = sub.add_parser("measure", parents=[io, polytope],
                       help="surface-area / cone-volume measures of an OBJ polytope")
    p.set_defaults(handler=cmd_measure)
    p.add_argument("--measure", default=None, choices=["surface", "cone", "both"],
                   help="which measure to write (default both)")

    p = sub.add_parser("john", parents=[io, polytope],
                       help="minimum-volume enclosing ellipsoid of an OBJ polytope")
    p.set_defaults(handler=cmd_john)

    p = sub.add_parser("diag", parents=[io, polytope],
                       help="blow-down diagnostics of an OBJ polytope")
    p.set_defaults(handler=cmd_diag)

    p = sub.add_parser("experiment", parents=[io, numerics, seeded],
                       help="run a seeded suite and write its report")
    p.set_defaults(handler=cmd_experiment)
    p.add_argument("--kind", default=None, choices=list(_SUITES))
    p.add_argument("--count", type=int, default=None, help="number of samples")
    p.add_argument("--eps", type=float, default=None, help="sup-norm distance of f from 1")
    p.add_argument("--lam", type=float, default=None, help="density bounds 1/lam < f < lam")
    p.add_argument("--inits", default=None,
                   help="comma-separated init strategies for the uniqueness suite")
    return parser


def _flag_actions() -> dict:
    """The action of every subcommand's flags, by destination: the one
    declaration of each config key, its type and its choices.  Commands that
    take the same option group share its actions."""
    subcommands = next(action for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {action.dest: action for parser in subcommands.choices.values()
            for action in parser._actions if action.dest != "help"}


def _config_value(action: argparse.Action, text: str):
    """Config-file text typed as its flag types it, within the flag's choices."""
    kind = bool if action.nargs == 0 else (action.type or str)
    try:
        value = _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise InvalidParameter(f"config key {action.dest} needs a value of type "
                               f"{kind.__name__}, got {text!r}") from None
    if action.choices and value not in action.choices:
        raise InvalidParameter(f"config key {action.dest} must be one of "
                               f"{', '.join(action.choices)}, got {text!r}")
    return value


def _merge(args: argparse.Namespace) -> dict:
    """Config-file values, typed when the file is read, overridden by the flags."""
    cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
        actions = _flag_actions()
        cfg = {key: _config_value(actions[key], value)
               for key, value in parse_config_text(text).items()}
    for key, value in vars(args).items():
        if key in ("command", "config", "handler") or value is None:
            continue
        cfg[key] = value
    return cfg


def _given(cfg: dict, **params: str) -> dict:
    """Keyword arguments ``{param: value}`` for the config keys that are set,
    so that unset options keep the library's defaults."""
    return {param: cfg[key] for param, key in params.items() if key in cfg}


def _out_path(cfg: dict, name: str) -> str:
    return os.path.join(cfg.get("out", "."), name)


def _require_density(cfg: dict, grid) -> DensityFunction:
    descriptor = cfg.get("f")
    if descriptor is None:
        raise InvalidParameter("no density given; pass --f const:c, "
                               "--f harmonics:[...] or --f random:seed,eps,lam")
    return parse_density(descriptor, grid)


def _optional_h0(cfg: dict, grid) -> SupportFunction | None:
    descriptor = cfg.get("h0")
    if descriptor is None:
        return None
    preset, _, arg = descriptor.partition(":")
    if preset != "const" or not arg:
        raise InvalidParameter(f"h0 preset must be const:c, got {descriptor!r}")
    try:
        value = float(arg)
    except ValueError as exc:
        raise InvalidParameter(f"h0 preset const:c needs a number c, got {descriptor!r}") from exc
    return SupportFunction.constant(grid, value)


def _load_polytope(cfg: dict):
    path = cfg.get("obj")
    if path is None:
        raise InvalidParameter("no input body; pass --obj FILE")
    with open(path, encoding="utf-8") as handle:
        return polytope_from_obj(handle.read())


def _write_body(cfg: dict, name: str, h: SupportFunction) -> None:
    write_atomic(_out_path(cfg, name), polytope_to_obj(polytope_from_support(h)))


def _write_solution(cfg: dict, h: SupportFunction, log_name: str, log_text: str) -> None:
    """The artefacts of the equation group: ``solution.csv``, the run's log
    and, with ``write_obj``, ``body.obj``."""
    write_atomic(_out_path(cfg, "solution.csv"), field_to_csv(h.field))
    write_atomic(_out_path(cfg, log_name), log_text)
    if cfg.get("write_obj", False):
        _write_body(cfg, "body.obj", h)


def cmd_solve(cfg: dict) -> int:
    grid = build_grid(**_given(cfg, L="grid_L"))
    f = _require_density(cfg, grid)
    opts = SolveOptions(**_given(cfg, tolerance="tol"))
    result = newton_solve(f, h0=_optional_h0(cfg, grid), opts=opts, grid=grid)
    _write_solution(cfg, result.h, "report.csv", result.report_csv())
    print(f"solved in {result.iterations} iterations, "
          f"residual {result.residual_sup:.3e}")
    return 0


def cmd_flow(cfg: dict) -> int:
    grid = build_grid(**_given(cfg, L="grid_L"))
    f = _require_density(cfg, grid)
    opts = FlowOptions(**_given(cfg, dt_init="dt", stationarity_tol="tol",
                                renormalize="renormalize", t_final="t_final"))
    h0 = _optional_h0(cfg, grid)
    every = cfg.get("snapshot_every", 0)
    if every < 0:
        raise InvalidParameter(f"snapshot_every must be >= 0, got {every}")

    def snapshot(step, t, h):
        if step % every == 0:
            _write_body(cfg, f"body_{step:06d}.obj", h)

    result = run_flow(f, h0=h0, opts=opts, grid=grid,
                      snapshot_fn=snapshot if every else None)
    _write_solution(cfg, result.h, "trace.csv", result.trace_csv())
    print(f"flow stopped ({result.reason}) after {result.steps} steps, "
          f"t = {result.t_end:.6g}, c_est = {result.c_est:.6g}")
    return 0


def cmd_measure(cfg: dict) -> int:
    P = _load_polytope(cfg)
    which = cfg.get("measure", "both")
    for name, measure in (("surface", surface_area_measure), ("cone", cone_volume_measure)):
        if which in (name, "both"):
            write_atomic(_out_path(cfg, f"{name}_measure.csv"), measure_to_csv(measure(P)))
    print(f"measured polytope with {P.n_facets} facets")
    return 0


def cmd_john(cfg: dict) -> int:
    P = _load_polytope(cfg)
    E = enclosing_ellipsoid(P)
    rows = [["center", *E.center.tolist()], ["radii", *E.radii.tolist()]]
    rows += [[f"axis_{i + 1}", *axis] for i, axis in enumerate(E.axes.tolist())]
    write_atomic(_out_path(cfg, "ellipsoid.csv"), _csv_text("quantity,x,y,z", rows))
    print("radii: " + ", ".join(f"{v:.6g}" for v in E.radii))
    return 0


def cmd_diag(cfg: dict) -> int:
    P = _load_polytope(cfg)
    d = blowdown_diagnostics(P)
    row = [d.ratio_32, d.ratio_21, d.axis_dist_ratio, d.plane_dist_ratio]
    write_atomic(_out_path(cfg, "diagnostics.csv"),
                 _csv_text("ratio_32,ratio_21,axis_dist_ratio,plane_dist_ratio", [row]))
    print(f"ratio_32 = {d.ratio_32:.6g}, ratio_21 = {d.ratio_21:.6g}")
    return 0


def cmd_experiment(cfg: dict) -> int:
    if "kind" not in cfg:
        raise InvalidParameter(f"no suite kind; pass --kind {'|'.join(_SUITES)}")
    spec_kwargs = _given(cfg, kind="kind", count="count", seed="seed", eps="eps",
                         lam="lam", L="grid_L")
    if "inits" in cfg:
        spec_kwargs["inits"] = tuple(s.strip() for s in cfg["inits"].split(",")
                                     if s.strip())
    spec = ExperimentSpec(**spec_kwargs)
    report = run_experiment(spec, SolveOptions(**_given(cfg, tolerance="tol")))
    write_atomic(_out_path(cfg, "report.csv"), report.to_csv())
    print(f"{spec.kind} suite: {report.aggregates}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _merge(args)
    except (InvalidParameter, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg)
    except InvalidParameter as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LogminkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
