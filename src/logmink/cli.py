"""Command-line interface.

Subcommands
-----------
solve        solve h det(Hess h + h I) = f by damped Newton iteration
flow         run the normalized Gauss-curvature flow to stationarity
measure      surface-area and cone-volume measures of a polytope (OBJ in)
john         minimum-volume enclosing ellipsoid of a polytope
diag         blow-down diagnostics of a polytope
experiment   run a seeded suite (uniqueness | bound | diagnostics)

Densities are given with ``--f`` as one of the presets ``const:c``,
``harmonics:[(l,m,amp),...]`` or ``random:seed,eps,lambda``.  A flat
``key=value`` config file can seed any flag; explicit flags win.  Exit
codes: 0 success, 1 computation failure (non-convergence, invalid body),
2 config or usage error.

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
from .experiments import ExperimentSpec, gen_density, run_experiment
from .flow import FlowOptions, run_flow
from .grid import build_grid, field_to_csv
from .solver import DensityFunction, SolveOptions, SupportFunction, newton_solve

_CONFIG_KEYS = {
    "grid_L", "tol", "out", "seed", "config", "f", "h0", "obj", "kind",
    "count", "eps", "lam", "inits", "dt", "t_final", "renormalize",
    "snapshot_every", "write_obj", "measure",
}


def write_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameter(f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise InvalidParameter(f"config line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def normalize_config(cfg: dict) -> str:
    """Canonical text form: sorted key=value lines."""
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise InvalidParameter(f"unknown config key {key!r}")
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--grid-L", dest="grid_L", type=int, default=None,
                        help="spherical grid bandwidth (default 16)")
    shared.add_argument("--tol", type=float, default=None,
                        help="solver residual tolerance relative to mean f / "
                             "flow stationarity tolerance")
    shared.add_argument("--out", default=None,
                        help="output directory (default current directory)")
    shared.add_argument("--seed", type=int, default=None,
                        help="base seed for seeded commands")
    shared.add_argument("--config", default=None,
                        help="key=value config file; explicit flags override it")

    parser = argparse.ArgumentParser(
        prog="logmink",
        description="Monge-Ampere solver and convex-geometry toolkit on the sphere",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", parents=[shared],
                       help="Newton-solve h det(W) = f")
    p.add_argument("--f", default=None, help="density preset (const:/harmonics:/random:)")
    p.add_argument("--h0", default=None, help="initial guess preset const:c")
    p.add_argument("--write-obj", dest="write_obj", action="store_true", default=None,
                   help="also write the solution body as body.obj")

    p = sub.add_parser("flow", parents=[shared],
                       help="normalized Gauss-curvature flow")
    p.add_argument("--f", default=None, help="density preset")
    p.add_argument("--h0", default=None, help="initial guess preset const:c")
    p.add_argument("--dt", type=float, default=None, help="initial time step")
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="stop at this time instead of at stationarity")
    p.add_argument("--no-renormalize", dest="renormalize", action="store_false",
                   default=None, help="run the unnormalized (shrinking) flow")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None,
                   help="write body_NNNNNN.obj every k accepted steps")
    p.add_argument("--write-obj", dest="write_obj", action="store_true", default=None,
                   help="also write the final body as body.obj")

    p = sub.add_parser("measure", parents=[shared],
                       help="surface-area / cone-volume measures of an OBJ polytope")
    p.add_argument("--obj", default=None, help="input OBJ file")
    p.add_argument("--measure", default=None, choices=["surface", "cone", "both"],
                   help="which measure to write (default both)")

    p = sub.add_parser("john", parents=[shared],
                       help="minimum-volume enclosing ellipsoid of an OBJ polytope")
    p.add_argument("--obj", default=None, help="input OBJ file")

    p = sub.add_parser("diag", parents=[shared],
                       help="blow-down diagnostics of an OBJ polytope")
    p.add_argument("--obj", default=None, help="input OBJ file")

    p = sub.add_parser("experiment", parents=[shared],
                       help="run a seeded suite and write its report")
    p.add_argument("--kind", default=None,
                   choices=["uniqueness", "bound", "diagnostics"])
    p.add_argument("--count", type=int, default=None, help="number of samples")
    p.add_argument("--eps", type=float, default=None, help="sup-norm distance of f from 1")
    p.add_argument("--lam", type=float, default=None, help="density bounds 1/lam < f < lam")
    p.add_argument("--inits", default=None,
                   help="comma-separated init strategies for the uniqueness suite")
    return parser


def _merge(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            cfg.update(parse_config_text(handle.read()))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


def _get(cfg: dict, key: str, default, cast):
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, str):
        if cast is bool:
            return value.strip().lower() in ("1", "true", "yes", "on")
        return cast(value)
    return value


def _out_path(cfg: dict, name: str) -> str:
    return os.path.join(_get(cfg, "out", ".", str), name)


def _require_density(cfg: dict, grid) -> DensityFunction:
    descriptor = _get(cfg, "f", None, str)
    if descriptor is None:
        raise InvalidParameter("no density given; pass --f const:c, "
                               "--f harmonics:[...] or --f random:seed,eps,lam")
    return parse_density(descriptor, grid)


def _optional_h0(cfg: dict, grid) -> SupportFunction | None:
    descriptor = _get(cfg, "h0", None, str)
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
    path = _get(cfg, "obj", None, str)
    if path is None:
        raise InvalidParameter("no input body; pass --obj FILE")
    with open(path, encoding="utf-8") as handle:
        return polytope_from_obj(handle.read())


def cmd_solve(cfg: dict) -> int:
    grid = build_grid(_get(cfg, "grid_L", 16, int))
    f = _require_density(cfg, grid)
    opts = SolveOptions(tolerance=_get(cfg, "tol", 1e-10, float))
    result = newton_solve(f, h0=_optional_h0(cfg, grid), opts=opts, grid=grid)
    write_atomic(_out_path(cfg, "solution.csv"), field_to_csv(result.h.field))
    write_atomic(_out_path(cfg, "report.csv"), result.report_csv())
    if _get(cfg, "write_obj", False, bool):
        write_atomic(_out_path(cfg, "body.obj"),
                     polytope_to_obj(polytope_from_support(result.h)))
    print(f"solved in {result.iterations} iterations, "
          f"residual {result.residual_sup:.3e}")
    return 0


def cmd_flow(cfg: dict) -> int:
    grid = build_grid(_get(cfg, "grid_L", 16, int))
    f = _require_density(cfg, grid)
    opts = FlowOptions(
        dt_init=_get(cfg, "dt", 1e-3, float),
        stationarity_tol=_get(cfg, "tol", 1e-9, float),
        renormalize=_get(cfg, "renormalize", True, bool),
        t_final=_get(cfg, "t_final", None, float),
    )
    out_dir = _get(cfg, "out", ".", str)
    every = _get(cfg, "snapshot_every", 0, int)

    def snapshot(step, t, h):
        body = polytope_from_support(h)
        write_atomic(os.path.join(out_dir, f"body_{step:06d}.obj"),
                     polytope_to_obj(body))

    result = run_flow(f, h0=_optional_h0(cfg, grid), opts=opts, grid=grid,
                      snapshot_every=every,
                      snapshot_fn=snapshot if every > 0 else None)
    write_atomic(_out_path(cfg, "solution.csv"), field_to_csv(result.h.field))
    write_atomic(_out_path(cfg, "trace.csv"), result.trace_csv())
    if _get(cfg, "write_obj", False, bool):
        write_atomic(_out_path(cfg, "body.obj"),
                     polytope_to_obj(polytope_from_support(result.h)))
    print(f"flow stopped ({result.reason}) after {result.steps} steps, "
          f"t = {result.t_end:.6g}, c_est = {result.c_est:.6g}")
    return 0


def cmd_measure(cfg: dict) -> int:
    P = _load_polytope(cfg)
    which = _get(cfg, "measure", "both", str)
    if which in ("surface", "both"):
        write_atomic(_out_path(cfg, "surface_measure.csv"),
                     measure_to_csv(surface_area_measure(P)))
    if which in ("cone", "both"):
        write_atomic(_out_path(cfg, "cone_measure.csv"),
                     measure_to_csv(cone_volume_measure(P)))
    print(f"measured polytope with {P.n_facets} facets")
    return 0


def cmd_john(cfg: dict) -> int:
    P = _load_polytope(cfg)
    E = enclosing_ellipsoid(P)
    lines = ["quantity,x,y,z",
             "center," + ",".join(repr(float(v)) for v in E.center),
             "radii," + ",".join(repr(float(v)) for v in E.radii)]
    for i in range(3):
        lines.append(f"axis_{i + 1}," +
                     ",".join(repr(float(v)) for v in E.axes[i]))
    write_atomic(_out_path(cfg, "ellipsoid.csv"), "\n".join(lines) + "\n")
    print("radii: " + ", ".join(f"{v:.6g}" for v in E.radii))
    return 0


def cmd_diag(cfg: dict) -> int:
    P = _load_polytope(cfg)
    d = blowdown_diagnostics(P)
    header = "ratio_32,ratio_21,axis_dist_ratio,plane_dist_ratio"
    row = ",".join(repr(float(v)) for v in
                   (d.ratio_32, d.ratio_21, d.axis_dist_ratio, d.plane_dist_ratio))
    write_atomic(_out_path(cfg, "diagnostics.csv"), header + "\n" + row + "\n")
    print(f"ratio_32 = {d.ratio_32:.6g}, ratio_21 = {d.ratio_21:.6g}")
    return 0


def cmd_experiment(cfg: dict) -> int:
    kind = _get(cfg, "kind", None, str)
    if kind is None:
        raise InvalidParameter("no suite kind; pass --kind uniqueness|bound|diagnostics")
    spec_kwargs = dict(
        kind=kind,
        count=_get(cfg, "count", 20, int),
        seed=_get(cfg, "seed", 0, int),
        eps=_get(cfg, "eps", 0.05, float),
        lam=_get(cfg, "lam", 2.0, float),
        L=_get(cfg, "grid_L", 16, int),
    )
    inits = _get(cfg, "inits", None, str)
    if inits is not None:
        spec_kwargs["inits"] = tuple(s.strip() for s in inits.split(",") if s.strip())
    spec = ExperimentSpec(**spec_kwargs)
    tol = _get(cfg, "tol", None, float)
    solve_opts = SolveOptions(tolerance=tol) if tol is not None else None
    report = run_experiment(spec, solve_opts)
    write_atomic(_out_path(cfg, "report.csv"), report.to_csv())
    print(f"{spec.kind} suite: {report.aggregates}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "flow": cmd_flow,
    "measure": cmd_measure,
    "john": cmd_john,
    "diag": cmd_diag,
    "experiment": cmd_experiment,
}


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
        return _COMMANDS[args.command](cfg)
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
