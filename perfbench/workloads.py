"""The benchmark's workloads: the argv of each op and the check of its outputs.

An op is one or more in-process ``logmink.cli.main(argv)`` calls.  Op ``i`` of
a run with workload seed ``s`` uses the input seed ``s * SEED_STRIDE + i``, so
the same seed gives the same inputs and runs with different seeds share none.
Checks run outside the timed region and raise ``CheckFailed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

SEED_STRIDE = 100_000
EPS, LAM = 0.05, 2.0
# Newton tolerance of every solve.  At L=16 the default 1e-10 lies below the
# bandwidth-limited residual floor of about one random density in three
# hundred, so those solves would fail; the README advises a looser tolerance.
TOL = 1e-8


class CheckFailed(Exception):
    """An op exited 0 but its outputs are wrong."""


def _read(out: str, name: str) -> str:
    with open(os.path.join(out, name), encoding="utf-8") as handle:
        return handle.read()


def _density(seed: int, grid):
    from logmink import gen_density
    return gen_density(seed, EPS, LAM, grid=grid)


def _check_newton(seed: int, out: str, grid) -> None:
    import numpy as np

    from logmink import SupportFunction, ma_residual
    from logmink.grid import field_from_csv
    h = SupportFunction.from_field(field_from_csv(_read(out, "solution.csv"), grid))
    residual = float(np.max(np.abs(ma_residual(h, _density(seed, grid)).values)))
    if not residual <= 1e-8:
        raise CheckFailed(f"solution residual {residual:.3e} > 1e-8")


def _check_flow(seed: int, out: str, grid) -> None:
    from logmink import SolveOptions, hausdorff_distance, newton_solve
    from logmink.grid import field_from_csv
    flowed = field_from_csv(_read(out, "solution.csv"), grid)
    reference = newton_solve(_density(seed, grid), grid=grid, opts=SolveOptions(TOL)).h
    distance = hausdorff_distance(flowed, reference)
    if not distance <= 1e-6:
        raise CheckFailed(f"flow is {distance:.3e} from the Newton reference (> 1e-6)")


def _report_aggregates(text: str) -> dict[str, str]:
    prefix = "# aggregate "
    return dict(line[len(prefix):].split("=", 1)
                for line in text.splitlines() if line.startswith(prefix))


def _check_bound(seed: int, out: str, grid) -> None:
    agg = _report_aggregates(_read(out, "report.csv"))
    if agg.get("n_samples") != "10" or agg.get("n_failures") != "0":
        raise CheckFailed(f"bound suite samples/failures: {agg}")
    if not float(agg["c_lambda"]) <= 10.0:
        raise CheckFailed(f"c_lambda {agg['c_lambda']} > 10")


def _check_body(seed: int, out: str, grid) -> None:
    from logmink import measure_from_csv, polytope_from_obj, volume
    vol = volume(polytope_from_obj(_read(out, "body.obj")))
    total = measure_from_csv(_read(out, "cone_measure.csv")).total()
    if not abs(total - vol) <= 1e-9 * vol:
        raise CheckFailed(f"cone-measure total {total!r} != volume {vol!r}")
    measure_from_csv(_read(out, "surface_measure.csv"))


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    why: str
    argvs: Callable[[int, str], list]  # (input seed, out dir) -> argv per call
    check: Callable[[int, str, object], None]  # (input seed, out dir, grid)
    artefacts: tuple = ("solution.csv", "report.csv")
    # traced-run per-layer metrics that must be nonzero on this workload
    required: tuple = field(default=())


def _random(seed: int) -> str:
    return f"random:{seed},{EPS},{LAM}"


WORKLOADS = {w.name: w for w in [
    Workload(
        "newton_L48", 48,
        "dense L^4 Newton path: _spec operators, Jacobian, LU, full-SVD cond, "
        "eager seminorm; no flow, no hull",
        lambda s, out: [["solve", "--grid-L", "48", "--tol", str(TOL),
                         "--f", _random(s), "--out", out]],
        _check_newton,
        required=("cli.calls", "solver.newton_calls", "solver.lu_s",
                  "solver.cond_s", "solver.density_calls", "solver.certify_calls",
                  "grid.hessian_calls", "grid.transform_calls", "cli.write_bytes"),
    ),
    Workload(
        "flow_L16", 16,
        "thousands of small explicit flow steps: Hessian transforms and two "
        "certifications per step; no Jacobian or LU",
        lambda s, out: [["flow", "--f", _random(s), "--out", out]],
        _check_flow,
        artefacts=("solution.csv", "trace.csv"),
        required=("cli.calls", "flow.calls", "flow.steps", "solver.certify_calls",
                  "grid.hessian_calls", "grid.transform_calls"),
    ),
    Workload(
        "bound_L16", 16,
        "the a priori bound suite as run: ten Newton solves, hulls, ellipsoids "
        "at 1e-4 and blow-down; the convex layer dominates",
        lambda s, out: [["experiment", "--kind", "bound", "--count", "10",
                         "--tol", str(TOL), "--seed", str(s), "--out", out]],
        _check_bound,
        artefacts=("report.csv",),
        required=("cli.calls", "experiments.samples", "solver.newton_calls",
                  "convex.hull_calls", "convex.ellipsoid_calls",
                  "convex.blowdown_s", "experiments.gen_density_s"),
    ),
    Workload(
        "body_L16", 16,
        "convex layer through files: solve --write-obj, then measure parses, "
        "re-hulls and writes both measures of body.obj",
        lambda s, out: [["solve", "--f", _random(s), "--tol", str(TOL),
                         "--write-obj", "--out", out],
                        ["measure", "--obj", os.path.join(out, "body.obj"),
                         "--out", out]],
        _check_body,
        required=("cli.calls", "solver.newton_calls", "convex.hull_calls",
                  "convex.hull_points", "convex.measure_s", "convex.obj_io_s",
                  "cli.write_bytes"),
    ),
]}
