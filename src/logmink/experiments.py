"""Reproducible experiment suites over the solver and diagnostics.

Three desk-scale harnesses, each run through
``run_experiment(ExperimentSpec(kind=...))``:

* uniqueness: solve each random density from several independent initial
  guesses (constant rescalings, random admissible perturbations, and a
  flow-then-Newton path) and report the largest pairwise Hausdorff
  distance among the solutions.
* bound: solve many densities with fixed bounds 1/lam < f < lam and
  report the empirical sup-norm cap of the solutions together with
  blow-down diagnostics of their polytope approximations.
* diagnostics: the ellipsoid ratio report alone, with a documented cap.

All randomness is driven by one spec-level seed; sample i uses the
derived seed ``seed * 100003 + i``, so reports are byte-identical across
runs of the same spec.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .convex import blowdown_diagnostics, hausdorff_distance, polytope_from_support
from .errors import (
    ConvergenceFailure,
    GenerationFailure,
    InvalidParameter,
    LogminkError,
)
from .flow import FlowOptions, run_flow
from .grid import (
    DEFAULT_BANDWIDTH,
    HarmonicCoeffs,
    SphericalGrid,
    _csv_cell,
    _csv_text,
    _require_integer,
    _require_positive_finite,
    _require_real,
    build_grid,
    coeff_count,
)
from .solver import (DensityFunction, SolveOptions, SupportFunction, _zonal_coefficient,
                     newton_solve)

_DEFAULT_INITS = ("const:0.7", "const:1.0", "const:1.4", "perturb", "flow")

#: documented empirical cap on ellipsoid radius ratios for the lam = 2 suites
DIAGNOSTIC_RATIO_CAP = 3.0


def _init_list(inits) -> tuple:
    """``inits`` as a tuple; a string, a non-iterable or an empty list raises."""
    if isinstance(inits, str) or not isinstance(inits, Iterable):
        got = f"the string {inits!r}" if isinstance(inits, str) else repr(inits)
        raise InvalidParameter(f"inits must be a sequence of strategy names, got {got}")
    if not (inits := tuple(inits)):
        raise InvalidParameter("inits must name at least one strategy")
    return inits


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one suite run."""

    kind: str
    count: int = 20
    seed: int = 0
    eps: float = 0.05
    lam: float = 2.0
    L: int = DEFAULT_BANDWIDTH
    inits: tuple = _DEFAULT_INITS

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _SUITES):
            raise InvalidParameter(
                f"unknown suite kind {self.kind!r}; expected one of {tuple(_SUITES)}"
            )
        for name in ("count", "seed", "L"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.count < 1:
            raise InvalidParameter(f"sample count must be >= 1, got {self.count}")
        # stored as floats, so numpy and Python inputs describe alike
        eps, lam = _require_density_parameters(self.seed, self.eps, self.lam)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "inits", _init_list(self.inits))
        for strategy in self.inits:
            _parse_init(strategy)

    def sample_seed(self, index: int) -> int:
        return self.seed * 100003 + index

    def describe(self) -> str:
        inits = "|".join(self.inits)
        return (f"kind={self.kind} count={self.count} seed={self.seed} "
                f"eps={self.eps!r} lam={self.lam!r} L={self.L} inits={inits}")


class ExperimentReport:
    """Per-sample records plus aggregates, serializable as CSV.

    ``records`` is a list of dicts; keys listed in ``columns`` (the suite's
    report columns) become CSV fields, keys starting with an underscore hold
    live objects (solutions, densities, failure lists) for in-process
    inspection.  ``aggregates`` holds n_samples, n_failures and the suite's
    aggregates, computed once from the records; the diagnostics aggregates
    raise :class:`ConvergenceFailure` above :data:`DIAGNOSTIC_RATIO_CAP`.
    """

    def __init__(self, spec: ExperimentSpec, records: list):
        _, self.columns, suite_aggregates = _SUITES[spec.kind]
        self.spec = spec
        self.records = list(records)
        self.aggregates = {
            "n_samples": len(self.records),
            "n_failures": sum(len(r.get("_failures", ())) for r in self.records),
            **suite_aggregates(self.records),
        }

    def to_csv(self) -> str:
        rows = ([rec[c] for c in self.columns] for rec in self.records)
        tail = [f"aggregate {k}={_csv_cell(v)}" for k, v in sorted(self.aggregates.items())]
        return _csv_text(",".join(self.columns), rows, [f"spec: {self.spec.describe()}"], tail)


def _require_density_parameters(seed: int, eps: float, lam: float) -> tuple[float, float]:
    """The parameter rule of :func:`gen_density`, which every spec also
    meets; returns ``eps`` and ``lam`` as floats."""
    eps, lam = _require_real("eps", eps), _require_real("lam", lam)
    if not (0.0 <= eps < np.inf):
        raise InvalidParameter(f"eps must be finite and >= 0, got {eps}")
    if not (1.0 < lam < np.inf):
        raise InvalidParameter(f"lam must be finite and > 1, got {lam}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    return eps, lam


def gen_density(seed: int, eps: float, lam: float,
                grid: SphericalGrid | None = None) -> DensityFunction:
    """Seeded random density f = 1 + eps * g / sup|g|, degrees 1..4.

    g is a harmonic combination with independent standard normal
    coefficients drawn from ``default_rng(seed)``, normalized by its
    sup over the nodes of ``grid`` (default the bandwidth-16 grid) so that
    sup|f - 1| = eps there exactly.  If the strict bounds 1/lam < f < lam
    fail, the amplitude is shrunk by 0.8 and the check retried; after 100
    retries :class:`GenerationFailure` is raised.  ``lam_lo`` and ``lam_hi``
    are the range measured on ``grid``; the density has bandwidth 4.
    """
    seed = _require_integer("seed", seed)
    eps, lam = _require_density_parameters(seed, eps, lam)
    if eps == 0.0:
        return DensityFunction.constant(1.0)
    if grid is None:
        grid = build_grid()

    shape = np.zeros(grid.n_coeffs)
    shape[1:coeff_count(4)] = np.random.default_rng(seed).standard_normal(coeff_count(4) - 1)
    g_vals = grid.synthesize_coeffs(shape)
    sup = float(np.max(np.abs(g_vals)))
    unit = g_vals / sup

    amp = eps
    for _ in range(100):
        f_vals = 1.0 + amp * unit
        if np.all(f_vals > 1.0 / lam) and np.all(f_vals < lam):
            coeffs = (amp / sup) * shape[:coeff_count(4)]
            coeffs[0] = _zonal_coefficient("constant density", 1.0)
            return DensityFunction(HarmonicCoeffs(4, coeffs), grid=grid)
        amp *= 0.8
    raise GenerationFailure(
        f"could not fit density inside ({1.0 / lam:g}, {lam:g}) after 100 "
        f"amplitude reductions (seed {seed}, eps {eps})"
    )


def _perturbed_start(f: DensityFunction, grid: SphericalGrid,
                     seed: int) -> SupportFunction:
    """Random admissible perturbation of the matched round sphere."""
    base = f.mean() ** (1.0 / 3.0)
    bump = np.zeros(grid.n_coeffs)
    bump[1:coeff_count(4)] = np.random.default_rng(seed).standard_normal(coeff_count(4) - 1)
    bump *= 0.1 * base / np.linalg.norm(bump)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[0] = _zonal_coefficient("round start radius", base)
    for _ in range(60):
        try:
            return SupportFunction(grid, coeffs + bump)
        except LogminkError:
            bump *= 0.7
    return SupportFunction(grid, coeffs)


def _parse_init(strategy: str) -> tuple[str, float | None]:
    """Name and ``const:c`` factor of an init strategy, or InvalidParameter."""
    if not isinstance(strategy, str):
        raise InvalidParameter(f"init strategy must be a string, got {strategy!r}")
    name, colon, arg = strategy.partition(":")
    if name == "const" and colon:
        try:
            factor = float(arg)
        except ValueError:
            factor = float("nan")
        _require_positive_finite(f"constant init factor of {strategy!r}", factor)
        return name, factor
    if strategy in ("perturb", "flow"):
        return strategy, None
    raise InvalidParameter(f"unknown init strategy {strategy!r}")


def _start_from(strategy: str, f: DensityFunction, grid: SphericalGrid,
                seed: int) -> SupportFunction:
    name, factor = _parse_init(strategy)
    if name == "const":
        return SupportFunction.constant(grid, (factor * f.mean()) ** (1.0 / 3.0))
    if name == "perturb":
        return _perturbed_start(f, grid, seed + 7919)
    res = run_flow(f, opts=FlowOptions(stationarity_tol=1e-5,
                                       residual_check=None), grid=grid)
    return res.h


def solve_with_inits(f: DensityFunction, inits, grid: SphericalGrid,
                     seed: int = 0, solve_opts: SolveOptions | None = None):
    """Solve one density from every init strategy.

    Returns (solutions, failures) where solutions is a list of
    (strategy, NewtonResult) for the runs that converged and failures a
    list of (strategy, message) for those that did not, unknown names too;
    ``inits`` is checked as in :class:`ExperimentSpec`.  Used by the
    uniqueness suite and directly handy for analytic test densities.
    """
    solve_opts = solve_opts or SolveOptions()
    solutions = []
    failures = []
    for strategy in _init_list(inits):
        try:
            h0 = _start_from(strategy, f, grid, seed)
            result = newton_solve(f, h0=h0, opts=solve_opts, grid=grid)
            solutions.append((strategy, result))
        except LogminkError as exc:
            failures.append((strategy, f"{type(exc).__name__}: {exc}"))
    return solutions, failures


def _uniqueness_record(spec: ExperimentSpec, grid: SphericalGrid, seed: int,
                       solve_opts: SolveOptions | None) -> dict:
    """Solve one sample from all init strategies; record the pairwise spread."""
    try:
        f = gen_density(seed, spec.eps, spec.lam, grid=grid)
    except LogminkError as exc:
        # every init fails with the density, so n_failures sums n_failed
        return dict(n_solved=0, n_failed=len(spec.inits), max_pairwise=0.0,
                    worst_residual=0.0, max_iterations=0,
                    _failures=[("gen_density", str(exc))] * len(spec.inits), _solutions=[])
    solutions, failures = solve_with_inits(f, spec.inits, grid, seed, solve_opts)
    pairwise = 0.0
    for a in range(len(solutions)):
        for b in range(a + 1, len(solutions)):
            d = hausdorff_distance(solutions[a][1].h, solutions[b][1].h)
            pairwise = max(pairwise, d)
    return dict(
        n_solved=len(solutions),
        n_failed=len(failures),
        max_pairwise=pairwise,
        worst_residual=max((s.residual_sup for _, s in solutions), default=0.0),
        max_iterations=max((s.iterations for _, s in solutions), default=0),
        _f=f, _solutions=solutions, _failures=failures,
    )


def _solve_and_diagnose(spec: ExperimentSpec, grid: SphericalGrid, seed: int,
                        solve_opts: SolveOptions | None) -> dict:
    """Solve one sample once; record its sup-norm, min h and blow-down ratios."""
    try:
        f = gen_density(seed, spec.eps, spec.lam, grid=grid)
        result = newton_solve(f, opts=solve_opts, grid=grid)
        diag = blowdown_diagnostics(polytope_from_support(result.h))
    except LogminkError as exc:
        return dict(h_sup=0.0, h_min=0.0, iterations=0, residual_sup=0.0,
                    ratio_32=0.0, ratio_21=0.0, axis_dist_ratio=0.0,
                    plane_dist_ratio=0.0,
                    _failures=[("solve", f"{type(exc).__name__}: {exc}")])
    return dict(
        h_sup=result.h.h_sup(),
        h_min=result.h.h_min(),
        iterations=result.iterations,
        residual_sup=result.residual_sup,
        ratio_32=diag.ratio_32,
        ratio_21=diag.ratio_21,
        axis_dist_ratio=diag.axis_dist_ratio,
        plane_dist_ratio=diag.plane_dist_ratio,
        _f=f, _h=result.h, _failures=[],
    )


def _uniqueness_aggregates(records: list) -> dict:
    return {key: max((r[key] for r in records if r["n_solved"] >= least), default=0.0)
            for key, least in (("max_pairwise", 2), ("worst_residual", 1))}


def _ratio_aggregates(records: list) -> dict:
    solved = [r for r in records if not r.get("_failures")]
    return {f"max_{key}": max((r[key] for r in solved), default=0.0)
            for key in ("ratio_32", "ratio_21")}


def _capped_ratio_aggregates(records: list) -> dict:
    """The ratio aggregates, which :data:`DIAGNOSTIC_RATIO_CAP` bounds."""
    aggregates = _ratio_aggregates(records)
    worst = max(aggregates.values())
    if worst > DIAGNOSTIC_RATIO_CAP:
        raise ConvergenceFailure(f"diagnostic radius ratio {worst:.4g} exceeds the "
                                 f"documented cap {DIAGNOSTIC_RATIO_CAP:g}",
                                 residual=worst, iterations=len(records))
    return aggregates


def _bound_aggregates(records: list) -> dict:
    solved = [r for r in records if not r.get("_failures")]
    return {"c_lambda": max((r["h_sup"] for r in solved), default=0.0),
            "min_h": min((r["h_min"] for r in solved), default=0.0),
            **_ratio_aggregates(solved)}


# kind -> (record function of (spec, grid, sample seed, solve options), report
# columns, function of the records giving the suite's aggregates after
# n_samples and n_failures); the one list of suite kinds
_SUITES = {
    "uniqueness": (_uniqueness_record,
                   ("sample", "seed", "n_solved", "n_failed", "max_pairwise",
                    "worst_residual", "max_iterations"),
                   _uniqueness_aggregates),
    "bound": (_solve_and_diagnose,
              ("sample", "seed", "h_sup", "h_min", "iterations", "residual_sup",
               "ratio_32", "ratio_21", "axis_dist_ratio", "plane_dist_ratio"),
              _bound_aggregates),
    "diagnostics": (_solve_and_diagnose,
                    ("sample", "seed", "ratio_32", "ratio_21", "axis_dist_ratio",
                     "plane_dist_ratio"),
                    _capped_ratio_aggregates),
}


def run_experiment(spec: ExperimentSpec,
                   solve_opts: SolveOptions | None = None) -> ExperimentReport:
    """Run the suite ``spec.kind`` over ``spec.count`` samples.

    * uniqueness solves every sample from all init strategies and reports
      the largest pairwise Hausdorff distance among the solutions.
    * bound records sup-norm, min h and blow-down diagnostics per sample;
      the aggregate ``c_lambda`` is the empirical sup-norm cap over the
      suite (the constant whose existence the a priori bound asserts).
    * diagnostics reports the ellipsoid radius ratios alone and enforces
      :data:`DIAGNOSTIC_RATIO_CAP`, the documented empirical bound on both
      ratios for lam = 2 suites.  A sample exceeding it raises
      :class:`ConvergenceFailure`, flagging either a solver problem or a
      genuinely degenerating solution family worth inspection.

    Every suite solves with ``solve_opts`` (default :class:`SolveOptions`)
    with ``report_condition`` off, since no column or aggregate reads a
    condition number.
    """
    record = _SUITES[spec.kind][0]
    solve_opts = replace(solve_opts or SolveOptions(), report_condition=False)
    grid = build_grid(spec.L)
    records = []
    for index in range(spec.count):
        seed = spec.sample_seed(index)
        records.append({"sample": index, "seed": seed,
                        **record(spec, grid, seed, solve_opts)})
    return ExperimentReport(spec, records)
