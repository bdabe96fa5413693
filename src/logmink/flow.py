"""Normalized Gauss-curvature flow in support-function form.

The body with support function h moves with normal speed f/K, which for
support functions reads dh/dt = -f/det(W) with W = Hess h + h I.  The
normalized variant adds lambda(t) * h with

    lambda(t) = integral of f  /  (3 V(h)),

the unique multiple of h that preserves volume to first order, so round
spheres and their translates are genuine stationary points.  Stationary
profiles of the normalized flow solve h det(W) = c f for a constant c,
and :func:`run_flow` rescales its answer so that c = 1.

:func:`flow_step` is the literal normalized Euler step, and :func:`run_flow`
takes the same step.  Both halve a step that loses convexity and retry it,
at most 40 times in a row; the growth of dt in :func:`run_flow` is fixed
too (by 1.5 after every 20 consecutively accepted steps).  :func:`run_flow`
adds two stabilizations on top of the step: the degree-1 (translation)
component of each step is reflected about its previous value, and the
iterate is rescaled to keep the volume exactly constant.  Both operations
fix every stationary point of the step map while damping the neutral and
weakly unstable directions of the volume-preserving gauge, which otherwise
let the center of mass drift.  The rescale h -> s h scales W by s and
det W by s**2, so its certificate is derived from the step's certificate
by that scaling law (:meth:`SupportFunction.scaled`) instead of being
recomputed, and each accepted step is certified once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, ConvexityError, InvalidParameter, StepFailure
from .grid import SphericalGrid, build_grid, require_same_grid
from .solver import DensityFunction, SupportFunction, ma_residual

# Step control: a rejected step is halved at most _MAX_HALVINGS times in a
# row, and run_flow multiplies dt by _DT_GROWTH after every _GROWTH_EVERY
# consecutively accepted steps.
_MAX_HALVINGS = 40
_DT_GROWTH = 1.5
_GROWTH_EVERY = 20


@dataclass(frozen=True)
class FlowOptions:
    """Time stepping controls.

    dt grows by the fixed factor 1.5 after every 20 consecutively accepted
    steps, capped at ``dt_max`` (default 1/(L(L+1)), inside the
    explicit-Euler stability region of the linearized flow at the unit
    sphere).  On convexity loss the step is halved and retried, at most 40
    times in a row.  A run stops as stationary when the relative
    change per unit time drops below ``stationarity_tol``, or at time
    ``t_final`` when that is set (used for shrinking experiments with
    renormalization off).  After a stationary stop the rescaled profile
    must satisfy the equation with sup-norm residual at most
    ``residual_check``; set it to None when running with a loose
    stationarity tolerance on purpose.
    """

    dt_init: float = 1e-3
    stationarity_tol: float = 1e-9
    max_steps: int = 100000
    renormalize: bool = True
    dt_max: float | None = None
    t_final: float | None = None
    residual_check: float | None = 1e-7

    def __post_init__(self):
        if self.dt_init <= 0.0:
            raise InvalidParameter(f"dt_init must be positive, got {self.dt_init}")
        if self.stationarity_tol <= 0.0:
            raise InvalidParameter(
                f"stationarity_tol must be positive, got {self.stationarity_tol}"
            )
        if self.max_steps < 1:
            raise InvalidParameter(f"max_steps must be >= 1, got {self.max_steps}")
        if self.dt_max is not None and self.dt_max <= 0.0:
            raise InvalidParameter(f"dt_max must be positive, got {self.dt_max}")
        if self.t_final is not None and self.t_final <= 0.0:
            raise InvalidParameter(f"t_final must be positive, got {self.t_final}")
        if self.residual_check is not None and self.residual_check <= 0.0:
            raise InvalidParameter(
                f"residual_check must be positive or None, got {self.residual_check}"
            )


@dataclass
class FlowResult:
    """Outcome of :func:`run_flow`.

    ``h`` is the final support function, already rescaled so that it
    solves h det(W) = f when the run stopped as stationary.  ``c_est`` is
    the stationarity constant measured before that rescaling.  ``reason``
    is "stationary" or "time".  ``rows`` holds one trace record
    (t, volume, residual_sup, min_h) per accepted step.
    """

    h: SupportFunction
    steps: int
    t_end: float
    c_est: float
    reason: str
    rows: list = field(repr=False, default_factory=list)

    def trace_csv(self) -> str:
        lines = ["t,volume,residual_sup,min_h"]
        for t, vol, res, hmin in self.rows:
            lines.append(f"{t!r},{vol!r},{res!r},{hmin!r}")
        return "\n".join(lines) + "\n"


def _volume_of(h: SupportFunction) -> float:
    return float(h.grid.weights @ (h.values * h.det_w)) / 3.0


def _euler_coeffs(h: SupportFunction, fvals: np.ndarray, lam: float,
                  dt: float) -> np.ndarray:
    """Coefficients of the Euler step h - dt * f/det(W) + dt * lam * h."""
    return h.grid.analyze_values(h.values - dt * fvals / h.det_w + dt * lam * h.values)


def flow_step(h: SupportFunction, f: DensityFunction, dt: float,
              renormalize: bool = True) -> SupportFunction:
    """One explicit Euler step of the (normalized) flow.

    Computes h' = h - dt * f/det(W) + dt * lambda(t) * h, projects back to
    the grid bandwidth and re-certifies convexity.  If the result is
    inadmissible the step is halved and retried; after 40 halvings a
    :class:`StepFailure` is raised.  With ``renormalize`` off the lambda
    term is dropped and the body shrinks.
    """
    if dt <= 0.0:
        raise InvalidParameter(f"dt must be positive, got {dt}")
    grid = h.grid
    fvals = f.values_on(grid)
    if renormalize:
        lam = float(grid.weights @ fvals) / (3.0 * _volume_of(h))
    else:
        lam = 0.0
    step = dt
    for _ in range(_MAX_HALVINGS + 1):
        try:
            return SupportFunction(grid, _euler_coeffs(h, fvals, lam, step))
        except ConvexityError:
            step *= 0.5
    raise StepFailure(
        f"flow step from dt={dt:g} remained inadmissible after "
        f"{_MAX_HALVINGS} halvings"
    )


def run_flow(f: DensityFunction, h0: SupportFunction | None = None,
             opts: FlowOptions | None = None, grid: SphericalGrid | None = None,
             snapshot_every: int = 0, snapshot_fn=None) -> FlowResult:
    """Run the normalized flow to stationarity (or to a fixed time).

    Starting from ``h0`` (default: the round sphere matching the mean of
    f), explicit Euler steps are taken with adaptive dt.  In the
    renormalized mode each accepted step has its translation component
    reflected and its volume rescaled to the initial volume, which turns
    the gauge's neutral directions into contracting ones without moving
    any stationary point.  A stationary profile satisfies
    h det(W) = c_est * f; the result is rescaled by c_est^(-1/3) so it
    solves the equation with constant 1, and the final sup-norm residual
    is verified to be at most 1e-7.  Both rescales derive their
    certificate from the scaling law (W scales by s, det W by s**2)
    rather than certifying the rescaled coefficients again.

    ``snapshot_fn(step, t, h)`` is invoked every ``snapshot_every``
    accepted steps when provided.
    """
    opts = opts or FlowOptions()
    if grid is None:
        grid = h0.grid if h0 is not None else build_grid()
    if h0 is None:
        mean = f.mean()
        if mean <= 0.0:
            raise InvalidParameter(f"density mean must be positive, got {mean:g}")
        h0 = SupportFunction.constant(grid, mean ** (1.0 / 3.0))
    else:
        require_same_grid(h0.grid, grid, "initial support function and flow grid")

    fvals = f.values_on(grid)
    f_total = float(grid.weights @ fvals)
    dt_cap = opts.dt_max if opts.dt_max is not None else 1.0 / (grid.L * (grid.L + 1))
    dt = min(opts.dt_init, dt_cap)
    h = h0
    v_target = _volume_of(h0)
    t = 0.0
    rows = []
    accepted_in_a_row = 0
    halvings_left = _MAX_HALVINGS
    steps_accepted = 0

    for _ in range(opts.max_steps):
        dt_step = dt
        if opts.t_final is not None:
            dt_step = min(dt_step, opts.t_final - t)
        lam = f_total / (3.0 * _volume_of(h)) if opts.renormalize else 0.0
        coeffs = _euler_coeffs(h, fvals, lam, dt_step)
        if opts.renormalize:
            # reflect the translation modes about their previous values
            coeffs[1:4] = 2.0 * h.coeffs[1:4] - coeffs[1:4]
        try:
            cand = SupportFunction(grid, coeffs)
        except ConvexityError:
            if halvings_left == 0:
                raise StepFailure(
                    f"flow step at t={t:g} remained inadmissible after "
                    f"{_MAX_HALVINGS} halvings"
                ) from None
            halvings_left -= 1
            dt *= 0.5
            accepted_in_a_row = 0
            continue
        if opts.renormalize:
            scale = (v_target / _volume_of(cand)) ** (1.0 / 3.0)
            cand = cand.scaled(scale)

        rate = float(np.max(np.abs(cand.values - h.values))) / (
            dt_step * float(np.max(np.abs(h.values))))
        t += dt_step
        steps_accepted += 1
        halvings_left = _MAX_HALVINGS
        vol = _volume_of(cand)
        c_here = float(grid.weights @ (cand.values * cand.det_w)) / f_total
        res = float(np.max(np.abs(cand.values * cand.det_w - c_here * fvals)))
        rows.append((t, vol, res, float(np.min(cand.values))))
        h = cand
        if snapshot_every > 0 and snapshot_fn is not None and \
                steps_accepted % snapshot_every == 0:
            snapshot_fn(steps_accepted, t, h)

        if opts.t_final is not None and t >= opts.t_final - 1e-15:
            return FlowResult(h=h, steps=steps_accepted, t_end=t, c_est=1.0,
                              reason="time", rows=rows)
        if rate <= opts.stationarity_tol:
            c_est = float(grid.weights @ (h.values * h.det_w)) / f_total
            h_final = h.scaled(c_est ** (-1.0 / 3.0))
            residual = float(np.max(np.abs(ma_residual(h_final, f).values)))
            if opts.residual_check is not None and residual > opts.residual_check:
                raise ConvergenceFailure(
                    f"stationary profile fails the equation: residual "
                    f"{residual:.3e} > {opts.residual_check:g}",
                    residual=residual, iterations=steps_accepted,
                )
            return FlowResult(h=h_final, steps=steps_accepted, t_end=t,
                              c_est=c_est, reason="stationary", rows=rows)

        accepted_in_a_row += 1
        if accepted_in_a_row >= _GROWTH_EVERY and dt < dt_cap:
            dt = min(dt * _DT_GROWTH, dt_cap)
            accepted_in_a_row = 0

    raise ConvergenceFailure(
        f"flow not stationary after {opts.max_steps} steps "
        f"(last rate above {opts.stationarity_tol:g})",
        residual=rows[-1][2] if rows else float("nan"),
        iterations=opts.max_steps,
    )
