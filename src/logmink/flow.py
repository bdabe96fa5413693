"""Normalized Gauss-curvature flow in support-function form.

The body with support function h moves with normal speed f/K, which for
support functions reads dh/dt = -f/det(W) with W = Hess h + h I.  The
normalized variant adds lambda(t) * h with

    lambda(t) = integral of f  /  (3 V(h)),

the unique multiple of h that preserves volume to first order, so round
spheres and their translates are genuine stationary points.  Stationary
profiles of the normalized flow solve h det(W) = c f for a constant c,
and :func:`run_flow` rescales its answer so that c = 1.

:func:`flow_step` and :func:`run_flow` take the same semi-implicit step
(first-order IMEX, Ascher, Ruuth and Wetton 1995).  The explicit increment

    a = analyze(dt * (lambda h - f/det W))

is damped degree by degree, its degree-l coefficients being divided by
1 + dt * kappa * l(l+1); that is, the step solves

    (1 - dt kappa Laplacian) (h' - h) = a,

a diagonal solve in harmonic space.  The linearized speed f/det W has the
principal part f/det(W)**2 * cof W : Hess, and the largest eigenvalue of
cof W is the largest eigenvalue of W, det W / min_eig W; so

    kappa = max over nodes of f / (det W * min_eig W)

bounds the principal coefficient everywhere.  On the frozen-coefficient
linearization the damped step therefore contracts every high degree for
every dt, where an explicit step is stable only for dt <= 1/(kappa l(l+1)).
That is why the default cap on dt is a constant (0.2, see
:class:`FlowOptions`) instead of the 1/(L(L+1)) an explicit step needs.  kappa is read in
O(n) from the certified support function and is the same for h -> s h with
f -> s**3 f, so the flow stays scale equivariant.  The damping is zero
where a is zero, so the stationary points are those of the explicit step.
Stationarity is measured on the undamped projection of a: the damped
increment shrinks the degree-l residual by 1/(1 + dt kappa l(l+1)) and
would report stationarity too early.

Both functions halve a step that loses convexity and retry it, at most 40
times in a row; the growth of dt in :func:`run_flow` is fixed too (by 1.5
after every 20 consecutively accepted steps).  :func:`run_flow` adds two
stabilizations on top of the step: the degree-1 (translation)
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
# consecutively accepted steps, up to _DT_MAX unless FlowOptions.dt_max is set.
_MAX_HALVINGS = 40
_DT_MAX = 0.2
_DT_GROWTH = 1.5
_GROWTH_EVERY = 20


def _require_positive_finite(name: str, value: float) -> None:
    if not (0.0 < value < np.inf):
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class FlowOptions:
    """Time stepping controls.

    dt grows by the fixed factor 1.5 after every 20 consecutively accepted
    steps, capped at ``dt_max`` (default 0.2 at every bandwidth).  The
    semi-implicit step damps the stiff Laplacian part of the speed, so no
    stability limit ties the cap to the bandwidth: at the unit sphere the
    damped step multiplies degree l >= 2 by
    (1 - dt (l(l+1) - 3)) / (1 + dt l(l+1)), inside (-1, 1) for every dt.
    The cap only bounds the explicit lower-order part (the +3 of the
    normalization) and the nonlinearity per step; since dt ramps up from
    ``dt_init``, a larger cap saves few steps.  On convexity loss the
    step is halved and retried, at most 40 times in a row.  A run stops as
    stationary when the undamped projected speed, relative to max |h|,
    drops below ``stationarity_tol`` (the damped increment would shrink the
    degree-l part by 1/(1 + dt kappa l(l+1)) and stop too early), or at time
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
        _require_positive_finite("dt_init", self.dt_init)
        _require_positive_finite("stationarity_tol", self.stationarity_tol)
        if self.max_steps < 1:
            raise InvalidParameter(f"max_steps must be >= 1, got {self.max_steps}")
        for name in ("dt_max", "t_final", "residual_check"):
            value = getattr(self, name)
            if value is not None:
                _require_positive_finite(name, value)


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


def _increment(h: SupportFunction, fvals: np.ndarray, lam: float,
               dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The explicit increment a = analyze(dt * (lam h - f/det W)) and its
    semi-implicit damping a_l / (1 + dt * kappa * l(l+1))."""
    grid = h.grid
    a = grid.analyze_values(dt * (lam * h.values - fvals / h.det_w))
    kappa = float(np.max(fvals / (h.det_w * h.min_eig_w)))
    return a, a / (1.0 - dt * kappa * grid._spec.lap_eig)


def flow_step(h: SupportFunction, f: DensityFunction, dt: float,
              renormalize: bool = True) -> SupportFunction:
    """One semi-implicit step of the (normalized) flow.

    Projects the explicit increment dt * (lambda(t) * h - f/det(W)) to the
    grid bandwidth, divides its degree-l coefficients by
    1 + dt * kappa * l(l+1) with kappa = max f / (det W * min_eig W), adds
    it to h and certifies convexity.  If the result is inadmissible the
    step is halved and retried; after 40 halvings a :class:`StepFailure`
    is raised.  With ``renormalize`` off the lambda
    term is dropped and the body shrinks.
    """
    _require_positive_finite("dt", dt)
    grid = h.grid
    fvals = f.values_on(grid)
    if renormalize:
        lam = float(grid.weights @ fvals) / (3.0 * _volume_of(h))
    else:
        lam = 0.0
    step = dt
    for _ in range(_MAX_HALVINGS + 1):
        _, delta = _increment(h, fvals, lam, step)
        try:
            return SupportFunction(grid, h.coeffs + delta)
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
    f), semi-implicit steps (see :func:`flow_step`) are taken with adaptive
    dt.  In the renormalized mode each accepted step has its translation
    increment negated and its volume rescaled to the initial volume, which
    turns the gauge's neutral directions into contracting ones without
    moving any stationary point.  The run is stationary once the undamped
    projected speed max |lambda h - f/det W| / max |h| at the start of an
    accepted step drops below ``opts.stationarity_tol``.  A stationary
    profile satisfies h det(W) = c_est * f; the result is rescaled by
    c_est^(-1/3) so it solves the equation with constant 1, and the final
    sup-norm residual is verified to be at most 1e-7.  Both rescales derive their
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
    dt_cap = opts.dt_max if opts.dt_max is not None else _DT_MAX
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
        a, delta = _increment(h, fvals, lam, dt_step)
        if opts.renormalize:
            # reflect the translation modes about their previous values
            delta[1:4] = -delta[1:4]
        try:
            cand = SupportFunction(grid, h.coeffs + delta)
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

        rate = float(np.max(np.abs(grid.synthesize_coeffs(a)))) / (
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
