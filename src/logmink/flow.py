"""Normalized Gauss-curvature flow in support-function form.

The body with support function h moves with normal speed f/K, which for
support functions reads dh/dt = -f/det(W) with W = Hess h + h I.  The
normalized variant adds lambda(t) * h with

    lambda(t) = integral of f  /  (3 V(h)),

the unique multiple of h that preserves volume to first order, so round
spheres and their translates are genuine stationary points.  Stationary
profiles of the normalized flow solve h det(W) = c f for a constant c,
and :func:`run_flow` rescales its answer so that c = 1.

:func:`run_flow` takes semi-implicit steps (first-order IMEX, Ascher,
Ruuth and Wetton 1995).  The explicit increment

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

A step that loses convexity is halved and retried, at most 40 times in a
row; dt grows by the fixed factor 1.5 after every 20 consecutively accepted
steps.  The normalized run adds two stabilizations on top of the step: the
degree-1 (translation) component of each step is reflected about its
previous value, and the iterate is rescaled to keep the volume exactly
constant.  Both operations fix every stationary point of the step map while
damping the neutral and weakly unstable directions of the
volume-preserving gauge, which otherwise let the center of mass drift.  The
rescale h -> s h scales W by s and det W by s**2, so its certificate is
derived from the step's certificate by that scaling law
(:meth:`SupportFunction.scaled`) instead of being recomputed, and each
accepted step is certified once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, ConvexityError, StepFailure
from .grid import SphericalGrid, _csv_text, _require_positive_finite
from .solver import (
    DensityFunction,
    SupportFunction,
    _aliasing_floor_note,
    _initial_iterate,
    _mass,
    ma_residual,
)

# Step control: a run takes at most _MAX_STEPS steps, a rejected step is
# halved at most _MAX_HALVINGS times in a row, and run_flow multiplies dt by
# _DT_GROWTH after every _GROWTH_EVERY consecutively accepted steps, up to
# FlowOptions.dt_max (default _DT_MAX).
_MAX_STEPS = 100000
_MAX_HALVINGS = 40
_DT_MAX = 0.2
_DT_GROWTH = 1.5
_GROWTH_EVERY = 20


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
    ``dt_init``, a larger cap saves few steps.  The slow 20-step cadence
    is what keeps elongated starts admissible: from the (1, 1, 3)
    ellipsoid with f = 1 at L = 16 and 32, growing dt after every
    accepted step, or every second one, loses convexity for 40 halvings
    in a row, where the default reaches the sphere.  On convexity loss the
    step is halved and retried, at most 40 times in a row.  A run stops as
    stationary when the undamped projected speed, relative to max |h|,
    drops below ``stationarity_tol`` (the damped increment would shrink the
    degree-l part by 1/(1 + dt kappa l(l+1)) and stop too early), or at time
    ``t_final`` when that is set (used for shrinking experiments with
    renormalization off).  After a stationary stop the rescaled profile
    must satisfy the equation with sup-norm residual at most
    ``residual_check`` times the mean density (a relative bound, like
    :class:`SolveOptions` ``tolerance``); set it to None when running with
    a loose stationarity tolerance on purpose.
    """

    dt_init: float = 1e-3
    stationarity_tol: float = 1e-9
    renormalize: bool = True
    dt_max: float = _DT_MAX
    t_final: float | None = None
    residual_check: float | None = 1e-7

    def __post_init__(self):
        for name in ("dt_init", "stationarity_tol", "dt_max"):
            _require_positive_finite(name, getattr(self, name))
        for name in ("t_final", "residual_check"):
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
    (t, volume, residual_sup, min_h) per accepted step, so ``steps`` is
    their count.
    """

    h: SupportFunction
    t_end: float
    c_est: float
    reason: str
    rows: list = field(repr=False)

    @property
    def steps(self) -> int:
        return len(self.rows)

    def trace_csv(self) -> str:
        return _csv_text("t,volume,residual_sup,min_h", self.rows)


def _increment(h: SupportFunction, fvals: np.ndarray, lam: float,
               dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The explicit increment a = analyze(dt * (lam h - f/det W)) and its
    semi-implicit damping a_l / (1 + dt * kappa * l(l+1))."""
    grid = h.grid
    a = grid.analyze_values(dt * (lam * h.values - fvals / h.det_w))
    kappa = float((fvals / (h.det_w * h.min_eig_w)).max())
    return a, grid._damped(a, dt * kappa)


def run_flow(f: DensityFunction, h0: SupportFunction | None = None,
             opts: FlowOptions | None = None, grid: SphericalGrid | None = None,
             snapshot_fn=None) -> FlowResult:
    """Run the normalized flow to stationarity (or to a fixed time).

    Starting from ``h0`` (default: the round sphere matching the mean of
    f, on ``grid`` or the bandwidth-16 grid), the semi-implicit steps of
    the module docstring are taken with adaptive dt; after 40 halvings in
    a row :class:`StepFailure` is raised, and a run with no stop after
    100000 steps, halved ones included, raises :class:`ConvergenceFailure`.  With ``opts.renormalize`` off
    the lambda term, the reflection and the rescale are dropped and the
    body shrinks.  The run is stationary once the undamped projected speed
    max |lambda h - f/det W| / max |h| at the start of an accepted step
    drops below ``opts.stationarity_tol``.  A stationary profile satisfies
    h det(W) = c_est * f; the result is rescaled by c_est^(-1/3) so it
    solves the equation with constant 1, and its sup-norm residual is
    checked against ``opts.residual_check``.  Besides the volume that the
    rescale needs, the mass integral of h det W is taken once per accepted
    step, after the rescale; it gives the step's volume, c_est and the
    next step's lambda.

    ``snapshot_fn(step, t, h)``, when given, is called after every
    accepted step, numbered from 1; the caller picks the steps it keeps.
    """
    opts = opts or FlowOptions()
    h = _initial_iterate(f, h0, grid)
    grid = h.grid

    fvals = f.values_on(grid)
    f_total = float(grid.weights @ fvals)
    dt = min(opts.dt_init, opts.dt_max)
    vol = v_target = _mass(h) / 3.0
    t = 0.0
    rows = []
    accepted_in_a_row = 0
    halvings_left = _MAX_HALVINGS

    for _ in range(_MAX_STEPS):
        dt_step = dt
        if opts.t_final is not None:
            dt_step = min(dt_step, opts.t_final - t)
        lam = f_total / (3.0 * vol) if opts.renormalize else 0.0
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
            scale = (v_target / (_mass(cand) / 3.0)) ** (1.0 / 3.0)
            cand = cand.scaled(scale)

        rate = float(np.abs(grid.synthesize_coeffs(a)).max()) / (dt_step * h.h_sup())
        t += dt_step
        halvings_left = _MAX_HALVINGS
        mass = _mass(cand)
        vol = mass / 3.0
        c_est = mass / f_total
        res = float(np.abs(cand.values * cand.det_w - c_est * fvals).max())
        rows.append((t, vol, res, cand.h_min()))
        h = cand
        if snapshot_fn is not None:
            snapshot_fn(len(rows), t, h)

        if opts.t_final is not None and t >= opts.t_final - 1e-15:
            return FlowResult(h=h, t_end=t, c_est=1.0, reason="time", rows=rows)
        if rate <= opts.stationarity_tol:
            h_final = h.scaled(c_est ** (-1.0 / 3.0))
            residual_values = ma_residual(h_final, f).values
            residual = float(np.max(np.abs(residual_values)))
            if (opts.residual_check is not None
                    and residual > opts.residual_check * f.mean()):
                projected = float(np.max(np.abs(grid.analyze_values(residual_values))))
                raise ConvergenceFailure(
                    f"stationary profile fails the equation: residual "
                    f"{residual:.3e} > {opts.residual_check:g} * mean f"
                    + _aliasing_floor_note(residual, projected,
                                           opts.residual_check * f.mean(), grid.L,
                                           "raise --grid-L, or loosen the API option "
                                           "FlowOptions.residual_check"),
                    residual=residual, iterations=len(rows),
                )
            return FlowResult(h=h_final, t_end=t, c_est=c_est, reason="stationary",
                              rows=rows)

        accepted_in_a_row += 1
        if accepted_in_a_row >= _GROWTH_EVERY and dt < opts.dt_max:
            dt = min(dt * _DT_GROWTH, opts.dt_max)
            accepted_in_a_row = 0

    raise ConvergenceFailure(
        f"flow not stationary after {_MAX_STEPS} steps "
        f"(last rate above {opts.stationarity_tol:g})",
        residual=rows[-1][2] if rows else float("nan"),
        iterations=_MAX_STEPS,
    )
