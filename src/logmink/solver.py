"""Damped Newton solver for the support-function Monge-Ampere equation.

The equation solved on the unit sphere is

    h * det(W) = f,      W = Hess h + h I,

with ``Hess`` the covariant Hessian in the node frame and ``f`` a positive
density.  ``W`` is the reversed second fundamental form of the convex body
with support function ``h``; positive definiteness of ``W`` at every node is
the discrete convexity certificate, and ``det W`` is the reciprocal Gauss
curvature at the boundary point with outward normal at the node.

The Newton iteration works on harmonic coefficients: each step solves the
Galerkin projection of the linearized equation, one row per coefficient,
matrix-free by GMRES on the O(L**3) spectral transforms, then backtracks
along the step until the iterate keeps ``h`` positive, keeps ``W`` positive
definite, and decreases the residual sup-norm.  Every object here holds its
harmonic coefficients, so a certificate and a Krylov product each take one
transform pass from the coefficients to the node values and the Hessian
(:meth:`SphericalGrid.hessian_components`), with no analysis of node values
in between.  The dense Galerkin matrix is assembled at most once per
solve, only for the reported condition number, and not at all when
:class:`SolveOptions` ``report_condition`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ConvexityError, InvalidParameter
from .grid import (
    DEFAULT_BANDWIDTH,
    HarmonicCoeffs,
    ScalarField,
    SphericalGrid,
    _csv_text,
    _harmonic_sup,
    _read_only,
    _require_fits,
    _require_integer,
    _require_positive_finite,
    build_grid,
    coeff_count,
    lm_index,
    require_same_grid,
)

__all__ = [
    "SupportFunction",
    "DensityFunction",
    "SolveOptions",
    "NewtonResult",
    "ma_residual",
    "linearized_operator",
    "newton_solve",
    "holder_proxy_seminorm",
]

# Constants of :func:`newton_solve`: the iteration cap, and for the line
# search the step shrink factor, the smallest step tried before giving up,
# and the floor that every accepted iterate must keep ``min h`` above.
_MAX_ITERATIONS = 50
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 2.0 ** -20
_POSITIVITY_FLOOR = 1e-8
# GMRES stops a Newton step once its residual is below this fraction of the
# right-hand side's 2-norm.
_KRYLOV_RTOL = 1e-13


def _zonal_coefficient(name: str, value: float) -> float:
    """The l = 0 coefficient of the constant function ``value``.

    The value and its coefficient must both be positive and finite.  The
    product is taken in Python floats, which overflow to inf silently where
    numpy scalars warn.
    """
    _require_positive_finite(name, value)
    zonal = float(value) * float(np.sqrt(4.0 * np.pi))
    _require_positive_finite(f"zonal coefficient of {name} {value}", zonal)
    return zonal


def _curvature_data(values, h11, h12, h22):
    """Components of W = Hess h + h I, its determinant and minimal eigenvalue."""
    w11 = h11 + values
    w22 = h22 + values
    det = w11 * w22 - h12 * h12
    mean = 0.5 * (w11 + w22)
    spread = np.sqrt(0.25 * (w11 - w22) ** 2 + h12 * h12)
    return w11, h12, w22, det, mean - spread


def _require_positive(values: np.ndarray) -> None:
    """Raise :class:`ConvexityError` unless every node value is positive and finite."""
    # written as not (min > 0 and max < inf) so that NaN and inf fail too
    if not (values.min() > 0.0 and values.max() < np.inf):
        node = int(np.argmin(np.where(np.isfinite(values), values, -np.inf)))
        raise ConvexityError(
            f"support function is not positive and finite at node {node} "
            f"(value {values[node]:.3e})",
            node=node,
        )


def _require_positive_definite(min_eig: np.ndarray) -> None:
    """Raise :class:`ConvexityError` unless ``W`` is positive definite at every node."""
    if not (min_eig.min() > 0.0):
        node = int(np.argmin(min_eig))
        raise ConvexityError(
            f"curvature matrix W is not positive definite at node {node} "
            f"(minimal eigenvalue {min_eig[node]:.3e})",
            node=node,
        )


class SupportFunction:
    """Support function of a smooth convex body, certified on construction.

    Stores node values together with harmonic coefficients and the curvature
    data of ``W = Hess h + h I``.  Construction fails with
    :class:`ConvexityError` if ``h`` is not strictly positive and finite or
    ``W`` is not positive definite at some node; the error names an
    offending node.  Positivity is checked first, so a non-positive or
    non-finite ``h`` is rejected before its Hessian is used.  The values and
    the Hessian come from the coefficients in one transform pass
    (:meth:`SphericalGrid.hessian_components`).
    """

    def __init__(self, grid: SphericalGrid, coeffs: np.ndarray):
        coeffs = _read_only(coeffs)
        if coeffs.shape != (grid.n_coeffs,):
            raise InvalidParameter(
                f"support function on bandwidth {grid.L} needs {grid.n_coeffs} "
                f"coefficients, got shape {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            # Every node value is then non-finite, so the values alone fail;
            # the Hessian pass would multiply inf by the table's zeros.
            _require_positive(grid.synthesize_coeffs(coeffs))
        values, h11, h12, h22 = grid.hessian_components(coeffs)
        _require_positive(values)
        w11, w12, w22, det, min_eig = _curvature_data(values, h11, h12, h22)
        _require_positive_definite(min_eig)
        self._store(grid, coeffs, values, w11, w12, w22, det, min_eig)

    def _store(self, grid, coeffs, values, w11, w12, w22, det, min_eig) -> None:
        # freezes in place: every array here is the instance's own
        self.grid = grid
        self.coeffs = coeffs
        self.values = values
        self.w11, self.w12, self.w22 = w11, w12, w22
        self.det_w = det
        self.min_eig_w = min_eig
        for arr in (self.coeffs, self.values, self.w11, self.w12, self.w22,
                    self.det_w, self.min_eig_w):
            arr.setflags(write=False)

    def scaled(self, factor: float) -> "SupportFunction":
        """The dilate ``factor * h``, certified without a transform.

        Scaling ``h`` by ``s > 0`` scales ``W = Hess h + h I`` and its
        eigenvalues by ``s`` and ``det W`` by ``s**2``, so every cached array
        is scaled directly.  The positivity tests still run on the scaled
        arrays, because the products can underflow or overflow.
        """
        factor = float(factor)
        _require_positive_finite("scale factor", factor)
        with np.errstate(over="ignore"):  # an inf value fails _require_positive
            values = factor * self.values
            min_eig = factor * self.min_eig_w
        _require_positive(values)
        _require_positive_definite(min_eig)
        out = object.__new__(type(self))
        out._store(self.grid, factor * self.coeffs, values, factor * self.w11,
                   factor * self.w12, factor * self.w22,
                   factor * factor * self.det_w, min_eig)
        return out

    @classmethod
    def from_field(cls, field: ScalarField) -> "SupportFunction":
        """Certify node values as a support function.

        The values must be band-limited on their grid (synthesized from
        coefficients or sampled from a smooth body); data that the harmonic
        projection does not reproduce is rejected rather than silently
        smoothed.
        """
        coeffs = field.grid.analyze_values(field.values)
        back = field.grid.synthesize_coeffs(coeffs)
        scale = 1.0 + np.max(np.abs(field.values))
        if np.max(np.abs(back - field.values)) > 1e-8 * scale:
            raise InvalidParameter(
                "field is not band-limited on its grid; cannot certify it "
                "as a support function"
            )
        return cls(field.grid, coeffs)

    @classmethod
    def constant(cls, grid: SphericalGrid, value: float) -> "SupportFunction":
        """The sphere of radius ``value`` about the origin."""
        c = np.zeros(grid.n_coeffs)
        c[0] = _zonal_coefficient("constant support value", value)
        return cls(grid, c)

    @property
    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.values)

    def h_min(self) -> float:
        return float(self.values.min())

    def h_sup(self) -> float:
        return float(np.abs(self.values).max())


class DensityFunction:
    """Positive density on the sphere, stored as harmonic coefficients.

    Construction synthesizes ``f`` on its check grid (``grid``, else
    bandwidth ``max(L, 4)``) and refuses it unless every node value is
    positive and finite; ``lam_lo`` and ``lam_hi`` are the least and greatest
    node value, the measured range of the paper's class ``1/lam <= f <= lam``.
    For a Holder-type regularity proxy, apply :func:`holder_proxy_seminorm`
    to :meth:`field_on`; it compares nodes on nearby rings only, in O(n)
    memory and O(n L) time for n nodes.
    """

    def __init__(self, coeffs: HarmonicCoeffs, grid: SphericalGrid | None = None):
        self.coeffs = coeffs
        check_grid = grid if grid is not None else build_grid(max(coeffs.L, 4))
        vals = self.values_on(check_grid)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        # written as not (lo > 0 and hi < inf) so that NaN and inf fail too
        if not (lo > 0.0 and hi < np.inf):
            raise InvalidParameter(f"density is not positive (min {lo:.6g})" if not lo > 0.0
                                   else f"density is not finite (max {hi:.6g})")
        self.lam_lo, self.lam_hi = lo, hi

    @classmethod
    def constant(cls, value: float) -> "DensityFunction":
        return cls(HarmonicCoeffs(0, np.array([_zonal_coefficient("constant density", value)])))

    @classmethod
    def from_harmonics(cls, terms, grid: SphericalGrid | None = None) -> "DensityFunction":
        """Density ``1 + sum amp * Y_lm / sup|Y_lm|``.

        Each harmonic is scaled to unit sup-norm over the whole sphere (not
        just the grid nodes) before its amplitude is applied, so
        ``(1, 0, 0.1)`` produces exactly ``1 + 0.1 (u . e3)``.
        """
        try:
            triples = [(l, m, float(amp)) for l, m, amp in terms]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(
                f"harmonic terms must be (l, m, amplitude) triples, got {terms!r}"
            ) from exc
        terms = [(_require_integer("harmonic degree l", l),
                  _require_integer("harmonic order m", m), amp) for l, m, amp in triples]
        if not terms:
            raise InvalidParameter("at least one (l, m, amplitude) term required")
        Lmax = max(l for l, _, _ in terms)
        if grid is None:
            grid = build_grid(max(4, Lmax))
        _require_fits(Lmax, grid.L)
        c = np.zeros(coeff_count(Lmax))
        for l, m, amp in terms:
            c[lm_index(l, m)] += amp / _harmonic_sup(l, m)
        c[0] += _zonal_coefficient("constant density", 1.0)
        return cls(HarmonicCoeffs(Lmax, c), grid=grid)

    def values_on(self, grid: SphericalGrid) -> np.ndarray:
        return grid.synthesize_coeffs(self.coeffs.embedded(grid.L).values)

    def field_on(self, grid: SphericalGrid) -> ScalarField:
        return ScalarField(grid, self.values_on(grid))

    def mean(self) -> float:
        """Average of f over the sphere (from the zonal coefficient)."""
        return float(self.coeffs.values[0]) / np.sqrt(4.0 * np.pi)


def holder_proxy_seminorm(field: ScalarField, alpha: float = 0.5) -> float:
    """Regularity proxy: sup deviation from 1 plus a difference quotient.

    Computes ``max|f - 1|`` plus the maximum of ``|f(x) - f(y)| / d(x,y)**alpha``
    over node pairs at geodesic distance ``0 < d <= pi / L``.  A bounded value
    under grid refinement indicates Holder-alpha regularity at the grid scale;
    the default exponent is 1/2.

    Two nodes at distance ``d`` lie on rings at most ``d`` apart in
    colatitude, so each ring is compared only with the rings within
    ``pi / L`` of it (widened by a rounding margin; the distance test
    decides): the same pairs as over all node pairs, in O(n) memory.
    """
    grid = field.grid
    limit = np.pi / grid.L
    nodes = grid.nodes.reshape(grid.nlat, grid.nlon, 3)
    values = field.values.reshape(grid.nlat, grid.nlon)
    quotient = 0.0  # quotients are >= 0, so no pair in range leaves max|f - 1|
    for j in range(grid.nlat):
        near = np.abs(grid.theta - grid.theta[j]) <= limit * (1.0 + 1e-9)
        d = np.arccos(np.clip(nodes[j] @ nodes[near].reshape(-1, 3).T, -1.0, 1.0))
        mask = (d > 0.0) & (d <= limit)
        if mask.any():
            diffs = np.abs(values[j][:, None] - values[near].ravel()[None, :])
            quotient = max(quotient, float(np.max(diffs[mask] / d[mask] ** alpha)))
    return float(np.max(np.abs(field.values - 1.0)) + quotient)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the damped Newton iteration.

    Newton takes at most 50 iterations; the line search halves the step
    down to ``2**-20`` and requires ``min h > 1e-8`` of every accepted
    iterate; those rules are fixed.

    Attributes
    ----------
    tolerance : float
        Relative residual at which the solve is accepted:
        ``sup |h det W - f| <= tolerance * mean f``.  Relative to the mean
        density, so the test is invariant under the scaling f -> s^3 f,
        h -> s h; for mean-1 densities it is the absolute sup-norm bound.
    report_condition : bool
        Whether :func:`newton_solve` computes ``condition_number``.  Off,
        it assembles no dense Galerkin matrix and returns None there; the
        iteration and the solution are the same.  The experiment suites
        turn it off, since no suite output reads the value.  The option is
        temporary: once the value is computed on its first read instead
        (ROADMAP item 2), it goes.
    """

    tolerance: float = 1e-10
    report_condition: bool = True

    def __post_init__(self):
        _require_positive_finite("tolerance", self.tolerance)
        if not isinstance(self.report_condition, bool):
            raise InvalidParameter(
                f"report_condition must be True or False, got {self.report_condition!r}"
            )


@dataclass
class NewtonResult:
    """Outcome of :func:`newton_solve`.

    ``rows`` holds one ``(iter, residual_sup, min_h, min_eig_W, step_size)``
    tuple per iteration (iteration 0 describes the initial iterate with step
    size 0), matching the CSV report schema of :meth:`report_csv`;
    ``iterations`` and ``residual_sup`` read its last row.
    ``condition_number`` is the 1-norm conditioning of the last linearized
    system solved, the Jacobian at the iterate before the final step (not at
    the returned ``h``; it is at ``h`` only when no step was taken), recorded
    so ill-conditioning is visible rather than assumed away.  It is None
    when :class:`SolveOptions` ``report_condition`` is off.  The value is
    exact and dear: it assembles the dense C x C Galerkin matrix, C the
    number of coefficients, and inverts it, which at L = 48 (C = 2401)
    takes about 1 s and raises the peak RSS by about four C x C float64
    buffers (about 184 MB), far more than the solve itself.
    """

    h: SupportFunction
    rows: list
    condition_number: float | None

    @property
    def iterations(self) -> int:
        return self.rows[-1][0]

    @property
    def residual_sup(self) -> float:
        return self.rows[-1][1]

    def report_csv(self) -> str:
        return _csv_text("iter,residual_sup,min_h,min_eig_W,step_size", self.rows)


def ma_residual(h: SupportFunction, f: DensityFunction) -> ScalarField:
    """Monge-Ampere residual field ``h det(W) - f`` at the grid nodes.

    ``h`` is certified, so ``W`` is positive definite at every node.
    """
    return ScalarField(h.grid, h.values * h.det_w - f.values_on(h.grid))


def _mass(h: SupportFunction) -> float:
    """The integral of h det W: the total mass of the body's cone-volume
    measure, three times its volume."""
    return float(h.grid.weights @ (h.values * h.det_w))


def _linearization_fields(h: SupportFunction):
    """Node fields ``(det W + h (w11 + w22), h w22, -2 h w12, h w11)``: the
    linearization at ``h`` is ``c0 phi + c11 H11 phi + c12 H12 phi + c22 H22 phi``."""
    return (h.det_w + h.values * (h.w11 + h.w22), h.values * h.w22,
            -2.0 * h.values * h.w12, h.values * h.w11)


def _linearization(h: SupportFunction, coeffs: np.ndarray) -> np.ndarray:
    """Node values of the linearization at ``h`` applied to the harmonic
    expansion ``coeffs``: one transform pass gives the perturbation and its
    Hessian."""
    c0, c11, c12, c22 = _linearization_fields(h)
    p, p11, p12, p22 = h.grid.hessian_components(coeffs)
    return c0 * p + c11 * p11 + c12 * p12 + c22 * p22


def linearized_operator(h: SupportFunction, phi: ScalarField) -> ScalarField:
    """Derivative of ``h det(W(h))`` at ``h`` applied to a perturbation.

    The derivative is ``det(W) phi + h U : (Hess phi + phi I)``, ``U`` the
    cofactor matrix of ``W``, expanded in the fields the Newton Jacobian
    projects.  At the unit sphere it is the Helmholtz operator ``Lap phi + 3 phi``.
    ``phi`` is analyzed once, so it is treated as band-limited.
    """
    require_same_grid(h.grid, phi.grid, "support function and perturbation")
    return ScalarField(h.grid, _linearization(h, h.grid.analyze_values(phi.values)))


def _aliasing_floor_note(nodal: float, projected: float, threshold: float,
                         L: int, remedy: str) -> str:
    """Message suffix for a residual stuck at the bandwidth's aliasing floor.

    A residual whose projection onto the harmonics of degree <= L (the
    Galerkin residual) is at or below the threshold while its node values
    are not cannot be reduced on this grid: what is left is the aliasing of
    the nonlinear term beyond the bandwidth.  Returns "" when the projection
    is still above the threshold.
    """
    if projected > threshold:
        return ""
    return (f": the nodal residual {nodal:.3e} is above the tolerance, but the "
            f"Galerkin residual (its projection onto degrees <= {L}) reaches "
            f"{projected:.3e}, so the aliasing floor of bandwidth {L} has been "
            f"reached; {remedy}")


def _jacobian_matrix(h: SupportFunction) -> np.ndarray:
    """Galerkin matrix of the linearized operator at ``h`` in coefficient space."""
    return h.grid._galerkin_matrix(*_linearization_fields(h))


def _solve_newton_system(h: SupportFunction, rhs: np.ndarray) -> np.ndarray:
    """The Newton step: solve the Galerkin system ``J(h) delta = rhs`` by GMRES.

    ``J(h) d`` is applied matrix-free as the projection of the
    linearization at ``h`` applied to the expansion ``d``; one transform
    pass from ``d`` gives its values and Hessian.  The right
    preconditioner ``(1 + Lap/3)^-1`` inverts the linearization
    ``r**2 (Lap + 3)`` at a round sphere up to a scalar factor, which leaves
    the GMRES iterates unchanged.  Givens rotations keep the projected
    least-squares problem triangular; there is no restart, so at most
    ``len(rhs)`` iterations reach the exact solution.  A zero pivot of that
    triangle raises :class:`numpy.linalg.LinAlgError`.
    """
    grid = h.grid

    def precondition(v):
        return grid._damped(v, -1.0 / 3.0)

    def apply(v):
        return grid.analyze_values(_linearization(h, precondition(v)))

    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs)
    basis = [rhs / beta]
    columns, rotations, g = [], [], [beta]
    while len(columns) < rhs.size:
        w = apply(basis[-1])
        col = []
        for v in basis:  # modified Gram-Schmidt
            col.append(float(v @ w))
            w = w - col[-1] * v
        col.append(float(np.linalg.norm(w)))
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        rho = float(np.hypot(col[-2], col[-1]))
        c, s = (col[-2] / rho, col[-1] / rho) if rho > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        g.append(-s * g[-1])
        g[-2] *= c
        col[-2] = rho
        columns.append(col[:-1])
        if abs(g[-1]) <= _KRYLOV_RTOL * beta:  # also when col[-1] == 0, as s == 0
            break
        basis.append(w / col[-1])
    k = len(columns)
    triangle = np.zeros((k, k))
    for j, col in enumerate(columns):
        triangle[:j + 1, j] = col
    y = np.linalg.solve(triangle, g[:k])
    return precondition(np.column_stack(basis[:k]) @ y)


def _initial_iterate(f: DensityFunction, h0: SupportFunction | None,
                     grid: SphericalGrid | None) -> SupportFunction:
    """The start of :func:`newton_solve` and ``run_flow``: ``h0`` (its grid
    must match an explicit ``grid``), else the round sphere (mean f)^(1/3)
    on ``grid``, by default the bandwidth-16 grid."""
    if h0 is not None:
        if grid is not None:
            require_same_grid(grid, h0.grid, "explicit grid and initial iterate")
        return h0
    if grid is None:
        grid = build_grid(DEFAULT_BANDWIDTH)
    return SupportFunction.constant(grid, f.mean() ** (1.0 / 3.0))


def newton_solve(f: DensityFunction, h0: SupportFunction | None = None,
                 opts: SolveOptions | None = None,
                 grid: SphericalGrid | None = None) -> NewtonResult:
    """Solve ``h det(W) = f`` by damped Newton iteration.

    Each step solves the Galerkin linearization matrix-free by preconditioned
    GMRES (:func:`_solve_newton_system`); the dense Galerkin matrix is
    assembled once, after convergence, for ``condition_number``, and only
    when ``opts.report_condition`` is on.

    Parameters
    ----------
    f : DensityFunction
        Right-hand side density.
    h0 : SupportFunction, optional
        Initial iterate.  Defaults to the constant ``(mean f)**(1/3)``, the
        exact solution when ``f`` is constant.
    opts : SolveOptions, optional
    grid : SphericalGrid, optional
        Grid to solve on when no initial iterate fixes one; defaults to the
        bandwidth-16 grid.

    Returns
    -------
    NewtonResult
        With ``h`` satisfying ``sup |h det W - f| <= opts.tolerance * f.mean()``.

    Raises
    ------
    ConvergenceFailure
        If the iteration cap is hit, a linearized system is singular or
        backtracking cannot find an admissible decreasing step; carries the
        last residual.
    InvalidParameter
        If ``h0`` is omitted and the mean of ``f`` is not positive.
    """
    opts = opts or SolveOptions()
    h = _initial_iterate(f, h0, grid)
    work_grid = h.grid
    fv = f.values_on(work_grid)
    threshold = opts.tolerance * f.mean()
    residual = h.values * h.det_w - fv
    res_sup = float(np.abs(residual).max())
    rows = [(0, res_sup, float(h.values.min()), float(h.min_eig_w.min()), 0.0)]
    prev = h  # the iterate the last step was solved at

    for it in range(1, _MAX_ITERATIONS + 1):
        if res_sup <= threshold:
            break
        prev = h
        rhs = -work_grid.analyze_values(residual)
        try:
            delta = _solve_newton_system(h, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(
                f"linearized system is singular at iteration {it}: {exc}",
                residual=res_sup, iterations=it - 1,
            ) from exc

        step = 1.0
        accepted = False
        full_step_res = None
        while step >= _MIN_STEP:
            try:
                cand = SupportFunction(work_grid, h.coeffs + step * delta)
            except ConvexityError:
                cand = None
            if cand is not None and cand.h_min() > _POSITIVITY_FLOOR:
                cand_res = cand.values * cand.det_w - fv
                cand_sup = float(np.abs(cand_res).max())
                if cand_sup < res_sup:
                    h, residual, res_sup = cand, cand_res, cand_sup
                    accepted = True
                    break
                if step == 1.0:
                    full_step_res = cand_res
            step *= _BACKTRACK_FACTOR
        if not accepted:
            # The floor shows in the Galerkin residual of h, or of the full
            # step when that step lands on the floor but raises the nodal one.
            projected = float(np.max(np.abs(rhs)))
            if full_step_res is not None:
                projected = min(projected, float(np.max(np.abs(
                    work_grid.analyze_values(full_step_res)))))
            raise ConvergenceFailure(
                f"backtracking failed below step {_MIN_STEP} at iteration {it}"
                + _aliasing_floor_note(res_sup, projected, threshold, work_grid.L,
                                       "raise --grid-L or loosen --tol"),
                residual=res_sup, iterations=it,
            )
        rows.append((it, res_sup, float(h.values.min()), float(h.min_eig_w.min()), step))

    if not res_sup <= threshold:
        raise ConvergenceFailure(
            f"Newton did not reach tolerance {opts.tolerance:.3e} relative to mean f in "
            f"{_MAX_ITERATIONS} iterations (residual {res_sup:.3e})",
            residual=res_sup, iterations=_MAX_ITERATIONS,
        )
    # the 1-norm condition number of the last Galerkin matrix solved
    condition = (float(np.linalg.cond(_jacobian_matrix(prev), 1))
                 if opts.report_condition else None)
    return NewtonResult(h=h, rows=rows, condition_number=condition)
