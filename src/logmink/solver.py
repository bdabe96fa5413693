"""Damped Newton solver for the support-function Monge-Ampere equation.

The equation solved on the unit sphere is

    h * det(W) = f,      W = Hess h + h I,

with ``Hess`` the covariant Hessian in the node frame and ``f`` a positive
density.  ``W`` is the reversed second fundamental form of the convex body
with support function ``h``; positive definiteness of ``W`` at every node is
the discrete convexity certificate, and ``det W`` is the reciprocal Gauss
curvature at the boundary point with outward normal at the node.

The Newton iteration works on harmonic coefficients: each step solves the
Galerkin projection of the linearized equation, a dense square system with
one row per coefficient, then backtracks along the step until the iterate
keeps ``h`` positive, keeps ``W`` positive definite, and decreases the
residual sup-norm.
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
    _theta_basis,
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
    "check_convexity",
    "newton_solve",
    "holder_proxy_seminorm",
]

# Line-search constants of :func:`newton_solve`: the step shrink factor, the
# smallest step tried before giving up, and the floor that every accepted
# iterate must keep ``min h`` above.
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 2.0 ** -20
_POSITIVITY_FLOOR = 1e-8


def _curvature_data(grid: SphericalGrid, values: np.ndarray):
    """Components of W = Hess h + h I, its determinant and minimal eigenvalue."""
    h11, h12, h22 = grid.hessian_components(values)
    w11 = h11 + values
    w22 = h22 + values
    det = w11 * w22 - h12 * h12
    mean = 0.5 * (w11 + w22)
    spread = np.sqrt(0.25 * (w11 - w22) ** 2 + h12 * h12)
    return w11, h12, w22, det, mean - spread


def _require_positive(values: np.ndarray) -> None:
    """Raise :class:`ConvexityError` unless every node value is positive and finite."""
    # written as not (min > 0 and max < inf) so that NaN and inf fail too
    if not (np.min(values) > 0.0 and np.max(values) < np.inf):
        node = int(np.argmin(np.where(np.isfinite(values), values, -np.inf)))
        raise ConvexityError(
            f"support function is not positive and finite at node {node} "
            f"(value {values[node]:.3e})",
            node=node,
        )


def _require_positive_definite(min_eig: np.ndarray) -> None:
    """Raise :class:`ConvexityError` unless ``W`` is positive definite at every node."""
    if not (np.min(min_eig) > 0.0):
        node = int(np.argmin(min_eig))
        raise ConvexityError(
            f"curvature matrix W is not positive definite at node {node} "
            f"(minimal eigenvalue {min_eig[node]:.3e})",
            node=node,
            eigenvalue=float(min_eig[node]),
        )


class SupportFunction:
    """Support function of a smooth convex body, certified on construction.

    Stores node values together with harmonic coefficients and the curvature
    data of ``W = Hess h + h I``.  Construction fails with
    :class:`ConvexityError` if ``h`` is not strictly positive and finite or
    ``W`` is not positive definite at some node; the error names an
    offending node.  Positivity is checked first, so a non-positive or
    non-finite ``h`` is rejected before its Hessian is computed.
    """

    def __init__(self, grid: SphericalGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (grid.n_coeffs,):
            raise InvalidParameter(
                f"support function on bandwidth {grid.L} needs {grid.n_coeffs} "
                f"coefficients, got shape {coeffs.shape}"
            )
        values = grid.synthesize_coeffs(coeffs)
        _require_positive(values)
        w11, w12, w22, det, min_eig = _curvature_data(grid, values)
        _require_positive_definite(min_eig)
        self._store(grid, coeffs, values, w11, w12, w22, det, min_eig)

    def _store(self, grid, coeffs, values, w11, w12, w22, det, min_eig) -> None:
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
        if not (0.0 < factor < np.inf):
            raise InvalidParameter(
                f"scale factor must be positive and finite, got {factor}"
            )
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
        if not (0.0 < value < np.inf):
            raise InvalidParameter(
                f"constant support value must be positive and finite, got {value}"
            )
        c = np.zeros(grid.n_coeffs)
        c[0] = value * np.sqrt(4.0 * np.pi)
        return cls(grid, c)

    @property
    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.values)

    def h_min(self) -> float:
        return float(np.min(self.values))

    def h_sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self) -> str:
        return (f"SupportFunction(L={self.grid.L}, h_min={self.h_min():.4g}, "
                f"h_sup={self.h_sup():.4g})")


class DensityFunction:
    """Positive density on the sphere, stored as harmonic coefficients.

    Carries two-sided bounds ``lam_lo <= f <= lam_hi``, checked at the nodes
    of the construction grid.  For a Holder-type regularity proxy, apply
    :func:`holder_proxy_seminorm` to :meth:`field_on`; it needs O(n^2)
    memory in the node count n.
    """

    def __init__(self, coeffs: HarmonicCoeffs, lam_lo: float, lam_hi: float,
                 grid: SphericalGrid | None = None):
        if not (0.0 < lam_lo <= lam_hi):
            raise InvalidParameter(
                f"density bounds must satisfy 0 < lam_lo <= lam_hi, got "
                f"({lam_lo}, {lam_hi})"
            )
        self.coeffs = coeffs
        self.lam_lo = float(lam_lo)
        self.lam_hi = float(lam_hi)
        check_grid = grid if grid is not None else build_grid(max(coeffs.L, 4))
        vals = self.values_on(check_grid)
        tol = 1e-12 * max(1.0, lam_hi)
        if np.min(vals) < lam_lo - tol or np.max(vals) > lam_hi + tol:
            raise InvalidParameter(
                f"density violates its bounds [{lam_lo}, {lam_hi}]: "
                f"range [{vals.min():.6g}, {vals.max():.6g}]"
            )

    @classmethod
    def constant(cls, value: float) -> "DensityFunction":
        if value <= 0.0:
            raise InvalidParameter(f"constant density must be positive, got {value}")
        c = np.zeros(1)
        c[0] = value * np.sqrt(4.0 * np.pi)
        return cls(HarmonicCoeffs(0, c), value, value)

    @classmethod
    def from_harmonics(cls, terms, base: float = 1.0,
                       grid: SphericalGrid | None = None) -> "DensityFunction":
        """Density ``base + sum amp * Y_lm / sup|Y_lm|``.

        Each harmonic is scaled to unit sup-norm over the whole sphere (not
        just the grid nodes) before its amplitude is applied, so
        ``(1, 0, 0.1)`` produces exactly ``1 + 0.1 (u . e3)``.  Bounds are
        the attained range on the grid.
        """
        try:
            terms = [(int(l), int(m), float(amp)) for l, m, amp in terms]
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(
                f"harmonic terms must be (l, m, amplitude) triples, got {terms!r}"
            ) from exc
        if not terms:
            raise InvalidParameter("at least one (l, m, amplitude) term required")
        Lmax = max(l for l, _, _ in terms)
        if grid is None:
            grid = build_grid(max(4, Lmax))
        if Lmax > grid.L:
            raise InvalidParameter(
                f"harmonic degree {Lmax} exceeds grid bandwidth {grid.L}"
            )
        c = np.zeros(coeff_count(Lmax))
        for l, m, amp in terms:
            c[lm_index(l, m)] += amp / _harmonic_sup(l, m)
        c[0] += base * np.sqrt(4.0 * np.pi)
        coeffs = HarmonicCoeffs(Lmax, c)
        vals = grid.synthesize_coeffs(coeffs.embedded(grid.L).values)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if lo <= 0.0:
            raise InvalidParameter(f"density is not positive (min {lo:.6g})")
        return cls(coeffs, lo, hi, grid=grid)

    def values_on(self, grid: SphericalGrid) -> np.ndarray:
        if self.coeffs.L > grid.L:
            raise InvalidParameter(
                f"density bandwidth {self.coeffs.L} exceeds grid bandwidth {grid.L}"
            )
        return grid.synthesize_coeffs(self.coeffs.embedded(grid.L).values)

    def field_on(self, grid: SphericalGrid) -> ScalarField:
        return ScalarField(grid, self.values_on(grid))

    def mean(self) -> float:
        """Average of f over the sphere (from the zonal coefficient)."""
        return float(self.coeffs.values[0]) / np.sqrt(4.0 * np.pi)

    def __repr__(self) -> str:
        return (f"DensityFunction(L={self.coeffs.L}, bounds=({self.lam_lo:.4g}, "
                f"{self.lam_hi:.4g}))")


def _harmonic_sup(l: int, m: int) -> float:
    """Sup-norm of the real harmonic (l, m) over the sphere.

    The longitude factor attains 1, so this is the maximum over colatitude of
    the normalized Legendre part.  Zonal harmonics peak at the poles where
    ``|P_l| = 1``, giving the normalization constant ``sqrt((2l+1)/(4 pi))``
    exactly; for ``m != 0`` the pole values vanish and dense interior
    sampling locates the maximum.
    """
    if m == 0:
        return float(np.sqrt((2 * l + 1) / (4.0 * np.pi)))
    theta = np.linspace(0.0, np.pi, 4097)[1:-1]
    theta_part, _ = _theta_basis(l, np.cos(theta))
    return float(np.sqrt(2.0) * np.max(np.abs(theta_part[:, l, abs(m)])))


def holder_proxy_seminorm(field: ScalarField, alpha: float = 0.5) -> float:
    """Regularity proxy: sup deviation from 1 plus a difference quotient.

    Computes ``max|f - 1|`` plus the maximum of ``|f(x) - f(y)| / d(x,y)**alpha``
    over node pairs at geodesic distance ``0 < d <= pi / L``.  A bounded value
    under grid refinement indicates Holder-alpha regularity at the grid scale;
    the default exponent is 1/2.
    """
    grid = field.grid
    v = field.values
    cosd = np.clip(grid.nodes @ grid.nodes.T, -1.0, 1.0)
    d = np.arccos(cosd)
    mask = (d > 0.0) & (d <= np.pi / grid.L)
    if not mask.any():
        return float(np.max(np.abs(v - 1.0)))
    diffs = np.abs(v[:, None] - v[None, :])[mask] / d[mask] ** alpha
    return float(np.max(np.abs(v - 1.0)) + np.max(diffs))


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the damped Newton iteration.

    The line search halves the step down to ``2**-20`` and requires
    ``min h > 1e-8`` of every accepted iterate; those rules are fixed.

    Attributes
    ----------
    tolerance : float
        Relative residual at which the solve is accepted:
        ``sup |h det W - f| <= tolerance * mean f``.  Relative to the mean
        density, so the test is invariant under the scaling f -> s^3 f,
        h -> s h; for mean-1 densities it is the absolute sup-norm bound.
    max_iterations : int
        Newton iteration cap.
    """

    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not (0.0 < self.tolerance < np.inf):
            raise InvalidParameter(
                f"tolerance must be positive and finite, got {self.tolerance}"
            )
        if self.max_iterations < 1:
            raise InvalidParameter("max_iterations must be at least 1")


@dataclass
class NewtonResult:
    """Outcome of :func:`newton_solve`.

    ``rows`` holds one ``(iter, residual_sup, min_h, min_eig_W, step_size)``
    tuple per iteration (iteration 0 describes the initial iterate with step
    size 0), matching the CSV report schema of :meth:`report_csv`.
    ``condition_number`` is the 1-norm conditioning of the final linearized
    system, recorded so ill-conditioning is visible rather than assumed away.
    """

    h: SupportFunction
    converged: bool
    iterations: int
    residual_sup: float
    rows: list
    condition_number: float

    def report_csv(self) -> str:
        lines = ["iter,residual_sup,min_h,min_eig_W,step_size"]
        for it, res, hmin, eig, step in self.rows:
            lines.append(f"{it},{res!r},{hmin!r},{eig!r},{step!r}")
        return "\n".join(lines) + "\n"


def ma_residual(h: SupportFunction, f: DensityFunction) -> ScalarField:
    """Monge-Ampere residual field ``h det(W) - f`` at the grid nodes.

    ``h`` is certified, so ``W`` is positive definite at every node.
    """
    return ScalarField(h.grid, h.values * h.det_w - f.values_on(h.grid))


def linearized_operator(h: SupportFunction, phi: ScalarField) -> ScalarField:
    """Derivative of ``h det(W(h))`` at ``h`` applied to a perturbation.

    The derivative is ``det(W) phi + h U : (Hess phi + phi I)`` with ``U`` the
    cofactor matrix of ``W``.  At the unit sphere it reduces to the Helmholtz
    operator ``Lap phi + 3 phi``.
    """
    require_same_grid(h.grid, phi.grid, "support function and perturbation")
    p11, p12, p22 = h.grid.hessian_components(phi.values)
    u_term = (h.w22 * (p11 + phi.values) - 2.0 * h.w12 * p12
              + h.w11 * (p22 + phi.values))
    return ScalarField(h.grid, h.det_w * phi.values + h.values * u_term)


def check_convexity(field: ScalarField) -> tuple[np.ndarray, bool]:
    """Minimal eigenvalue field of ``W = Hess h + h I`` and its positivity.

    Returns ``(min_eig, ok)`` where ``ok`` also requires ``h > 0`` at every
    node, so it is exactly the admissibility test of the solvers.
    """
    _, _, _, _, min_eig = _curvature_data(field.grid, field.values)
    ok = bool(np.min(min_eig) > 0.0 and np.min(field.values) > 0.0)
    return min_eig, ok


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
    """Galerkin matrix of the linearized operator at ``h`` in coefficient space.

    Entry ``[a, b]`` is the quadrature projection onto harmonic ``a`` of the
    linearized operator applied to harmonic ``b``,

        sum_t  A[a, :] @ (c_t * H_t[:, b]),

    with ``H_t`` the basis values and the Hessian frame components ``H11``,
    ``H12``, ``H22`` and ``c_t`` the node fields ``det W + h (w11 + w22)``,
    ``h w22``, ``-2 h w12`` and ``h w11``.  Both factors of every term split
    into a ring part times a longitude part (see ``SphericalGrid._spec``),
    so the sum over the nodes of a ring only needs the ring sums

        F_t[j, p, q] = sum_k c_t(j, k) T_p(phi_k) T_q(phi_k),

    one product with the trig-product table.  The rows of each signed order
    ``p`` are then one ``(rows x nlat) @ (nlat x C)`` product, about
    ``2 nlat C**2`` flops in all against ``2 n C**2`` for a product over the
    nodes.  The sums are the same discrete sums, so the matrix agrees with
    such a dense product to rounding.
    """
    grid = h.grid
    s = grid._spec
    L = grid.L
    values = h.values
    fields = np.stack([h.det_w + values * (h.w11 + h.w22),
                       values * h.w22,
                       -2.0 * values * h.w12,
                       values * h.w11])
    ring_sums = (fields.reshape(4 * grid.nlat, grid.nlon) @ s.trig_products).reshape(
        4, grid.nlat, 2 * L + 1, 2 * L + 1)
    orders = s.ms + L
    partners = L - s.ms  # H12 pairs with the partner order -m
    weighted = s.ring_weights[:, None] * s.P
    out = np.empty((grid.n_coeffs, grid.n_coeffs))
    for p in range(2 * L + 1):
        F0, F11, F12, F22 = ring_sums[:, :, p, :]
        ring_rows = (s.P * F0[:, orders] + s.R11 * F11[:, orders]
                     + s.R12 * F12[:, partners] + s.R22 * F22[:, orders])
        rows = orders == p
        out[rows] = weighted[:, rows].T @ ring_rows
    return out


def newton_solve(f: DensityFunction, h0: SupportFunction | None = None,
                 opts: SolveOptions | None = None,
                 grid: SphericalGrid | None = None) -> NewtonResult:
    """Solve ``h det(W) = f`` by damped Newton iteration.

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
        If the iteration cap is hit or backtracking cannot find an
        admissible decreasing step; carries the last residual.
    """
    opts = opts or SolveOptions()
    if h0 is not None:
        work_grid = h0.grid
        if grid is not None:
            require_same_grid(grid, work_grid, "explicit grid and initial iterate")
    else:
        work_grid = grid if grid is not None else build_grid(DEFAULT_BANDWIDTH)
        h0 = SupportFunction.constant(work_grid, f.mean() ** (1.0 / 3.0))

    fv = f.values_on(work_grid)
    threshold = opts.tolerance * f.mean()
    h = h0
    residual = h.values * h.det_w - fv
    res_sup = float(np.max(np.abs(residual)))
    rows = [(0, res_sup, float(h.values.min()), float(h.min_eig_w.min()), 0.0)]
    matrix = None

    for it in range(1, opts.max_iterations + 1):
        if res_sup <= threshold:
            break
        matrix = _jacobian_matrix(h)
        rhs = -work_grid.analyze_values(residual)
        try:
            delta = np.linalg.solve(matrix, rhs)
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
                cand_sup = float(np.max(np.abs(cand_res)))
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

    converged = res_sup <= threshold
    if not converged:
        raise ConvergenceFailure(
            f"Newton did not reach tolerance {opts.tolerance:.3e} relative to mean f in "
            f"{opts.max_iterations} iterations (residual {res_sup:.3e})",
            residual=res_sup, iterations=opts.max_iterations,
        )
    if matrix is None:
        matrix = _jacobian_matrix(h)
    condition = float(np.linalg.cond(matrix, 1))
    return NewtonResult(
        h=h,
        converged=True,
        iterations=rows[-1][0],
        residual_sup=res_sup,
        rows=rows,
        condition_number=condition,
    )
