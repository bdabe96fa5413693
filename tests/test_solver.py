"""Solver tests: residual oracles, linearization checks, Newton behavior."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logmink import solver
from logmink.errors import ConvergenceFailure, ConvexityError, GridMismatch, InvalidParameter
from logmink.experiments import gen_density, solve_with_inits
from logmink.flow import run_flow
from logmink.grid import (
    HarmonicCoeffs,
    ScalarField,
    SphericalGrid,
    analyze,
    build_grid,
    coeff_count,
    harmonic_field,
    lm_index,
    synthesize,
)
from logmink.solver import (
    DensityFunction,
    NewtonResult,
    SolveOptions,
    SupportFunction,
    holder_proxy_seminorm,
    linearized_operator,
    _aliasing_floor_note,
    _jacobian_matrix,
    _solve_newton_system,
    ma_residual,
    newton_solve,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(16)


def translated_ball_coeffs(grid, v):
    """Coefficients of h(u) = 1 + v . u."""
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    norm = np.sqrt(4.0 * np.pi / 3.0)
    c[lm_index(1, 1)] = v[0] * norm
    c[lm_index(1, -1)] = v[1] * norm
    c[lm_index(1, 0)] = v[2] * norm
    return c


# ---------------------------------------------------------------------------
# residual and curvature oracles


def test_unit_sphere_residual_zero(grid):
    h = SupportFunction.constant(grid, 1.0)
    f = DensityFunction.constant(1.0)
    res = ma_residual(h, f)
    # spectral differentiation noise at L=16 sits near 2e-12
    assert np.max(np.abs(res.values)) < 1e-11


def test_scaled_sphere_residual(grid):
    # radius c sphere has W = c I, so h det W = c^3
    for c in (0.5, 2.0, 5.0):
        h = SupportFunction.constant(grid, c)
        assert_allclose(h.det_w, c * c, atol=1e-10 * c * c)
        f = DensityFunction.constant(c ** 3)
        res = ma_residual(h, f)
        assert np.max(np.abs(res.values)) < 1e-10 * c ** 3


def test_translated_ball_residual(grid):
    # translation leaves W = I, so h det W = h = 1 + v . u
    v = np.array([0.05, -0.08, 0.1])
    h = SupportFunction(grid, translated_ball_coeffs(grid, v))
    assert np.max(np.abs(h.det_w - 1.0)) < 1e-10
    f = DensityFunction.from_harmonics(
        [(1, 1, v[0]), (1, -1, v[1]), (1, 0, v[2])], grid=grid)
    res = ma_residual(h, f)
    assert np.max(np.abs(res.values)) < 1e-10


def test_support_function_rejects_nonpositive(grid):
    c = np.zeros(grid.n_coeffs)
    c[0] = -np.sqrt(4.0 * np.pi)
    with pytest.raises(ConvexityError):
        SupportFunction(grid, c)


def test_support_function_rejects_nonconvex(grid):
    # a large degree-4 ripple drives an eigenvalue of W negative
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    c[lm_index(4, 0)] = 0.8
    with pytest.raises(ConvexityError) as err:
        SupportFunction(grid, c)
    assert err.value.node is not None


def test_support_function_needs_one_coefficient_per_harmonic(grid):
    with pytest.raises(InvalidParameter,
                       match=r"bandwidth 16 needs 289 coefficients, got shape \(5,\)"):
        SupportFunction(grid, np.ones(5))


def test_support_function_rejects_nan(grid):
    with pytest.raises(ConvexityError):
        SupportFunction(grid, np.full(grid.n_coeffs, np.nan))


@pytest.mark.filterwarnings("error")
def test_support_function_rejects_inf(grid):
    # an infinite zonal coefficient gives h = inf everywhere; it must fail
    # the positivity test before its Hessian (NaN, with a warning) is taken
    c = np.zeros(grid.n_coeffs)
    c[0] = np.inf
    with pytest.raises(ConvexityError):
        SupportFunction(grid, c)


def test_scaled_matches_recertified(grid):
    c = translated_ball_coeffs(grid, np.array([0.05, -0.08, 0.1]))
    c[lm_index(2, 1)] = 0.04
    c[lm_index(3, -2)] = 0.03
    h = SupportFunction(grid, c)
    for s in (0.5, 3.0):
        scaled = h.scaled(s)
        direct = SupportFunction(grid, s * c)
        assert_allclose(scaled.coeffs, direct.coeffs, rtol=1e-12)
        for name in ("values", "w11", "w12", "w22", "det_w", "min_eig_w"):
            assert_allclose(getattr(scaled, name), getattr(direct, name),
                            rtol=1e-12, atol=1e-12 * s * s, err_msg=name)
        for arr in (scaled.coeffs, scaled.values, scaled.w11, scaled.w12,
                    scaled.w22, scaled.det_w, scaled.min_eig_w):
            assert not arr.flags.writeable


def test_scaled_rejects_bad_factors(grid):
    h = SupportFunction.constant(grid, 1.0)
    for s in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            h.scaled(s)
    # products that underflow to 0 or overflow to inf fail the certificate
    with pytest.raises(ConvexityError):
        SupportFunction.constant(grid, 1e-5).scaled(1e-320)
    with pytest.raises(ConvexityError):
        SupportFunction.constant(grid, 10.0).scaled(1e308)


def test_constant_rejects_bad_values(grid):
    # 1e308 is finite, but its zonal coefficient 1e308 * sqrt(4 pi) is not
    for value in (0.0, -1.0, np.nan, np.inf, 1e308):
        with pytest.raises(InvalidParameter):
            SupportFunction.constant(grid, value)
        with pytest.raises(InvalidParameter):
            DensityFunction.constant(value)


def test_from_field_rejects_aliased_values(grid):
    rng = np.random.default_rng(0)
    field = ScalarField(grid, 2.0 + 0.01 * rng.standard_normal(grid.n_nodes))
    with pytest.raises(InvalidParameter):
        SupportFunction.from_field(field)


def test_from_field_rejects_positive_nonconvex_field(grid):
    good = SupportFunction.constant(grid, 1.0).field
    assert SupportFunction.from_field(good).min_eig_w.min() > 0.0
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    c[lm_index(4, 0)] = 0.8
    bad = synthesize(HarmonicCoeffs(16, c), grid)
    assert bad.values.min() > 0.0
    with pytest.raises(ConvexityError, match="not positive definite"):
        SupportFunction.from_field(bad)


# ---------------------------------------------------------------------------
# density construction


def test_from_harmonics_exact_values(grid):
    f = DensityFunction.from_harmonics([(1, 0, 0.1)], grid=grid)
    expected = 1.0 + 0.1 * grid.nodes[:, 2]
    assert_allclose(f.values_on(grid), expected, atol=1e-13)
    assert abs(f.mean() - 1.0) < 1e-13
    assert f.lam_lo > 0.89 and f.lam_hi < 1.11


def test_sectoral_normalization(grid):
    # the (2, 2) harmonic peaks on the equator at longitude 0, which is a
    # grid node, so amplitude 0.3 appears exactly in the node maximum; the
    # minimizing longitude pi/2 falls between nodes
    f = DensityFunction.from_harmonics([(2, 2, 0.3)], grid=grid)
    vals = f.values_on(grid)
    assert abs(np.max(vals) - 1.3) < 1e-9
    assert 0.7 - 1e-9 <= np.min(vals) < 0.71


def test_density_validation():
    with pytest.raises(InvalidParameter):
        DensityFunction.constant(0.0)
    with pytest.raises(InvalidParameter):
        DensityFunction.constant(-2.0)
    with pytest.raises(InvalidParameter, match=r"density is not positive \(min -0.282095\)"):
        DensityFunction(HarmonicCoeffs(0, np.array([-1.0])))
    # a positive density whose node values overflow: (1 + u.e)^4 peaks
    # 1.38 times above its largest coefficient
    grid4 = build_grid(4)
    peak = grid4.analyze_values((1.0 + grid4.nodes @ np.ones(3) / np.sqrt(3.0)) ** 4)
    with np.errstate(over="ignore"), pytest.raises(InvalidParameter, match="not finite"):
        DensityFunction(HarmonicCoeffs(4, 1.5e308 / np.abs(peak).max() * peak))
    with pytest.raises(InvalidParameter, match="density is not positive"):
        DensityFunction.from_harmonics([(1, 0, 2.0)])
    with pytest.raises(InvalidParameter):
        DensityFunction.from_harmonics([])


def test_density_range_is_measured_on_the_check_grid(grid):
    # lam_lo and lam_hi are the node range where the density is checked:
    # the given grid, else bandwidth max(L, 4)
    for f, check_grid in ((DensityFunction.constant(2.5), build_grid(4)),
                          (DensityFunction.from_harmonics([(6, 2, 0.3)]), build_grid(6)),
                          (DensityFunction.from_harmonics([(1, 0, 0.1)], grid=grid), grid),
                          (gen_density(3, 0.3, 1.5, grid=grid), grid)):
        values = f.values_on(check_grid)
        assert (f.lam_lo, f.lam_hi) == (values.min(), values.max())
    # a random density lies strictly inside the class 1/lam < f < lam
    for seed in range(5):
        f = gen_density(seed, 1.5, 2.0, grid=grid)
        assert 0.5 < f.lam_lo < 1.0 < f.lam_hi < 2.0


def test_holder_proxy_seminorm(grid):
    # the proxy is max|f - 1| plus a short-range difference quotient, so the
    # unit constant scores zero and any other constant scores its deviation
    unit = ScalarField(grid, np.ones(grid.n_nodes))
    assert holder_proxy_seminorm(unit) == 0.0
    const = ScalarField(grid, np.full(grid.n_nodes, 3.0))
    assert holder_proxy_seminorm(const) == 2.0
    linear = ScalarField(grid, 1.0 + 0.1 * grid.nodes[:, 2])
    assert holder_proxy_seminorm(linear) > 0.0


def _dense_holder_proxy(field, alpha=0.5):
    """The seminorm over all node pairs at once, with O(n^2) memory."""
    grid, v = field.grid, field.values
    d = np.arccos(np.clip(grid.nodes @ grid.nodes.T, -1.0, 1.0))
    mask = (d > 0.0) & (d <= np.pi / grid.L)
    if not mask.any():
        return float(np.max(np.abs(v - 1.0)))
    diffs = np.abs(v[:, None] - v[None, :])[mask] / d[mask] ** alpha
    return float(np.max(np.abs(v - 1.0)) + np.max(diffs))


@pytest.mark.parametrize("L", [8, 16, 24])
def test_holder_proxy_seminorm_matches_all_pairs(L):
    # comparing nearby rings only finds the same pairs as the dense formula
    grid = build_grid(L)
    field = gen_density(7, 0.05, 2.0, grid=grid).field_on(grid)
    for alpha in (0.5, 1.0):
        want = _dense_holder_proxy(field, alpha)
        assert want > np.max(np.abs(field.values - 1.0))
        assert abs(holder_proxy_seminorm(field, alpha) - want) <= 1e-12 * want


def test_density_does_not_compute_seminorm(monkeypatch):
    # the seminorm is a standalone diagnostic, not construction work
    def fail(*args, **kwargs):
        raise AssertionError("holder_proxy_seminorm called during construction")

    monkeypatch.setattr("logmink.solver.holder_proxy_seminorm", fail)
    f = gen_density(3, 0.05, 2.0)
    assert abs(max(1.0 - f.lam_lo, f.lam_hi - 1.0) - 0.05) < 1e-12


# ---------------------------------------------------------------------------
# linearized operator


def test_linearization_at_round_sphere(grid):
    # at h == 1 the derivative acts on Y_lm as multiplication by 3 - l(l+1)
    h = SupportFunction.constant(grid, 1.0)
    for l in range(9):
        for m in range(-l, l + 1):
            c = np.zeros(grid.n_coeffs)
            c[lm_index(l, m)] = 1.0
            phi = synthesize(HarmonicCoeffs(16, c), grid)
            out = linearized_operator(h, phi)
            factor = 3.0 - l * (l + 1)
            assert np.max(np.abs(out.values - factor * phi.values)) < 1e-8


def admissible_pair(seed, grid):
    """Random admissible support function and a unit perturbation direction."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    bump = 0.2 * rng.standard_normal(lm_index(4, 4) + 1 - 1)
    while True:
        trial = c.copy()
        trial[1:lm_index(4, 4) + 1] = bump
        try:
            h = SupportFunction(grid, trial)
        except ConvexityError:
            h = None
        if h is not None and h.h_min() > 0.2 and h.min_eig_w.min() > 0.2:
            break
        bump *= 0.7
    d = rng.standard_normal(grid.n_coeffs)
    d /= np.linalg.norm(d)
    return h, d


def test_linearization_matches_finite_difference(grid):
    # central differences of the nonlinear map agree with the stated
    # derivative on randomly drawn admissible bodies
    worst = 0.0
    for seed in range(20):
        h, d = admissible_pair(seed, grid)
        t = 1e-6
        hp = SupportFunction(grid, h.coeffs + t * d)
        hm = SupportFunction(grid, h.coeffs - t * d)
        fd = (hp.values * hp.det_w - hm.values * hm.det_w) / (2.0 * t)
        phi = synthesize(HarmonicCoeffs(16, d), grid)
        lin = linearized_operator(h, phi)
        scale = np.max(np.abs(lin.values))
        err = np.max(np.abs(fd - lin.values)) / scale
        worst = max(worst, err)
    assert worst < 1e-5


def test_linearized_operator_grid_mismatch(grid):
    h = SupportFunction.constant(grid, 1.0)
    other = build_grid(8)
    phi = ScalarField(other, np.ones(other.n_nodes))
    with pytest.raises(GridMismatch):
        linearized_operator(h, phi)


# ---------------------------------------------------------------------------
# Galerkin Jacobian


def dense_jacobian(h):
    """The Galerkin matrix as the dense product A @ j_node over all nodes.

    The node matrices are built column by column from the public operators:
    ``Y`` from the basis fields, the Hessian components from
    ``hessian_components`` of each basis field's analysis, and ``A`` the quadrature
    projection ``Y^T diag(weights)``.
    """
    grid = h.grid
    Y = np.column_stack([harmonic_field(grid, l, m).values
                         for l in range(grid.L + 1) for m in range(-l, l + 1)])
    H11, H12, H22 = (np.column_stack(cols) for cols in zip(
        *(grid.hessian_components(grid.analyze_values(y))[1:] for y in Y.T)))
    j_node = ((h.det_w + h.values * (h.w11 + h.w22))[:, None] * Y
              + h.values[:, None] * (h.w22[:, None] * H11
                                     - 2.0 * h.w12[:, None] * H12
                                     + h.w11[:, None] * H22))
    return (Y.T * grid.weights) @ j_node


def jacobian_test_body(kind, grid):
    if kind == "ball":
        return SupportFunction(grid, translated_ball_coeffs(grid, [0.05, -0.08, 0.1]))
    f = gen_density(3, 0.3, 2.0, grid=grid)
    return newton_solve(f, grid=grid, opts=SolveOptions(tolerance=1e-3)).h


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("kind", ["ball", "newton"])
def test_jacobian_matches_dense_product_and_linearization(L, kind):
    grid = build_grid(L)
    h = jacobian_test_body(kind, grid)
    jac = _jacobian_matrix(h)
    dense = dense_jacobian(h)
    assert np.max(np.abs(jac - dense)) <= 1e-13 * np.max(np.abs(dense))
    rng = np.random.default_rng(L)
    for _ in range(3):
        d = rng.standard_normal(grid.n_coeffs)
        lin = analyze(linearized_operator(h, synthesize(HarmonicCoeffs(L, d), grid)))
        jd = jac @ d
        assert np.max(np.abs(jd - lin.values)) <= 1e-12 * np.max(np.abs(jd))


def _dense_newton_step(h, rhs):
    """The Newton step by LU of the assembled Galerkin matrix: the oracle."""
    return np.linalg.solve(_jacobian_matrix(h), rhs)


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("kind", ["ball", "newton"])
def test_krylov_step_matches_dense_solve(L, kind):
    grid = build_grid(L)
    h = jacobian_test_body(kind, grid)
    f = gen_density(5, 0.3, 2.0, grid=grid)
    newton_rhs = -grid.analyze_values(ma_residual(h, f).values)
    random_rhs = np.random.default_rng(L).standard_normal(grid.n_coeffs)
    for rhs in (newton_rhs, random_rhs):
        step = _solve_newton_system(h, rhs)
        dense = _dense_newton_step(h, rhs)
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("L", [8, 16])
def test_krylov_preconditioner_inverts_the_round_sphere(L):
    # at h = r the linearization is r^2 (Lap + 3) = 3 r^2 (1 + Lap/3), so the
    # right-preconditioned Jacobian is the scalar 3 r^2; the assembled
    # matrix carries rounding relative to its largest entry, r^2 L (L + 1)
    grid = build_grid(L)
    r = 1.7
    jac = _jacobian_matrix(SupportFunction.constant(grid, r))
    d = np.random.default_rng(L).standard_normal(grid.n_coeffs)
    product = jac @ grid._damped(d, -1.0 / 3.0)
    scale = np.max(np.abs(jac)) * np.max(np.abs(d))
    assert np.max(np.abs(product - 3.0 * r * r * d)) <= 1e-13 * scale


def test_krylov_step_of_a_zero_right_hand_side_is_zero(grid):
    h = SupportFunction.constant(grid, 1.3)
    step = _solve_newton_system(h, np.zeros(grid.n_coeffs))
    assert step.shape == (grid.n_coeffs,) and not np.any(step)


def test_singular_krylov_step_is_a_convergence_failure(grid, monkeypatch):
    # a zero operator leaves a zero pivot in the projected triangle
    monkeypatch.setattr(solver, "_linearization",
                        lambda h, coeffs: np.zeros(h.grid.n_nodes))
    h0 = SupportFunction.constant(grid, 1.3)
    with pytest.raises(ConvergenceFailure, match="singular at iteration 1"):
        newton_solve(DensityFunction.constant(1.0), h0=h0)


# ---------------------------------------------------------------------------
# Newton solves


def test_newton_constant_densities(grid):
    for value in (0.125, 1.0, 8.0):
        f = DensityFunction.constant(value)
        # start away from the solution so the iteration has work to do
        h0 = SupportFunction.constant(grid, 1.3 * value ** (1.0 / 3.0))
        result = newton_solve(f, h0=h0)
        assert result.iterations <= 10
        assert result.residual_sup <= 1e-10
        assert_allclose(result.h.values, value ** (1.0 / 3.0), atol=1e-8)


def test_newton_default_start_is_exact_for_constants(grid):
    result = newton_solve(DensityFunction.constant(8.0), grid=grid)
    assert result.iterations == 0
    assert_allclose(result.h.values, 2.0, atol=1e-13)


def test_newton_conditioning_recorded(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.3)
    result = newton_solve(f, h0=h0)
    # the L=16 Galerkin matrix at the round sphere is diagonal with entries
    # about 3 - l(l+1), so its 1-norm (like its 2-norm) condition number is
    # the ratio of the extremes -> about 269
    assert 100.0 < result.condition_number < 1000.0


def test_newton_condition_number_is_one_norm():
    # the translated ball solves its own density exactly, so Newton stops at
    # iteration 0 and reports the conditioning of the Jacobian at h0; h is
    # not constant, so the Jacobian is not diagonal and the norms differ
    grid = build_grid(8)
    v = np.array([0.0, 0.0, 0.1])
    h0 = SupportFunction(grid, translated_ball_coeffs(grid, v))
    f = DensityFunction.from_harmonics([(1, 0, v[2])], grid=grid)
    result = newton_solve(f, h0=h0)
    assert result.iterations == 0
    jac = _jacobian_matrix(h0)
    assert result.condition_number == np.linalg.cond(jac, 1)
    assert abs(result.condition_number / np.linalg.cond(jac) - 1.0) > 1e-3


def test_newton_krylov_steps_match_dense_lu(monkeypatch):
    # Same converged solves, iteration counts and solutions as the dense LU
    # step.  A solve that fails at the aliasing floor fails with both, but
    # its failing iteration may differ: there the Galerkin residual is
    # rounding noise, and the line search accepts any nodal decrease.
    opts = SolveOptions(tolerance=1e-6)
    converged = floored = 0
    for L in (16, 24):
        grid = build_grid(L)
        for seed in range(4):
            for eps, lam in ((0.3, 2.0), (0.6, 4.0)):
                f = gen_density(seed, eps, lam, grid=grid)
                runs = []
                for step in (_solve_newton_system, _dense_newton_step):
                    monkeypatch.setattr(solver, "_solve_newton_system", step)
                    runs.append(solve_with_inits(f, ("const:0.5", "perturb"), grid,
                                                 seed, opts))
                (krylov, krylov_failed), (dense, dense_failed) = runs
                assert [s for s, _ in krylov] == [s for s, _ in dense]
                for (_, a), (_, b) in zip(krylov, dense):
                    assert a.iterations == b.iterations
                    assert np.max(np.abs(a.h.values - b.h.values)) <= 1e-12
                assert [s for s, _ in krylov_failed] == [s for s, _ in dense_failed]
                for (_, a), (_, b) in zip(krylov_failed, dense_failed):
                    assert "aliasing floor" in a and "aliasing floor" in b
                converged += len(krylov)
                floored += len(krylov_failed)
    assert converged >= 24 and floored >= 1


def test_newton_assembles_one_galerkin_matrix_per_solve(grid, monkeypatch):
    calls = []
    assemble = SphericalGrid._galerkin_matrix

    def counted(self, *fields):
        calls.append(self.L)
        return assemble(self, *fields)

    monkeypatch.setattr(SphericalGrid, "_galerkin_matrix", counted)
    f = gen_density(3, 0.3, 2.0, grid=grid)
    for h0 in (None, SupportFunction.constant(grid, 0.7)):
        calls.clear()
        result = newton_solve(f, h0=h0, grid=grid, opts=SolveOptions(tolerance=1e-6))
        assert result.iterations >= 3 and calls == [grid.L]
        # without the conditioning report: no matrix, the same solve
        calls.clear()
        bare = newton_solve(f, h0=h0, grid=grid,
                            opts=SolveOptions(tolerance=1e-6, report_condition=False))
        assert calls == [] and bare.condition_number is None
        assert np.array_equal(bare.h.coeffs, result.h.coeffs) and bare.rows == result.rows
    calls.clear()
    assert newton_solve(DensityFunction.constant(8.0), grid=grid).iterations == 0
    assert calls == [grid.L]


def test_newton_translated_ball(grid):
    v = np.array([0.0, 0.0, 0.1])
    f = DensityFunction.from_harmonics([(1, 0, 0.1)], grid=grid)
    result = newton_solve(f, h0=SupportFunction.constant(grid, 1.0))
    assert result.iterations <= 3
    exact = 1.0 + grid.nodes @ v
    assert np.max(np.abs(result.h.values - exact)) < 1e-9


def test_newton_smooth_perturbation_floor(grid):
    # moderately perturbed density: converges at 1e-7 even though the
    # attainable residual floor sits above the 1e-10 default
    f = DensityFunction.from_harmonics(
        [(2, 1, 0.08), (3, -2, 0.07), (4, 0, 0.05)], grid=grid)
    opts = SolveOptions(tolerance=1e-7)
    result = newton_solve(f, opts=opts)
    assert result.residual_sup <= 1e-7
    res = ma_residual(result.h, f)
    assert np.max(np.abs(res.values)) <= 1e-7


def test_newton_line_search_rejects_a_nonconvex_candidate(monkeypatch):
    # from the small sphere h = 0.5 the full first step on a strongly varying
    # density loses convexity; the line search rejects it, halves the step
    # and still converges
    grid = build_grid(24)
    f = gen_density(0, 0.6, 4.0, grid=grid)
    h0 = SupportFunction.constant(grid, 0.5)
    rejected = []
    certify = solver._require_positive_definite

    def counted(min_eig):
        try:
            certify(min_eig)
        except ConvexityError:
            rejected.append(float(np.min(min_eig)))
            raise

    monkeypatch.setattr(solver, "_require_positive_definite", counted)
    result = newton_solve(f, h0=h0, opts=SolveOptions(1e-6))
    assert len(rejected) == 1 and rejected[0] <= 0.0
    assert result.rows[1][4] == 0.5
    assert result.iterations == 5
    assert result.residual_sup <= 1e-6 * f.mean()


def test_newton_unreachable_tolerance_fails_loudly(grid, monkeypatch):
    f = DensityFunction.from_harmonics(
        [(2, 1, 0.08), (3, -2, 0.07), (4, 0, 0.05)], grid=grid)
    monkeypatch.setattr("logmink.solver._MAX_ITERATIONS", 8)
    opts = SolveOptions(tolerance=1e-15)
    with pytest.raises(ConvergenceFailure) as err:
        newton_solve(f, opts=opts)
    assert err.value.residual is not None and err.value.residual > 0.0


def test_newton_grid_conflict(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.0)
    with pytest.raises(GridMismatch):
        newton_solve(f, h0=h0, grid=build_grid(8))
    # a grid mismatch is a usage error: the CLI maps it to exit code 2
    assert issubclass(GridMismatch, InvalidParameter)


def test_bandwidth_above_the_grid_is_a_grid_mismatch(grid):
    # HarmonicCoeffs.embedded is the one bandwidth check; every path that
    # puts coefficients on a grid reports it the same way, naming both
    small = build_grid(8)
    coeffs = HarmonicCoeffs(12, np.ones(coeff_count(12)))
    density = DensityFunction.from_harmonics([(12, 3, 0.1)], grid=grid)
    for put_on_small in (lambda: synthesize(coeffs, small),
                         lambda: harmonic_field(small, 12, 3),
                         lambda: density.values_on(small),
                         lambda: DensityFunction.from_harmonics([(12, 3, 0.1)], grid=small)):
        with pytest.raises(GridMismatch, match="bandwidth 12 .*bandwidth 8"):
            put_on_small()
    # the check comes before anything sized by the degree is built
    for put_on_small in (lambda: harmonic_field(small, 10**6, 3),
                         lambda: DensityFunction.from_harmonics([(10**6, 3, 0.1)], grid=small)):
        with pytest.raises(GridMismatch, match="bandwidth 1000000 .*bandwidth 8"):
            put_on_small()


def test_solve_options_validation():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            SolveOptions(tolerance=tol)
    # an int beyond the float range is an infinity, not an OverflowError
    with pytest.raises(InvalidParameter, match="tolerance must be positive and finite"):
        SolveOptions(tolerance=10**400)
    for bad, message in (("x", "tolerance must be a real number, got 'x'"),
                         (True, "tolerance must be a real number, got True")):
        with pytest.raises(InvalidParameter, match=message):
            SolveOptions(tolerance=bad)
    # a string is truthy, so it would silently mean on
    with pytest.raises(InvalidParameter, match="report_condition must be True or False, got 'no'"):
        SolveOptions(report_condition="no")
    assert SolveOptions(tolerance=np.float32(1e-6)).tolerance == np.float32(1e-6)


def _dilated(f, factor, grid):
    """The density factor * f."""
    return DensityFunction(HarmonicCoeffs(f.coeffs.L, factor * f.coeffs.values), grid=grid)


def test_newton_scale_equivariance(grid):
    # h det(Hess h + h I) is homogeneous of degree 3, so the density
    # s**3 f is solved by s h; the tolerance is relative to mean f, so the
    # same options serve both solves
    s = 2.0
    opts = SolveOptions(tolerance=1e-9)
    f = gen_density(5, 0.05, 2.0, grid=grid)
    h = newton_solve(f, grid=grid, opts=opts).h
    hs = newton_solve(_dilated(f, s ** 3, grid), grid=grid, opts=opts).h
    assert np.max(np.abs(hs.values - s * h.values)) <= 1e-10 * s * h.h_sup()


def test_newton_rotation_equivariance_about_e3(grid):
    # turning by one longitude step about e3 permutes the nodes of each
    # ring, so the density rolled along every ring is solved by the rolled
    # solution; the round start is invariant, so every iterate turns along
    def rolled(values):
        return np.roll(values.reshape(grid.nlat, grid.nlon), 1, axis=1).ravel()

    opts = SolveOptions(tolerance=1e-8)
    f = gen_density(3, 0.05, 2.0, grid=grid)
    turned = DensityFunction(analyze(ScalarField(grid, rolled(f.values_on(grid)))), grid=grid)
    h = newton_solve(f, grid=grid, opts=opts).h
    ht = newton_solve(turned, grid=grid, opts=opts).h
    assert np.max(np.abs(ht.values - rolled(h.values))) <= 1e-12


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_newton_default_tolerance_is_scale_free(grid, seed):
    # with an absolute tolerance these dilated densities stall at residuals
    # of 1-2e-10, eight times the undilated floor, above the 1e-10 default
    f = _dilated(gen_density(seed, 0.05, 2.0, grid=grid), 8.0, grid)
    result = newton_solve(f, grid=grid)
    assert result.residual_sup <= SolveOptions().tolerance * f.mean()
    assert f.mean() == 8.0


def test_report_csv_schema(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.3)
    result = newton_solve(f, h0=h0)
    lines = result.report_csv().splitlines()
    assert lines[0] == "iter,residual_sup,min_h,min_eig_W,step_size"
    assert len(lines) == len(result.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == 0.0
    # every numeric cell parses back
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        for cell in cells[1:]:
            float(cell)


# ---------------------------------------------------------------------------
# the bandwidth's aliasing floor


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_newton_names_the_aliasing_floor(seed):
    # at L=8 the nodal residual of these solves stalls at 3-9e-7 while its
    # projection onto the grid's harmonics is at rounding level: only a
    # larger bandwidth or a looser tolerance helps, and the error says so
    grid = build_grid(8)
    f = gen_density(seed, 0.05, 2.0, grid=grid)
    with pytest.raises(ConvergenceFailure) as err:
        newton_solve(f, grid=grid, opts=SolveOptions(tolerance=1e-8))
    message = str(err.value)
    assert "aliasing floor of bandwidth 8" in message
    assert "raise --grid-L or loosen --tol" in message
    assert 1e-8 < err.value.residual < 1e-5
    assert f"{err.value.residual:.3e}" in message


def test_aliasing_floor_note_needs_a_small_galerkin_residual():
    assert _aliasing_floor_note(5e-7, 2e-8, 1e-8, 8, "remedy") == ""
    note = _aliasing_floor_note(5e-7, 1e-8, 1e-8, 8, "remedy")
    assert "5.000e-07" in note and "1.000e-08" in note and note.endswith("remedy")

