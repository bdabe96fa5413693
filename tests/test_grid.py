"""Spectral grid tests: quadrature, transforms, derivatives, serialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, lpmv, roots_legendre

from logmink.errors import InvalidParameter
from logmink.grid import (
    HarmonicCoeffs,
    ScalarField,
    analyze,
    build_grid,
    covariant_hessian,
    evaluate_harmonics,
    field_from_csv,
    field_to_csv,
    harmonic_field,
    integrate,
    laplace_beltrami,
    lm_index,
    synthesize,
    tangential_gradient,
    _theta_basis,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(16)


def test_node_count_and_layout(grid):
    assert grid.L == 16
    assert grid.n_nodes == 2 * (16 + 1) ** 2
    assert grid.n_coeffs == (16 + 1) ** 2
    assert grid.nodes.shape == (grid.n_nodes, 3)
    # colatitude-major ordering: theta constant over each longitude block
    nlon = 2 * (grid.L + 1)
    assert_allclose(grid.theta_nodes[:nlon], grid.theta_nodes[0])
    assert grid.theta_nodes[0] < grid.theta_nodes[nlon]


def test_quadrature_weights_exact(grid):
    assert abs(np.sum(grid.weights) - 4.0 * np.pi) < 1e-12
    # second moment of a coordinate: integral of (u.e3)^2 = 4 pi / 3
    field = ScalarField(grid, grid.nodes[:, 2] ** 2)
    assert abs(integrate(field) - 4.0 * np.pi / 3.0) < 1e-12


def test_harmonics_orthonormal(grid):
    pairs = [(0, 0), (1, -1), (2, 0), (3, 2), (5, -4), (8, 8)]
    for la, ma in pairs:
        for lb, mb in pairs:
            prod = harmonic_field(grid, la, ma).values * \
                harmonic_field(grid, lb, mb).values
            want = 1.0 if (la, ma) == (lb, mb) else 0.0
            assert abs(integrate(ScalarField(grid, prod)) - want) < 1e-12


@pytest.mark.parametrize("L", [16, 48])
def test_analyze_synthesize_roundtrip(L):
    grid = build_grid(L)
    rng = np.random.default_rng(5)
    coeffs = HarmonicCoeffs(L, rng.standard_normal(grid.n_coeffs))
    field = synthesize(coeffs, grid)
    back = analyze(field)
    assert_allclose(back.values, coeffs.values, atol=1e-12)


def rotated_about_e3(coeffs, L, alpha):
    """Coefficients of f(theta, phi - alpha) given those of f(theta, phi)."""
    out = np.array(coeffs, dtype=float)
    for l in range(1, L + 1):
        for m in range(1, l + 1):
            a, b = coeffs[lm_index(l, m)], coeffs[lm_index(l, -m)]
            out[lm_index(l, m)] = a * np.cos(m * alpha) - b * np.sin(m * alpha)
            out[lm_index(l, -m)] = a * np.sin(m * alpha) + b * np.cos(m * alpha)
    return out


def test_rotation_about_e3_rolls_each_ring(grid):
    # turning by one longitude step maps the grid onto itself: synthesis of
    # the turned (cos, sin) pairs is the node values rolled by +1 per ring
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(grid.n_coeffs)
    values = synthesize(HarmonicCoeffs(16, coeffs), grid).values
    turned = rotated_about_e3(coeffs, 16, 2.0 * np.pi / grid.nlon)
    got = synthesize(HarmonicCoeffs(16, turned), grid).values
    want = np.roll(values.reshape(grid.nlat, grid.nlon), 1, axis=1).ravel()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(values))


def test_lower_bandwidth_coeffs_embed(grid):
    coeffs = HarmonicCoeffs(4, np.arange(25, dtype=float))
    field = synthesize(coeffs, grid)
    back = analyze(field)
    assert_allclose(back.values[:25], coeffs.values, atol=1e-12)
    assert_allclose(back.values[25:], 0.0, atol=1e-12)


def test_laplacian_eigenvalues(grid):
    for l, m in [(0, 0), (1, 0), (2, 1), (5, 3), (9, -7), (16, 16)]:
        y = harmonic_field(grid, l, m)
        lap = laplace_beltrami(y)
        assert_allclose(lap.values, -l * (l + 1) * y.values, atol=5e-10)


def test_degree_one_hessian_identity(grid):
    # Hess(v . u) + (v . u) I = 0 for every linear height function
    for axis in range(3):
        field = ScalarField(grid, grid.nodes[:, axis])
        H = covariant_hessian(field)
        W = H + field.values[:, None, None] * np.eye(2)[None, :, :]
        assert np.max(np.abs(W)) < 5e-12


def test_hessian_trace_is_laplacian(grid):
    rng = np.random.default_rng(9)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[: lm_index(6, 6) + 1] = rng.standard_normal(lm_index(6, 6) + 1)
    field = synthesize(HarmonicCoeffs(16, coeffs), grid)
    H = covariant_hessian(field)
    lap = laplace_beltrami(field)
    assert_allclose(H[:, 0, 0] + H[:, 1, 1], lap.values, atol=1e-9)


def test_gradient_matches_finite_difference(grid):
    # gradient of u.e3 = cos(theta) is -sin(theta) e_theta
    field = ScalarField(grid, grid.nodes[:, 2])
    grad = tangential_gradient(field)
    expected = -np.sin(grid.theta_nodes)[:, None] * grid.e_theta
    assert_allclose(grad, expected, atol=1e-12)


def test_gradient_is_tangential(grid):
    rng = np.random.default_rng(13)
    field = synthesize(HarmonicCoeffs(16, rng.standard_normal(grid.n_coeffs)), grid)
    grad = tangential_gradient(field)
    radial = np.einsum("ij,ij->i", grad, grid.nodes)
    assert np.max(np.abs(radial)) < 1e-9


def test_hessian_and_gradient_match_finite_differences():
    # central differences of the off-grid evaluation in (theta, phi) against
    # the frame components: H11 = f_tt, H12 = (f_tp - cot f_p) / sin,
    # H22 = f_pp / sin^2 + cot f_t, gradient (f_t, f_p / sin)
    grid = build_grid(12)
    rng = np.random.default_rng(21)
    coeffs = HarmonicCoeffs(12, rng.standard_normal(grid.n_coeffs))
    field = synthesize(coeffs, grid)
    keep = np.sin(grid.theta_nodes) > 0.2
    t, p = grid.theta_nodes[keep], grid.phi_nodes[keep]
    step = 1e-4

    def f(dt, dp):
        return evaluate_harmonics(coeffs, t + dt * step, p + dp * step)

    f_t = (f(1, 0) - f(-1, 0)) / (2 * step)
    f_p = (f(0, 1) - f(0, -1)) / (2 * step)
    f_tt = (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / step**2
    f_pp = (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / step**2
    f_tp = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * step**2)
    st, cot = np.sin(t), np.cos(t) / np.sin(t)

    H = covariant_hessian(field)[keep]
    for got, want in [(H[:, 0, 0], f_tt), (H[:, 0, 1], (f_tp - cot * f_p) / st),
                      (H[:, 1, 1], f_pp / st**2 + cot * f_t)]:
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    grad = tangential_gradient(field)[keep]
    for got, want in [(np.einsum("ij,ij->i", grad, grid.e_theta[keep]), f_t),
                      (np.einsum("ij,ij->i", grad, grid.e_phi[keep]), f_p / st)]:
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_spec_holds_only_ring_tables():
    # every operator lives in nlat x C ring tables and longitude tables; no
    # array spans both the node and the coefficient axis, so L = 48 stays small
    for L in (16, 48):
        grid = build_grid(L)
        arrays = [a for a in vars(grid._spec).values() if isinstance(a, np.ndarray)]
        for a in arrays:
            assert not (grid.n_nodes in a.shape and grid.n_coeffs in a.shape), a.shape
        assert sum(a.nbytes for a in arrays) < 32e6


def test_evaluate_harmonics_off_grid(grid):
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[lm_index(1, 0)] = 1.0
    hc = HarmonicCoeffs(16, coeffs)
    theta = np.array([0.3, 1.2, 2.5])
    phi = np.array([0.1, 3.0, 5.9])
    norm = np.sqrt(3.0 / (4.0 * np.pi))
    assert_allclose(evaluate_harmonics(hc, theta, phi), norm * np.cos(theta),
                    atol=1e-12)


def _lpmv_basis(L, mu):
    """N_lm P_l^m(mu) and its theta-derivative from scipy's lpmv and gammaln."""
    sin_theta = np.sqrt(1.0 - mu**2)
    P = np.zeros((len(mu), L + 1, L + 1))
    dP = np.zeros_like(P)
    for m in range(L + 1):
        l = np.arange(m, L + 1)
        norm = np.exp(0.5 * (np.log(2.0 * l + 1.0) - np.log(4.0 * np.pi)
                             + gammaln(l - m + 1.0) - gammaln(l + m + 1.0)))
        Pm = lpmv(m, l[None, :], mu[:, None])
        Pm_down = np.where(l - 1 >= m, lpmv(m, np.maximum(l - 1, m), mu[:, None]), 0.0)
        P[:, l, m] = Pm * norm
        dP[:, l, m] = (l * mu[:, None] * Pm - (l + m) * Pm_down) / sin_theta[:, None] * norm
    return P, dP


@pytest.mark.parametrize("L", [16, 48, 64])
def test_theta_basis_matches_lpmv(L):
    mu = np.cos(build_grid(L).theta)
    P, dP = _theta_basis(L, mu)
    P_ref, dP_ref = _lpmv_basis(L, mu)
    assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))
    assert np.max(np.abs(dP - dP_ref)) <= 1e-12 * np.max(np.abs(dP_ref))


def _assert_orthonormal_per_order(P, ring_weights):
    """2 pi sum_j w_j Pbar_lm Pbar_l'm = delta_ll' for every order m."""
    L = P.shape[1] - 1
    for m in range(L + 1):
        table = P[:, m:, m]
        gram = table.T @ (ring_weights[:, None] * table)
        assert np.max(np.abs(gram - np.eye(L + 1 - m))) <= 1e-12, m


def test_ring_tables_orthonormal_at_the_cap():
    grid = build_grid(64)
    P, _ = _theta_basis(grid.L, np.cos(grid.theta))
    # one node's weight times the ring's node count is 2 pi w_j
    _assert_orthonormal_per_order(P, grid.weights[::grid.nlon] * grid.nlon)


def test_theta_basis_finite_and_orthonormal_beyond_the_cap():
    L = 96
    x, w = np.polynomial.legendre.leggauss(L + 1)
    P, dP = _theta_basis(L, x)
    assert np.all(np.isfinite(P)) and np.all(np.isfinite(dP))
    _assert_orthonormal_per_order(P, 2.0 * np.pi * w)


@pytest.mark.parametrize("L", [4, 16, 48, 64])
def test_gauss_rule_matches_scipy(L):
    grid = build_grid(L)
    x, w = roots_legendre(L + 1)
    # rings run in ascending theta, so descending cos(theta)
    assert np.max(np.abs(np.cos(grid.theta) - x[::-1])) <= 1e-14
    ring_w = grid.weights[::grid.nlon] * grid.nlon / (2.0 * np.pi)
    assert np.max(np.abs(ring_w - w[::-1])) <= 1e-14
    assert abs(np.sum(grid.weights) - 4.0 * np.pi) <= 1e-12


def test_build_grid_validation():
    with pytest.raises(InvalidParameter):
        build_grid(3)
    with pytest.raises(InvalidParameter):
        build_grid(65)
    with pytest.raises(InvalidParameter):
        build_grid(16.5)


def test_grid_cache_identity():
    assert build_grid(8) is build_grid(8)


def test_field_csv_roundtrip(grid):
    rng = np.random.default_rng(3)
    field = synthesize(HarmonicCoeffs(16, rng.standard_normal(grid.n_coeffs)), grid)
    text = field_to_csv(field)
    assert text.splitlines()[0] == "# grid_L=16"
    assert text.splitlines()[1] == "theta,phi,value"
    back = field_from_csv(text)
    assert back.grid is grid
    assert_allclose(back.values, field.values, rtol=0, atol=0)
    # serialization is exact: a second round trip is byte-identical
    assert field_to_csv(back) == text


def test_field_csv_rejects_wrong_grid(grid):
    field = ScalarField(grid, np.ones(grid.n_nodes))
    text = field_to_csv(field)
    with pytest.raises(InvalidParameter):
        field_from_csv(text, grid=build_grid(8))


def test_scalar_field_validation(grid):
    with pytest.raises(InvalidParameter):
        ScalarField(grid, np.ones(7))
    with pytest.raises(InvalidParameter):
        HarmonicCoeffs(16, np.ones(12))
