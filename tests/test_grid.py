"""Spectral grid tests: quadrature, transforms, derivatives, serialization."""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, lpmv, roots_legendre

import logmink
from logmink.errors import InvalidParameter
from logmink.grid import (
    HarmonicCoeffs,
    ScalarField,
    analyze,
    build_grid,
    evaluate_harmonics,
    field_from_csv,
    field_to_csv,
    harmonic_field,
    integrate,
    lm_index,
    synthesize,
    _csv_text,
    _harmonic_sup,
    _legendre_order,
    _trig_table,
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
        lap = grid.laplacian_values(y.values)
        assert_allclose(lap, -l * (l + 1) * y.values, atol=5e-10)


def test_degree_one_hessian_identity(grid):
    # Hess(v . u) + (v . u) I = 0 for every linear height function
    for axis in range(3):
        field = ScalarField(grid, grid.nodes[:, axis])
        _, h11, h12, h22 = grid.hessian_components(grid.analyze_values(field.values))
        W = np.stack([h11 + field.values, h12, h22 + field.values])
        assert np.max(np.abs(W)) < 5e-12


def test_hessian_trace_is_laplacian(grid):
    rng = np.random.default_rng(9)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[: lm_index(6, 6) + 1] = rng.standard_normal(lm_index(6, 6) + 1)
    field = synthesize(HarmonicCoeffs(16, coeffs), grid)
    _, h11, _, h22 = grid.hessian_components(grid.analyze_values(field.values))
    assert_allclose(h11 + h22, grid.laplacian_values(field.values), atol=1e-9)


@pytest.mark.parametrize("L", [16, 48, 64])
def test_hessian_from_coefficients_has_the_exact_laplacian_trace(L):
    # the trace of the covariant Hessian is the Laplacian, which scales the
    # degree-l coefficients by -l(l+1); one pass from the coefficients meets
    # it to rounding, with no analysis whose error l(l+1) would multiply
    grid = build_grid(L)
    coeffs = np.random.default_rng(L).standard_normal(grid.n_coeffs)
    h, h11, _, h22 = grid.hessian_components(coeffs)
    lap = grid.synthesize_coeffs(grid._spec.lap_eig * coeffs)
    assert np.max(np.abs(h11 + h22 - lap)) <= 1e-14 * np.max(np.abs(lap))
    values = grid.synthesize_coeffs(coeffs)
    assert np.max(np.abs(h - values)) <= 1e-14 * np.max(np.abs(values))


def _ambient_gradient(grid, coeffs):
    """The gradient of the expansion ``coeffs`` as ambient 3-vectors at the nodes."""
    gt, gp = grid.gradient_components(coeffs)
    return gt[:, None] * grid.e_theta + gp[:, None] * grid.e_phi


def test_gradient_matches_finite_difference(grid):
    # gradient of u.e3 = cos(theta) is -sin(theta) e_theta
    field = ScalarField(grid, grid.nodes[:, 2])
    grad = _ambient_gradient(grid, grid.analyze_values(field.values))
    expected = -np.sin(grid.theta_nodes)[:, None] * grid.e_theta
    assert_allclose(grad, expected, atol=1e-12)


def test_gradient_is_tangential(grid):
    rng = np.random.default_rng(13)
    grad = _ambient_gradient(grid, rng.standard_normal(grid.n_coeffs))
    radial = np.einsum("ij,ij->i", grad, grid.nodes)
    assert np.max(np.abs(radial)) < 1e-9


@pytest.mark.parametrize("L", [16, 48, 64])
def test_gradient_of_a_degree_one_harmonic_is_exact(L):
    # the height a.u has the tangential gradient a - (a.u) u; the real
    # harmonics of degree one carry the Condon-Shortley sign at m = +-1:
    # u.e1 = -k Y_11, u.e2 = -k Y_1-1, u.e3 = k Y_10 with k = sqrt(4 pi / 3)
    grid = build_grid(L)
    a = np.array([0.3, -0.2, 0.45])
    k = np.sqrt(4.0 * np.pi / 3.0)
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[[lm_index(1, 1), lm_index(1, -1), lm_index(1, 0)]] = k * a * [-1.0, -1.0, 1.0]
    u = grid.nodes
    assert np.max(np.abs(grid.synthesize_coeffs(coeffs) - u @ a)) <= 1e-14
    want = a - (u @ a)[:, None] * u
    assert np.max(np.abs(_ambient_gradient(grid, coeffs) - want)) <= 1e-14


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

    h11, h12, h22 = (H[keep] for H in
                     grid.hessian_components(grid.analyze_values(field.values))[1:])
    for got, want in [(h11, f_tt), (h12, (f_tp - cot * f_p) / st),
                      (h22, f_pp / st**2 + cot * f_t)]:
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    grad = _ambient_gradient(grid, coeffs.values)[keep]
    for got, want in [(np.einsum("ij,ij->i", grad, grid.e_theta[keep]), f_t),
                      (np.einsum("ij,ij->i", grad, grid.e_phi[keep]), f_p / st)]:
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_spec_holds_only_ring_tables():
    # every operator lives in order-major ring tables and longitude tables; no
    # array spans both the node and the coefficient axis, and none pairs every
    # two signed orders (the Galerkin assembly forms its trig products itself)
    for L in (16, 48, 64):
        grid = build_grid(L)
        arrays = [a for a in vars(grid._spec).values() if isinstance(a, np.ndarray)]
        for a in arrays:
            assert not (grid.n_nodes in a.shape and grid.n_coeffs in a.shape), a.shape
            assert (2 * L + 1) ** 2 not in a.shape, a.shape
        # four (2L+1) x nlat x (L+1) blocks (values and three Hessian parts;
        # no gradient table), the trig table, the ring weights and three
        # per-coefficient vectors: 17.7 MB at the cap
        tables = 4 * (2 * L + 1) * grid.nlat * (L + 1)
        bound = 8 * (tables + grid.nlon * (2 * L + 1) + grid.nlat + 3 * grid.n_coeffs)
        assert sum(a.nbytes for a in arrays) <= bound < 18e6


def _stacked_orders(L, mu):
    """``[point, l, m]`` cubes of ``Pbar_lm`` and its theta-derivative, stacked
    from one ``_legendre_order`` call per order (zero where ``l < m``)."""
    blocks = [_legendre_order(L, m, mu) for m in range(L + 1)]
    return tuple(np.stack(part, axis=2) for part in zip(*blocks))


def _dense_rings(grid):
    """Per-coefficient basis columns and their derivatives, one ring at a time.

    Column ``(l, m)`` at ring ``j`` is ``Pbar_lm(theta_j) T_m(phi)``; the
    longitude factor ``T_m`` and its phi-derivatives are written out from cos
    and sin, and the second theta-derivative comes from the associated
    Legendre equation.  Yields the ring's node slice and ``(nlon, C)`` blocks
    of the values, gradient and Hessian frame components and Laplacian.
    """
    L = grid.L
    lm = [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]
    assert [lm_index(l, m) for l, m in lm] == list(range(grid.n_coeffs))
    ls, ms = np.array(lm).T
    P, dP = _stacked_orders(L, np.cos(grid.theta))
    trig = _trig_table(L, grid.phi)[:, ms + L]
    angle = np.outer(grid.phi, np.abs(ms))
    root2 = np.sqrt(2.0)
    trig_phi = np.where(ms > 0, -root2 * ms * np.sin(angle),
                        np.where(ms < 0, root2 * np.abs(ms) * np.cos(angle), 0.0))
    trig_phiphi = -(ms**2) * trig
    for j, theta in enumerate(grid.theta):
        st, cot = np.sin(theta), np.cos(theta) / np.sin(theta)
        p, p_t = P[j, ls, np.abs(ms)], dP[j, ls, np.abs(ms)]
        p_tt = -cot * p_t - (ls * (ls + 1) - ms**2 / st**2) * p
        f, f_t, f_p = p * trig, p_t * trig, p * trig_phi
        yield slice(j * grid.nlon, (j + 1) * grid.nlon), {
            "values": f, "g1": f_t, "g2": f_p / st, "h11": p_tt * trig,
            "h12": (p_t * trig_phi - cot * f_p) / st,
            "h22": p * trig_phiphi / st**2 + cot * f_t, "lap": -(ls * (ls + 1)) * f}


@pytest.mark.parametrize("L", [16, 48])
def test_transforms_match_dense_basis_columns(L):
    # random coefficients at every (l, m) exercise every signed order and its
    # partner -m.  Synthesis and analysis are checked against the dense sums;
    # the derivative operators act on the analyzed coefficients, so their
    # reference does too.
    grid = build_grid(L)
    coeffs = np.random.default_rng(L).standard_normal(grid.n_coeffs)
    values = grid.synthesize_coeffs(coeffs)
    back = grid.analyze_values(values)
    got = {"values": values, "lap": grid.laplacian_values(values)}
    got["g1"], got["g2"] = grid.gradient_components(back)
    got["h"], got["h11"], got["h12"], got["h22"] = grid.hessian_components(back)
    want = {name: np.empty(grid.n_nodes) for name in got}
    projection = np.zeros(grid.n_coeffs)
    for ring, columns in _dense_rings(grid):
        want["values"][ring] = columns["values"] @ coeffs
        want["h"][ring] = columns["values"] @ back
        for name in ("g1", "g2", "h11", "h12", "h22", "lap"):
            want[name][ring] = columns[name] @ back
        projection += columns["values"].T @ (grid.weights[ring] * values[ring])
    for name, ref in want.items():
        assert np.max(np.abs(got[name] - ref)) <= 1e-13 * np.max(np.abs(ref)), name
    assert np.max(np.abs(back - projection)) <= 1e-13 * np.max(np.abs(projection))


@pytest.mark.parametrize("l, m", [(1, 1), (5, -3), (16, 16), (48, 3), (48, -47)])
def test_harmonic_sup_builds_one_legendre_column(l, m):
    mu = np.cos(np.linspace(0.0, np.pi, 4097)[1:-1])
    column = _stacked_orders(l, mu)[0][:, l, abs(m)]
    assert _harmonic_sup(l, m) == float(np.sqrt(2.0) * np.max(np.abs(column)))


def test_only_the_grid_module_reads_the_ring_tables():
    private = re.compile(r"\._spec\b|\b_legendre_order\b|\b_trig_table\b|\b_degree_order_arrays\b")
    modules = sorted(Path(logmink.__file__).parent.glob("*.py"))
    assert any(path.name == "grid.py" for path in modules)
    readers = [path.name for path in modules
               if path.name != "grid.py" and private.search(path.read_text())]
    assert readers == []


def test_every_public_member_of_an_exported_class_is_named():
    # dead-API guard: each public method, property and dataclass field of a
    # class that the package exports is named in src/, tests/ or the README
    # somewhere besides its own definition
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "src").rglob("*.py")), *sorted((root / "tests").rglob("*.py")),
             root / "README.md"]
    corpus = "\n".join(path.read_text() for path in paths)
    named = Counter(re.findall(r"\w+", corpus))
    defined = Counter(a or b for a, b in re.findall(r"(?m)^\s*(?:def (\w+)|(\w+)\s*:)", corpus))
    unnamed = []
    for cls_name, cls in sorted(vars(logmink).items()):
        if cls_name.startswith("_") or not inspect.isclass(cls):
            continue
        members = {name for name in vars(cls) if not name.startswith("_")}
        if dataclasses.is_dataclass(cls):
            members |= {f.name for f in dataclasses.fields(cls)}
        unnamed += [f"{cls_name}.{name}" for name in sorted(members)
                    if named[name] <= defined[name]]
    assert "Polytope" in vars(logmink) and unnamed == []


_ROOT = Path(__file__).resolve().parents[1]
_MODULES = [path for path in sorted((_ROOT / "src" / "logmink").glob("*.py"))
            if path.name != "__init__.py"]


def _loads(paths, *kinds):
    """Names loaded in the Python files by ast nodes of the given kinds: the
    ``id`` of an ``ast.Name``, the ``attr`` of an ``ast.Attribute``."""
    loads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load):
                loads.add(node.id if isinstance(node, ast.Name) else node.attr)
    return loads


def test_every_exported_name_is_read_or_documented():
    # dead-API guard: each name logmink/__init__.py exports is read by the
    # package's own modules (docstrings do not count) or named in the README,
    # and each attribute an exported class sets in __init__ is read as .name
    # in src/, tests/, perfbench/ or the README
    init = ast.parse((_ROOT / "src" / "logmink" / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (_ROOT / "README.md").read_text()
    reads = _loads(_MODULES, ast.Name, ast.Attribute)
    unread = [name for name in exported
              if name not in reads and not re.search(rf"\b{name}\b", readme)]
    attribute_reads = _loads([*(_ROOT / "src").rglob("*.py"), *(_ROOT / "tests").rglob("*.py"),
                              *(_ROOT / "perfbench").rglob("*.py")], ast.Attribute)
    attribute_reads |= set(re.findall(r"\.(\w+)", readme))
    unread_attributes = []
    for path in _MODULES:
        for cls in ast.parse(path.read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for init_def in cls.body:
                if isinstance(init_def, ast.FunctionDef) and init_def.name == "__init__":
                    unread_attributes += [
                        f"{cls.name}.{node.attr}" for node in ast.walk(init_def)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in attribute_reads]
    assert "volume_from_support" in exported
    assert (unread, unread_attributes) == ([], [])


def test_every_module_level_import_is_used():
    # each name a package module imports at module level is loaded in that
    # module; the re-exports of __init__.py and __future__ imports are exempt
    unused = []
    for path in _MODULES:
        tree = ast.parse(path.read_text())
        loaded = _loads([path], ast.Name)
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name not in loaded]
    assert len(_MODULES) > 1 and unused == []


def test_evaluate_harmonics_off_grid(grid):
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[lm_index(1, 0)] = 1.0
    hc = HarmonicCoeffs(16, coeffs)
    theta = np.array([0.3, 1.2, 2.5])
    phi = np.array([0.1, 3.0, 5.9])
    norm = np.sqrt(3.0 / (4.0 * np.pi))
    assert_allclose(evaluate_harmonics(hc, theta, phi), norm * np.cos(theta),
                    atol=1e-12)
    with pytest.raises(InvalidParameter, match="matching shapes"):
        evaluate_harmonics(hc, theta, phi[:2])
    for pole in (0.0, np.pi):
        with pytest.raises(InvalidParameter, match="must avoid the poles"):
            evaluate_harmonics(hc, np.array([1.0, pole]), phi[:2])


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
    P, dP = _stacked_orders(L, mu)
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
    P, _ = _stacked_orders(grid.L, np.cos(grid.theta))
    # one node's weight times the ring's node count is 2 pi w_j
    _assert_orthonormal_per_order(P, grid.weights[::grid.nlon] * grid.nlon)


def test_theta_basis_finite_and_orthonormal_beyond_the_cap():
    L = 96
    x, w = np.polynomial.legendre.leggauss(L + 1)
    P, dP = _stacked_orders(L, x)
    assert np.all(np.isfinite(P)) and np.all(np.isfinite(dP))
    _assert_orthonormal_per_order(P, 2.0 * np.pi * w)


def test_sectoral_running_product_matches_the_loop():
    # _legendre_order takes Pbar_mm from one running product over the orders;
    # it must equal the step-by-step recurrence bit for bit
    L = 96
    mu = np.polynomial.legendre.leggauss(L + 1)[0]
    sin_theta = np.sqrt(1.0 - mu**2)
    sectoral = np.full(len(mu), 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(L + 1):
        if m:
            sectoral = -np.sqrt((2 * m + 1) / (2 * m)) * sin_theta * sectoral
        assert np.array_equal(_legendre_order(L, m, mu)[0][:, m], sectoral), m


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


@pytest.mark.parametrize("call", [
    lambda: lm_index(2.5, 0),
    lambda: lm_index(2, True),
    lambda: harmonic_field(build_grid(8), 2.5, 0),
    lambda: logmink.DensityFunction.from_harmonics([(1.5, 0, 0.1)]),
    lambda: build_grid("abc"),
    lambda: build_grid(np.inf),
    lambda: logmink.ExperimentSpec(kind="bound", count=2.5),
    lambda: logmink.ExperimentSpec(kind="bound", seed=np.nan),
    lambda: logmink.ExperimentSpec(kind="bound", L=True),
    lambda: logmink.gen_density(1.5, 0.05, 2.0),
    lambda: logmink.ball_offset_outer(logmink.convex_hull_3d(np.vstack((np.eye(3), -np.eye(3)))),
                                      0.1, n_directions=4.5),
], ids=["lm-degree", "lm-bool-order", "harmonic-field", "from-harmonics",
        "grid-string", "grid-inf", "spec-count", "spec-seed", "spec-bool-L",
        "gen-density-seed", "offset-directions"])
def test_integer_parameters_reject_non_integers(call):
    with pytest.raises(InvalidParameter, match="must be an integer"):
        call()


def test_integer_parameters_accept_integral_numbers():
    assert build_grid(np.int64(8)) is build_grid(8.0) is build_grid(8)
    assert lm_index(np.int32(2), 1.0) == lm_index(2, 1)
    spec = logmink.ExperimentSpec(kind="bound", count=np.int64(2), seed=3.0, L=16.0)
    assert (spec.count, spec.seed, spec.L) == (2, 3, 16)
    assert all(type(v) is int for v in (spec.count, spec.seed, spec.L))
    assert "count=2 seed=3 " in spec.describe() and " L=16 " in spec.describe()


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


def test_csv_template_path_writes_the_row_path_bytes():
    # a float array goes through one %r template, a list of rows through
    # _csv_cell; both write each float as its repr
    values = np.array([[-0.0, 5e-324, 1e16], [1e-05, 0.1 + 0.2, -1.5e-300]])
    text = _csv_text("a,b,c", values, head=["h"], tail=["t"])
    assert text == _csv_text("a,b,c", values.tolist(), head=["h"], tail=["t"])
    assert text.splitlines()[2:4] == ["-0.0,5e-324,1e+16", "1e-05,0.30000000000000004,-1.5e-300"]


def test_field_csv_rejects_wrong_grid(grid):
    field = ScalarField(grid, np.ones(grid.n_nodes))
    text = field_to_csv(field)
    with pytest.raises(InvalidParameter):
        field_from_csv(text, grid=build_grid(8))


@pytest.mark.parametrize("text, message", [
    ("theta,phi,value\n0.1,abc,1\n", "line 2: bad number"),
    ("# grid_L=4\ntheta,phi,value\n0.1,0.2\n", "line 3: expected 3 fields"),
    ("0.1,0.2,1\n", "line 1: expected the header"),
    ("# grid_L=abc\ntheta,phi,value\n0.1,0.2,1\n", "integer grid_L"),
    ("# grid_L=4\ntheta,phi,value\n", "the header theta,phi,value and at least one row"),
    (field_to_csv(ScalarField(build_grid(4), np.ones(build_grid(4).n_nodes)))
     .replace(",0.0,1.0\n", ",0.5,1.0\n"), "node angles do not match the grid layout"),
], ids=["bad-number", "field-count", "missing-header", "bad-grid_L", "header-only",
        "shifted-angles"])
def test_field_csv_rejects_malformed_text(text, message):
    with pytest.raises(InvalidParameter, match=message):
        field_from_csv(text)


def test_scalar_field_validation(grid):
    with pytest.raises(InvalidParameter):
        ScalarField(grid, np.ones(7))
    with pytest.raises(InvalidParameter):
        HarmonicCoeffs(16, np.ones(12))


def test_degrees_orders_and_bandwidths_are_checked():
    with pytest.raises(InvalidParameter, match=r"\|m\| <= l required, got l=2, m=3"):
        lm_index(2, 3)
    with pytest.raises(InvalidParameter, match="bandwidth must be nonnegative"):
        HarmonicCoeffs(-1, np.zeros(0))


def _sphere_coeffs(grid):
    coeffs = np.zeros(grid.n_coeffs)
    coeffs[0] = np.sqrt(4.0 * np.pi)
    return coeffs


def _cube_polytope(vertices):
    P = logmink.convex_hull_3d(vertices)
    return logmink.Polytope(vertices, P.normals, P.offsets, P.areas, P.loops, P.centroid)


# value type -> (the caller's array, the constructor given it, the attribute
# that holds the instance's copy)
_VALUE_TYPES = {
    "ScalarField": (lambda g: np.ones(g.n_nodes), ScalarField, "values"),
    "HarmonicCoeffs": (lambda g: np.ones(g.n_coeffs),
                       lambda g, a: HarmonicCoeffs(g.L, a), "values"),
    "SupportFunction": (_sphere_coeffs, logmink.SupportFunction, "coeffs"),
    "DiscreteMeasure": (lambda g: np.eye(3),
                        lambda g, a: logmink.DiscreteMeasure(a, np.ones(3)), "vectors"),
    "Ellipsoid": (lambda g: np.eye(3),
                  lambda g, a: logmink.Ellipsoid(np.zeros(3), np.ones(3), a), "axes"),
    "Polytope": (lambda g: np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                                     for z in (-1.0, 1.0)]),
                 lambda g, a: _cube_polytope(a), "vertices"),
}


# SupportFunction fails its certificate on non-finite coefficients, and
# Polytope holds prepared hull data, so neither goes through the checked copy
@pytest.mark.parametrize("kind", ["DiscreteMeasure", "Ellipsoid", "HarmonicCoeffs",
                                  "ScalarField"])
def test_value_types_check_shape_and_finiteness_by_one_rule(grid, kind):
    make, build, _ = _VALUE_TYPES[kind]
    given = make(grid)
    with pytest.raises(InvalidParameter, match=r"must have shape \(.*\), got shape"):
        build(grid, given[..., :-1])
    ragged = given.tolist()
    ragged[-1] = [ragged[-1], 0.0]
    with pytest.raises(InvalidParameter, match="must be a regular array of numbers: "
                                               "setting an array element with a sequence"):
        build(grid, ragged)
    text = given.astype(object)
    text[(0,) * given.ndim] = "x"
    with pytest.raises(InvalidParameter, match="must be a regular array of numbers: "
                                               "could not convert string to float: 'x'"):
        build(grid, text)
    given[(0,) * given.ndim] = np.nan
    with pytest.raises(InvalidParameter, match="non-finite entries in "):
        build(grid, given)


@pytest.mark.parametrize("kind", sorted(_VALUE_TYPES))
def test_value_types_copy_the_arrays_they_are_given(grid, kind):
    make, build, attribute = _VALUE_TYPES[kind]
    given = make(grid)
    assert given.dtype == np.float64 and given.flags.writeable
    before = given.copy()
    held = getattr(build(grid, given), attribute)
    given[0] = 0.5  # the caller's array stays writable
    assert np.array_equal(held, before)
    assert not held.flags.writeable
