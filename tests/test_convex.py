"""Polytope, measure, ellipsoid, and outer-approximation tests."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull

import logmink
from logmink import convex
from logmink.convex import (
    DiscreteMeasure,
    Ellipsoid,
    ball_offset_outer,
    blowdown_diagnostics,
    cone_volume_measure,
    convex_hull_3d,
    enclosing_ellipsoid,
    hausdorff_distance,
    measure_from_csv,
    measure_to_csv,
    polytope_from_obj,
    polytope_from_support,
    polytope_to_obj,
    surface_area_measure,
    volume,
    volume_from_support,
)
from logmink.errors import (
    ConvergenceFailure,
    DimensionDeficient,
    GridMismatch,
    InvalidParameter,
    OriginNotContained,
)
from logmink.experiments import gen_density
from logmink.grid import ScalarField, build_grid, tangential_gradient
from logmink.solver import DensityFunction, SolveOptions, SupportFunction, newton_solve


def cube_points(half=1.0):
    corners = np.array([[sx, sy, sz] for sx in (-1, 1)
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    return half * corners


def random_cloud(seed, n=40):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3))


@pytest.fixture(scope="module")
def newton_boundaries():
    """Boundary points x(u) = grad h + h u of three L=16 Newton solutions.

    Their hulls have about 1130 facets, mostly triangles with 15-20 merged
    quadrilaterals.
    """
    grid = build_grid(16)
    clouds = []
    for seed in (700001, 700002, 700003):
        f = gen_density(seed, 0.05, 2.0, grid=grid)
        h = newton_solve(f, grid=grid, opts=SolveOptions(tolerance=1e-8)).h
        clouds.append(tangential_gradient(h.field) + h.values[:, None] * grid.nodes)
    return clouds


# ---------------------------------------------------------------------------
# hull construction


def test_cube_hull():
    pts = np.vstack([cube_points(), [[0.1, 0.0, 0.0]]])  # interior point dropped
    P = convex_hull_3d(pts)
    assert P.n_vertices == 8
    assert P.n_facets == 6
    assert_allclose(np.sort(P.areas), 4.0, atol=1e-12)
    assert_allclose(np.sort(P.offsets), 1.0, atol=1e-12)
    assert_allclose(P.centroid, 0.0, atol=1e-12)
    # normals are the six signed coordinate directions
    assert_allclose(np.abs(P.normals).max(axis=1), 1.0, atol=1e-12)


def test_simplex_hull():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    P = convex_hull_3d(pts)
    assert P.n_vertices == 4
    assert P.n_facets == 4
    assert abs(volume(P) - 1.0 / 6.0) < 1e-14


def test_hull_merges_coplanar_triangles():
    # qhull triangulates the cube faces; the merged hull must report squares
    P = convex_hull_3d(cube_points(2.5))
    assert P.n_facets == 6
    for loop in P.loops:
        assert len(loop) == 4


def _newell(loop_points):
    """Area vector (1/2) sum v_i x v_(i+1) of a closed polygon."""
    return 0.5 * np.cross(loop_points, np.roll(loop_points, -1, axis=0)).sum(axis=0)


def _merge_groups(points):
    """Facet grouping from scratch: connected components of qhull's
    triangle adjacency graph restricted to normals within the merge
    tolerance, listed by their smallest triangle index."""
    hull = ConvexHull(points)
    n_tri = hull.simplices.shape[0]
    rows = np.repeat(np.arange(n_tri), 3)
    cols = hull.neighbors.ravel()
    normals = hull.equations[:, :3]
    close = 1.0 - np.sum(normals[rows] * normals[cols], axis=1) <= 1e-9
    graph = coo_matrix((np.ones(int(close.sum())), (rows[close], cols[close])),
                       shape=(n_tri, n_tri))
    _, label = connected_components(graph, directed=False)
    groups = {}
    for tri, lab in enumerate(label):
        groups.setdefault(lab, set()).update(hull.simplices[tri].tolist())
    return [frozenset(map(tuple, points[sorted(ids)])) for ids in groups.values()]


@pytest.mark.parametrize("body", ["cube", "cloud", "newton"])
def test_hull_facets_match_independent_oracles(body, newton_boundaries):
    points = {"cube": cube_points(1.5) * np.array([1.0, 2.0, 3.0]),
              "cloud": random_cloud(3),
              "newton": newton_boundaries[0]}[body]
    P = convex_hull_3d(points)
    sizes = [len(loop) for loop in P.loops]
    if body == "cube":
        assert sizes == [4] * 6
    elif body == "cloud":
        assert set(sizes) == {3}
    else:
        assert 3 in sizes and sum(k > 3 for k in sizes) >= 5
    # one facet per merge group, in the order of the groups' first triangles
    groups = _merge_groups(points)
    loops = P.loops
    assert [frozenset(map(tuple, P.vertices[list(loop)])) for loop in loops] == groups
    for loop, f_normal, f_offset, f_area in zip(loops, P.normals, P.offsets, P.areas):
        rel = P.vertices[list(loop)] - P.vertices[list(loop)].mean(axis=0)
        area_vector = _newell(rel)
        normal = area_vector / np.linalg.norm(area_vector)
        assert np.max(np.abs(normal - f_normal)) <= 1e-13
        # counter-clockwise about the outward normal, and convex: every
        # turn of the loop is a left turn
        edges = np.roll(rel, -1, axis=0) - rel
        assert np.all(np.cross(edges, np.roll(edges, -1, axis=0)) @ f_normal > 0.0)
        # area of the loop projected onto its mean plane, by the 3D
        # shoelace formula
        flat = rel - np.outer(rel @ normal, normal)
        assert abs(np.linalg.norm(_newell(flat)) - f_area) <= 1e-13
        assert abs(np.max(P.vertices[list(loop)] @ f_normal) - f_offset) <= 1e-13


def test_hull_batches_facet_geometry_by_vertex_count(monkeypatch, newton_boundaries):
    # structural guard: the in-plane bases are built once per distinct
    # facet size (triangles, quadrilaterals, ...), never once per facet
    calls = []
    orthobasis = convex._orthobasis

    def counting(normals):
        calls.append(normals.shape[0])
        return orthobasis(normals)

    monkeypatch.setattr(convex, "_orthobasis", counting)
    P = convex_hull_3d(newton_boundaries[0])
    assert len(calls) == len({len(loop) for loop in P.loops})
    assert sum(calls) == P.n_facets


def stretched_spiral(n):
    """n golden-spiral points on the ellipsoid with semi-axes (1, 1.3, 0.8)."""
    return convex._spiral_directions(n) * np.array([1.0, 1.3, 0.8])


@pytest.mark.parametrize("block_entries", [convex._BLOCK_ENTRIES, 1 << 12])
def test_hull_check_catches_a_loose_merge(monkeypatch, block_entries):
    # merging facets 8 degrees apart leaves vertices outside the merged
    # planes; every vertex is still checked against every facet when the
    # check runs over many vertex blocks
    monkeypatch.setattr(convex, "_MERGE_TOL", 1e-2)
    monkeypatch.setattr(convex, "_BLOCK_ENTRIES", block_entries)
    with pytest.raises(InvalidParameter, match="internal hull inconsistency"):
        convex_hull_3d(stretched_spiral(600))


def test_hull_and_support_memory_is_linear():
    # guard against V x F (hull check) and V x D (support) product
    # matrices: at 4800 points and directions they take 370 and 180 MB
    pts = stretched_spiral(4800)
    convex_hull_3d(pts[:50])  # load qhull outside the measurement
    tracemalloc.start()
    try:
        P = convex_hull_3d(pts)
        hull_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        P.support(convex._spiral_directions(4800))
        support_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.n_vertices == 4800
    assert hull_peak < 64e6
    assert support_peak < 32e6


def test_sphere_cloud_all_extreme():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((100, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    P = convex_hull_3d(pts)
    assert P.n_vertices == 100


def test_hull_rejects_degenerate():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DimensionDeficient):
        convex_hull_3d(flat)
    with pytest.raises(InvalidParameter):
        convex_hull_3d(np.zeros((3, 3)))


def test_polytope_transforms():
    P = convex_hull_3d(cube_points())
    assert P.contains_origin()
    shift = np.array([5.0, 0.0, 0.0])
    Q = P.translated(shift)
    assert not Q.contains_origin()
    assert abs(volume(Q) - volume(P)) < 1e-12
    assert_allclose(Q.offsets, P.offsets + P.normals @ shift, atol=1e-14)
    assert_allclose(Q.centroid, P.centroid + shift, atol=1e-14)
    assert Q.loops == P.loops
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                  [np.sin(theta), np.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    PR = P.rotated(R)
    assert abs(volume(PR) - volume(P)) < 1e-12
    assert_allclose(PR.normals, P.normals @ R.T, atol=1e-15)
    assert np.array_equal(PR.areas, P.areas)
    # the facet arrays are read-only data, not copies to edit
    for arr in (P.normals, P.offsets, P.areas, PR.vertices, PR.centroid):
        assert not arr.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.normals = PR.normals
    with pytest.raises(InvalidParameter):
        P.rotated(2.0 * R)  # not orthogonal
    with pytest.raises(InvalidParameter):
        P.rotated(np.diag([1.0, 1.0, -1.0]))  # reflection


# ---------------------------------------------------------------------------
# support values


def test_cube_support_values():
    P = convex_hull_3d(cube_points())
    assert abs(P.support([1.0, 0.0, 0.0]) - 1.0) < 1e-14
    diag = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    assert abs(P.support(diag) - np.sqrt(3.0)) < 1e-14
    dirs = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    vals = P.support(dirs)
    assert vals.shape == (2,)
    # width in any direction is positive
    assert vals[0] + vals[1] > 0.0


# The blocked maximum equals the dense reduction bit for bit when BLAS runs
# on one thread; a threaded GEMM splits each product among its threads by
# the product's size, so the comparison runs in a single-threaded child.
_BLOCKED_MAX_SCRIPT = """
import numpy as np
from logmink import convex

rng = np.random.default_rng(5)
for cap in (convex._BLOCK_ENTRIES, 1 << 10):
    convex._BLOCK_ENTRIES = cap
    for n_vertices, n_directions in ((4802, 1), (4802, 3), (4802, 800), (101, 9174)):
        vertices = rng.standard_normal((n_vertices, 3)) * [1.0, 1.3, 0.8]
        directions = rng.standard_normal((n_directions, 3))
        blocked = convex._max_dot(vertices, directions)
        dense = (vertices @ directions.T).max(axis=0)
        assert np.array_equal(blocked, dense), (cap, n_vertices, n_directions)

    P = convex.convex_hull_3d(convex._spiral_directions(4802) * [1.0, 1.3, 0.8])
    u = np.array([0.3, -0.5, 0.8])
    one = P.support(u)
    assert type(one) is float and one == (P.vertices @ u[:, None]).max(), cap
    stack = convex._spiral_directions(800)
    assert np.array_equal(P.support(stack), (P.vertices @ stack.T).max(axis=0)), cap
print("ok")
"""


def test_blocked_max_equals_dense_reduction():
    src = os.path.dirname(os.path.dirname(os.path.abspath(logmink.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", _BLOCKED_MAX_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# measures


def test_cube_surface_measure():
    P = convex_hull_3d(cube_points())
    S = surface_area_measure(P).sorted()
    assert S.n_atoms == 6
    assert_allclose(S.weights, 4.0, atol=1e-12)
    assert abs(S.total() - 24.0) < 1e-12
    # atoms are the signed coordinate directions
    expected = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, -1],
                         [0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
    assert_allclose(S.vectors, expected, atol=1e-12)


def test_cube_cone_volume_measure():
    P = convex_hull_3d(cube_points())
    V = cone_volume_measure(P)
    assert V.n_atoms == 6
    assert_allclose(V.weights, 4.0 / 3.0, atol=1e-12)
    assert abs(V.total() - volume(P)) < 1e-12


def test_scaled_cube_measure_scaling():
    t = 1.7
    S1 = surface_area_measure(convex_hull_3d(cube_points())).sorted()
    St = surface_area_measure(convex_hull_3d(cube_points(t))).sorted()
    assert_allclose(St.weights, t * t * S1.weights, rtol=1e-12)
    V1 = cone_volume_measure(convex_hull_3d(cube_points())).sorted()
    Vt = cone_volume_measure(convex_hull_3d(cube_points(t))).sorted()
    assert_allclose(Vt.weights, t ** 3 * V1.weights, rtol=1e-12)


def test_cone_volume_total_is_volume():
    # the defining identity V(P) = sum of cone volumes, on random hulls
    for seed in range(10):
        P = convex_hull_3d(random_cloud(seed))
        if not P.contains_origin():
            P = P.translated(-P.centroid)
        total = cone_volume_measure(P).total()
        vol = volume(P)
        assert abs(total - vol) <= 1e-9 * vol


def test_surface_measure_against_triangulation():
    pts = random_cloud(21)
    P = convex_hull_3d(pts)
    hull = ConvexHull(pts)
    assert abs(surface_area_measure(P).total() - hull.area) < 1e-9 * hull.area


def test_measure_rotation_equivariance():
    P = convex_hull_3d(random_cloud(7))
    theta = 1.1
    R = np.array([[np.cos(theta), 0.0, np.sin(theta)],
                  [0.0, 1.0, 0.0],
                  [-np.sin(theta), 0.0, np.cos(theta)]])
    S = surface_area_measure(P).sorted()
    SR = surface_area_measure(P.rotated(R)).sorted()
    rotated_atoms = DiscreteMeasure((R @ S.vectors.T).T, S.weights).sorted()
    assert_allclose(SR.vectors, rotated_atoms.vectors, atol=1e-10)
    assert_allclose(SR.weights, rotated_atoms.weights, atol=1e-10)


def test_cone_measure_needs_origin():
    P = convex_hull_3d(cube_points()).translated([3.0, 0.0, 0.0])
    with pytest.raises(OriginNotContained):
        cone_volume_measure(P)


def test_minkowski_relation():
    # the surface area measure of any polytope has zero barycenter
    for seed in (2, 9):
        S = surface_area_measure(convex_hull_3d(random_cloud(seed)))
        resultant = S.vectors.T @ S.weights
        assert np.max(np.abs(resultant)) < 1e-10


def test_measure_validation():
    with pytest.raises(InvalidParameter):
        DiscreteMeasure(np.array([[2.0, 0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(InvalidParameter):
        DiscreteMeasure(np.array([[1.0, 0.0, 0.0]]), np.array([-0.5]))
    with pytest.raises(InvalidParameter, match="at least one atom"):
        DiscreteMeasure(np.zeros((0, 3)), np.zeros(0))
    m = DiscreteMeasure(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert m.integrate(lambda u: u[:, 0]) == 1.0
    with pytest.raises(InvalidParameter):
        m.integrate(np.ones(2))


# ---------------------------------------------------------------------------
# volumes and distances


def test_volume_oracles():
    assert abs(volume(convex_hull_3d(cube_points())) - 8.0) < 1e-12
    grid = build_grid(16)
    ball = SupportFunction.constant(grid, 1.0)
    assert abs(volume_from_support(ball) - 4.0 * np.pi / 3.0) < 1e-10
    two_ball = SupportFunction.constant(grid, 2.0)
    assert abs(volume_from_support(two_ball) - 32.0 * np.pi / 3.0) < 1e-9


def test_volume_translation_invariance():
    grid = build_grid(16)
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    c[2] = 0.1 * np.sqrt(4.0 * np.pi / 3.0)  # shift along e3
    shifted = SupportFunction(grid, c)
    assert abs(volume_from_support(shifted) - 4.0 * np.pi / 3.0) < 1e-10


def test_volume_from_support_takes_only_a_support_function():
    # node values are certified by SupportFunction.from_field, not here
    grid = build_grid(16)
    for h in (ScalarField(grid, np.full(grid.n_nodes, 1.0)), np.ones(grid.n_nodes)):
        with pytest.raises(InvalidParameter):
            volume_from_support(h)


def test_hausdorff_distances():
    grid = build_grid(16)
    ball = SupportFunction.constant(grid, 1.0)
    assert hausdorff_distance(ball, ball) == 0.0
    two = SupportFunction.constant(grid, 2.0)
    assert abs(hausdorff_distance(ball, two) - 1.0) < 1e-14
    cube_field = ScalarField(grid, convex_hull_3d(cube_points()).support(grid.nodes))
    d = hausdorff_distance(cube_field, ball)
    # true sup distance is sqrt(3) - 1, attained at the diagonals, which the
    # grid samples only approximately
    assert np.sqrt(3.0) - 1.0 - 0.02 < d <= np.sqrt(3.0) - 1.0 + 1e-12
    with pytest.raises(GridMismatch):
        hausdorff_distance(ball, SupportFunction.constant(build_grid(8), 1.0))


def test_polytope_from_support_sphere():
    grid = build_grid(16)
    ball = SupportFunction.constant(grid, 1.0)
    P = polytope_from_support(ball)
    assert P.n_vertices == grid.n_nodes
    # inscribed: support in every facet normal direction stays below 1
    assert np.max(P.offsets) <= 1.0 + 1e-12
    # volume deficit of the inscribed polytope at this resolution
    deficit = 4.0 * np.pi / 3.0 - volume(P)
    assert 0.0 < deficit < 0.1


def test_polytope_from_support_node_exact():
    grid = build_grid(16)
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    c[2] = 0.05 * np.sqrt(4.0 * np.pi / 3.0)
    h = SupportFunction(grid, c)
    P = polytope_from_support(h)
    # every boundary point x(u) has x . u = h(u); the hulled polytope's
    # support therefore matches h at the nodes to rounding
    vals = P.support(grid.nodes)
    assert np.max(np.abs(vals - h.values)) < 1e-9


def test_inscribed_cone_volume_converges_from_below():
    # metamorphic: for the Newton solution of h det W = f the body's volume
    # is (1/3) int f; the inscribed polytope's cone-volume total (its own
    # volume) approaches it from below as the bandwidth, and so the node
    # set, grows, at the O(L^-2) rate of the inscription
    terms = [(1, 0, 0.04), (2, 1, 0.03), (3, -2, 0.02), (4, 3, 0.02)]
    deficits = []
    for L in (8, 16, 32):
        grid = build_grid(L)
        f = DensityFunction.from_harmonics(terms, grid=grid)
        # 1e-6 clears this density's aliasing floor at L = 8
        h = newton_solve(f, grid=grid, opts=SolveOptions(tolerance=1e-6)).h
        total = cone_volume_measure(polytope_from_support(h)).total()
        deficits.append(4.0 * np.pi * f.mean() / 3.0 - total)
    assert deficits[0] > 0.0
    for coarse, fine in zip(deficits, deficits[1:]):
        assert 0.0 < fine < 0.5 * coarse


# ---------------------------------------------------------------------------
# enclosing ellipsoids


def test_ellipsoid_box_closed_form():
    for half in ([1.0, 2.0, 3.0], [0.5, 0.5, 4.0]):
        pts = cube_points() * np.asarray(half)
        E = enclosing_ellipsoid(convex_hull_3d(pts))
        expected = np.sqrt(3.0) * np.sort(np.asarray(half))
        assert_allclose(E.radii, expected, rtol=1e-5)
        assert_allclose(E.center, 0.0, atol=1e-6)
        assert E.contains(pts, slack=1e-6)


def test_ellipsoid_octahedron_is_unit_ball():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    E = enclosing_ellipsoid(convex_hull_3d(pts))
    assert_allclose(E.radii, 1.0, rtol=1e-6)
    assert_allclose(E.center, 0.0, atol=1e-7)


def test_ellipsoid_regular_simplex_in_sphere():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float) / np.sqrt(3.0)
    E = enclosing_ellipsoid(convex_hull_3d(pts))
    assert_allclose(E.radii, 1.0, rtol=1e-5)
    assert_allclose(E.center, 0.0, atol=1e-5)


def test_ellipsoid_random_hulls_sandwich():
    worst_excess = 0.0
    for seed in range(100):
        P = convex_hull_3d(random_cloud(seed, n=25))
        E = enclosing_ellipsoid(P)
        excess = float(np.max(E.mahalanobis(P.vertices))) - 1.0
        worst_excess = max(worst_excess, excess)
        # shrinking about the center by the dimension factor 3 lands inside
        small = E.scaled(1.0 / 3.0)
        inner_support = small.support(P.normals)
        assert np.all(inner_support <= P.offsets + 1e-6)
    assert worst_excess < 1e-5


def test_ellipsoid_validation():
    with pytest.raises(InvalidParameter):
        Ellipsoid(np.zeros(3), np.array([3.0, 2.0, 1.0]), np.eye(3))
    with pytest.raises(InvalidParameter):
        Ellipsoid(np.zeros(3), np.array([1.0, 2.0, -3.0]), np.eye(3))
    with pytest.raises(InvalidParameter):
        Ellipsoid(np.zeros(3), np.ones(3), np.ones((3, 3)))
    E = Ellipsoid(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.eye(3))
    assert abs(E.volume - 8.0 * np.pi) < 1e-12
    assert abs(E.support([0.0, 0.0, 1.0]) - 3.0) < 1e-12
    for factor in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            E.scaled(factor)
    # radii that overflow to inf fail the finiteness check, with no warning
    with pytest.raises(InvalidParameter, match="non-finite"):
        E.scaled(1e308)
    for center, radii, axes in ((np.full(3, np.nan), E.radii, E.axes),
                                (E.center, np.array([1.0, 2.0, np.inf]), E.axes),
                                (E.center, E.radii, np.where(np.eye(3), np.nan, 0.0))):
        with pytest.raises(InvalidParameter, match="non-finite"):
            Ellipsoid(center, radii, axes)


def test_ellipsoid_tolerance_validation():
    P = convex_hull_3d(cube_points())
    with pytest.raises(InvalidParameter):
        enclosing_ellipsoid(P, tolerance=0.0)


def test_ellipsoid_certificate_on_newton_bodies(newton_boundaries):
    # the accepted lifted gap max M_i <= 4 (1 + tol) gives every vertex a
    # Mahalanobis distance at most sqrt(1 + 4 tol / 3) <= 1 + 4 tol / 3
    tol = 1e-4
    for points in newton_boundaries:
        P = convex_hull_3d(points)
        E = enclosing_ellipsoid(P, tolerance=tol)
        assert np.max(E.mahalanobis(P.vertices)) <= 1.0 + 4.0 * tol / 3.0 + 1e-12


def test_ellipsoid_certificate_on_random_clouds():
    tol = 1e-7
    for seed in range(100):
        P = convex_hull_3d(random_cloud(seed, n=25))
        E = enclosing_ellipsoid(P, tolerance=tol)
        assert np.max(E.mahalanobis(P.vertices)) <= 1.0 + 4.0 * tol / 3.0 + 1e-12


def test_ellipsoid_iteration_cap(newton_boundaries, monkeypatch):
    P = convex_hull_3d(newton_boundaries[1])
    for cap in (1, 5):
        monkeypatch.setattr("logmink.convex._ELLIPSOID_MAX_STEPS", cap)
        with pytest.raises(ConvergenceFailure) as err:
            enclosing_ellipsoid(P)
        assert err.value.iterations == cap


def test_ellipsoid_default_needs_few_interior_point_steps(newton_boundaries, monkeypatch):
    # structural guard: the interior point reaches the 1e-7 default on
    # 578-vertex bodies in about twenty Newton steps, not thousands
    tol = 1e-7
    monkeypatch.setattr("logmink.convex._ELLIPSOID_MAX_STEPS", 30)
    for points in newton_boundaries:
        P = convex_hull_3d(points)
        E = enclosing_ellipsoid(P, tolerance=tol)
        assert np.max(E.mahalanobis(P.vertices)) <= 1.0 + 4.0 * tol / 3.0 + 1e-12


@pytest.mark.parametrize("L", [16, 24, 32])
def test_ellipsoid_default_converges_on_newton_bodies(L):
    """The 1e-7 default converges on the Newton bodies of ten densities.

    Both tolerances certify the volume: the dual ellipsoid of the weights
    is never larger than the minimal one, and dilated by sqrt(1 + 4 tol / 3)
    it contains every vertex.  The radii of these nearly round bodies are
    less well determined by the gap, so they are compared more loosely.
    """
    grid = build_grid(L)
    tol = 1e-7
    for seed in range(10):
        f = gen_density(seed, 0.05, 2.0, grid=grid)
        P = polytope_from_support(newton_solve(f, grid=grid).h)
        E = enclosing_ellipsoid(P)
        assert np.max(E.mahalanobis(P.vertices)) <= 1.0 + 4.0 * tol / 3.0 + 1e-12
        tight = enclosing_ellipsoid(P, tolerance=1e-10)
        assert abs(E.volume / tight.volume - 1.0) <= 1e-6
        assert_allclose(E.radii, tight.radii, rtol=1e-4)


def test_ellipsoid_flat_cloud_is_dimension_deficient():
    points = random_cloud(3) * np.array([1.0, 1.0, 1e-9])
    with pytest.raises(DimensionDeficient):
        enclosing_ellipsoid(points)


def test_ellipsoid_is_translation_and_scale_equivariant():
    points = random_cloud(4)
    E = enclosing_ellipsoid(points, tolerance=1e-10)
    moved = enclosing_ellipsoid(1e3 * points + 1e4, tolerance=1e-10)
    assert_allclose(moved.radii, 1e3 * E.radii, rtol=1e-6)
    assert_allclose(moved.center, 1e3 * E.center + 1e4, rtol=1e-9)


def test_ellipsoid_keeps_its_promise_on_elongated_clouds():
    # the stop rule is exact in the whitened frame; a shape factored in the
    # original frame would lose about eps * cond of containment, and the
    # covariance conditions below are 1e8 and 1e10
    tol = 1e-10
    bound = np.sqrt(1.0 + 4.0 * tol / 3.0)
    for stretch in ((1e-4, 1e-4, 1.0), (1e-3, 1.0, 1e-5)):
        for seed in range(50):
            points = np.random.default_rng(seed).standard_normal((40, 3)) * stretch
            E = enclosing_ellipsoid(points, tolerance=tol)
            assert np.max(E.mahalanobis(points)) <= bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
def test_convex_parameters_must_be_positive_and_finite(bad):
    P = convex_hull_3d(cube_points())
    with pytest.raises(InvalidParameter):
        enclosing_ellipsoid(P, tolerance=bad)
    with pytest.raises(InvalidParameter):
        ball_offset_outer(P, bad)


# ---------------------------------------------------------------------------
# blowdown diagnostics


def test_blowdown_sphere_cloud():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    diag = blowdown_diagnostics(convex_hull_3d(pts))
    assert abs(diag.ratio_32 - 1.0) < 0.02
    assert abs(diag.ratio_21 - 1.0) < 0.02
    # origin sits deep inside, so both distance ratios are order one
    assert diag.axis_dist_ratio > 0.5
    assert diag.plane_dist_ratio > 0.5


def test_blowdown_elongated_box():
    M = 6.0
    pts = cube_points() * np.array([1.0, 1.0, M])
    diag = blowdown_diagnostics(convex_hull_3d(pts))
    assert abs(diag.ratio_32 - M) < 1e-3
    assert abs(diag.ratio_21 - 1.0) < 1e-3


def test_blowdown_origin_on_face():
    # origin on the x = 0 face, whose normal lies in the long-axes plane:
    # the planar shadow of the box has the origin on its boundary
    pts = cube_points() * np.array([1.0, 1.0, 0.2]) + np.array([1.0, 0.0, 0.0])
    diag = blowdown_diagnostics(convex_hull_3d(pts))
    assert diag.plane_dist_ratio < 1e-9
    assert abs(diag.ratio_21 - 5.0) < 1e-3
    assert abs(diag.ratio_32 - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# outer parallel approximations


def steiner_surface_area(r):
    """Closed-form surface area of the unit cube [-1, 1]^3 offset by r."""
    return 24.0 + 12.0 * np.pi * r + 4.0 * np.pi * r * r


def test_ball_offset_outer_contains_offset_body():
    P = convex_hull_3d(cube_points())
    r = 0.25
    Q = ball_offset_outer(P, r)
    # outer approximation: support of Q dominates h_P + r everywhere
    dirs = np.vstack([np.eye(3), [[1, 1, 1] / np.sqrt(3.0)]])
    hq = Q.support(dirs)
    hp = P.support(dirs)
    assert np.all(hq >= hp + r - 1e-9)


def test_ball_offset_surface_area_converges():
    P = convex_hull_3d(cube_points())
    r = 0.25
    target = steiner_surface_area(r)
    gaps = []
    for n in (500, 2000, 8000):
        Q = ball_offset_outer(P, r, n_directions=n)
        gaps.append(surface_area_measure(Q).total() - target)
    # circumscribed, so the measured area exceeds the closed form and the
    # excess shrinks as the direction set refines
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < gaps[0] / 2.0


def test_ball_offset_validation():
    P = convex_hull_3d(cube_points())
    with pytest.raises(InvalidParameter):
        ball_offset_outer(P, -0.1)
    with pytest.raises(InvalidParameter):
        ball_offset_outer(P, 0.1, n_directions=3)


# ---------------------------------------------------------------------------
# serialization


def test_obj_roundtrip():
    P = convex_hull_3d(random_cloud(17))
    text = polytope_to_obj(P)
    Q = polytope_from_obj(text)
    assert Q.n_vertices == P.n_vertices
    assert abs(volume(Q) - volume(P)) < 1e-12
    # vertex sets agree as sets
    a = np.array(sorted(map(tuple, P.vertices)))
    b = np.array(sorted(map(tuple, Q.vertices)))
    assert_allclose(a, b, atol=0.0)


def test_obj_rejects_bad_face():
    with pytest.raises(InvalidParameter):
        polytope_from_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")


def test_measure_csv_roundtrip():
    S = surface_area_measure(convex_hull_3d(random_cloud(23)))
    text = measure_to_csv(S)
    assert text.splitlines()[0] == "nx,ny,nz,weight"
    back = measure_from_csv(text)
    assert_allclose(back.vectors, S.vectors, atol=0.0)
    assert_allclose(back.weights, S.weights, atol=0.0)
    assert measure_to_csv(back) == text


@pytest.mark.parametrize("text, message", [
    ("nx,ny,nz,weight\n1,0,0,x\n", "line 2: bad number"),
    ("# comment\n\nnx,ny,nz,weight\n1,0,0\n", "line 4: expected 4 fields"),
    ("1,0,0,0.5\n", "line 1: expected the header"),
], ids=["bad-number", "field-count", "missing-header"])
def test_measure_csv_rejects_malformed_text(text, message):
    with pytest.raises(InvalidParameter, match=message):
        measure_from_csv(text)


_LAZY_SCIPY_SCRIPT = """
import contextlib, io, sys, tempfile
import numpy as np
import logmink, logmink.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy_modules(), scipy_modules()
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert logmink.cli.main(["solve", "--f", "random:3,0.05,2", "--out", out]) == 0
assert not scipy_modules(), scipy_modules()
cube = logmink.convex_hull_3d([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                               for z in (-1, 1)])
assert cube.n_facets == 6 and abs(logmink.volume(cube) - 8.0) < 1e-12
cloud = np.random.default_rng(0).standard_normal((40, 3))
E = logmink.enclosing_ellipsoid(cloud)
assert np.all(np.isfinite(E.radii)) and np.all(E.radii > 0)
print("ok")
"""


def test_import_leaves_scipy_unloaded_until_first_hull():
    src = os.path.dirname(os.path.dirname(os.path.abspath(logmink.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
