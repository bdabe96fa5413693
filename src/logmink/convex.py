"""Discrete convex geometry in R^3.

Polytopes are stored as vertex sets with merged planar facets, so that
facet normals and areas are exact data rather than triangulation artifacts.
On top of them the module computes the two boundary measures of a convex
body (surface-area and cone-volume), volumes, Hausdorff distances between
support functions, minimum-volume enclosing ellipsoids, and the projection
diagnostics used to detect degenerating (blowing-down) bodies.

Memory is linear in the data: the hull's vertex-facet consistency check
and support evaluation take a maximum over blocks of vertices, so a hull
with V vertices and F facets needs O(V + F) memory, never a V x F matrix.

Conventions
-----------
* Facet loops list vertex indices counter-clockwise as seen from outside
  (against the outward normal).
* Ellipsoid radii are sorted ascending; ``axes[i]`` is the unit principal
  direction for ``radii[i]``.
* OBJ output uses 1-based vertex indices, one polygon per facet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# scipy (qhull and the LU solve) is imported inside the functions that call it,
# so that importing the package for the solver alone does not load it.

from .errors import (
    ConvergenceFailure,
    DimensionDeficient,
    InvalidParameter,
    OriginNotContained,
)
from .grid import (
    ScalarField,
    _csv_cell,
    _csv_rows,
    _csv_text,
    _read_only,
    _require_integer,
    _require_positive_finite,
    require_same_grid,
    tangential_gradient,
)
from .solver import SupportFunction, _mass

_MERGE_TOL = 1e-9          # facets merge when 1 - n_i . n_j <= this
_VERTEX_SLACK = 1e-9       # feasibility slack nu . x <= h + slack
_ORIGIN_TOL = 1e-9         # origin-in-closure slack on support numbers
_UNIT_TOL = 1e-10
_FRACTION_TO_BOUNDARY = 0.99  # interior-point steps stop short of s, z = 0
_MAX_HALVINGS = 60         # step halvings to keep M positive definite
_ELLIPSOID_MAX_STEPS = 100  # interior-point steps before ConvergenceFailure
_AUGMENT_ABOVE = 1e4       # z_i / s_i beyond which dz_i stays an unknown
_BLOCK_ENTRIES = 1 << 17   # vertex x direction products per block (1-2 MB)
_BLOCK_ROWS = 24           # whole OpenBLAS row tiles (of 8 and 12) per block

# upper triangle of the lifted 4 x 4 shape matrix M, v = M[_TRIU], and the
# symmetric basis with M = sum_k v_k _BASIS[k]; _TRIU_WEIGHT counts each
# off-diagonal entry twice in q^T M q and in tr(W E_k)
_TRIU = np.triu_indices(4)
_TRIU_WEIGHT = np.where(_TRIU[0] == _TRIU[1], 1.0, 2.0)
_BASIS = np.zeros((len(_TRIU[0]), 4, 4))
_BASIS[np.arange(len(_TRIU[0])), _TRIU[0], _TRIU[1]] = 1.0
_BASIS[np.arange(len(_TRIU[0])), _TRIU[1], _TRIU[0]] = 1.0


def _as_points(points, minimum: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidParameter(f"expected an (m, 3) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameter("points contain non-finite entries")
    if pts.shape[0] < minimum:
        raise InvalidParameter(f"need at least {minimum} points, got {pts.shape[0]}")
    return pts


def _require_full_rank(pts: np.ndarray) -> None:
    centered = pts - pts.mean(axis=0)
    sing = np.linalg.svd(centered, compute_uv=False)
    if sing[2] <= 1e-12 * max(sing[0], 1.0):
        raise DimensionDeficient(
            "points are affinely dependent (rank < 3); no full-dimensional hull"
        )


def _orthobasis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal in-plane bases (t1, t2) with t1 x t2 = normal, per row."""
    rows = np.arange(normals.shape[0])
    k = np.argmin(np.abs(normals), axis=1)
    t1 = -normals[rows, k][:, None] * normals
    t1[rows, k] += 1.0
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(normals, t1)
    return t1, t2


def _max_dot(vertices: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """max of u . x over the rows x of ``vertices``, per row u of ``directions``.

    Blocks of whole multiples of ``_BLOCK_ROWS`` vertex rows meet all
    directions at once, at most ``_BLOCK_ENTRIES`` products each (or
    ``_BLOCK_ROWS`` rows when there are many directions), and the last
    block also takes the remainder rows, so memory is O(V + D) instead of
    V x D.  The running maximum is exact, and with one BLAS thread each
    product is computed as in the dense ``vertices @ directions.T``: every
    row keeps its place in the GEMM kernel's row tiles, and no block is
    the single row that numpy would hand to a matrix-vector kernel.
    """
    rows = max(_BLOCK_ROWS, _BLOCK_ENTRIES // max(directions.shape[0], 1)
               // _BLOCK_ROWS * _BLOCK_ROWS)
    n_blocks = max(1, vertices.shape[0] // rows)
    out = np.full(directions.shape[0], -np.inf)
    for b in range(n_blocks):
        stop = vertices.shape[0] if b == n_blocks - 1 else (b + 1) * rows
        block = vertices[b * rows:stop] @ directions.T
        np.maximum(out, block.max(axis=0), out=out)
    return out


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex polytope with merged planar facets, held as parallel arrays.

    Build instances with :func:`convex_hull_3d` (or the OBJ reader); the
    constructor only copies and freezes prepared data.  Row g of the
    read-only facet arrays ``normals``, ``offsets`` and ``areas`` holds
    facet g's outward unit normal, support number and polygon area;
    ``loops[g]`` lists its vertex indices.  Vertices are the extreme
    points, ``centroid`` is their mean and serves as the apex for the
    facet-cone volume decomposition.  Instances compare by identity.
    """

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    areas: np.ndarray
    loops: tuple
    centroid: np.ndarray

    def __post_init__(self):
        for name in ("vertices", "normals", "offsets", "areas", "centroid"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "loops", tuple(self.loops))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_facets(self) -> int:
        return self.offsets.shape[0]

    def support(self, directions) -> float | np.ndarray:
        """Support values max_x in P of u . x, for one direction or a stack.

        Memory is O(V + D) for V vertices and D directions: no V x D
        matrix of products is formed.  With one BLAS thread the values
        equal the dense ``(vertices @ u.T).max(axis=0)`` bit for bit.
        """
        u = np.asarray(directions, dtype=float)
        out = _max_dot(self.vertices, np.atleast_2d(u))
        if u.ndim == 1:
            return float(out[0])
        return out

    def contains_origin(self) -> bool:
        return bool(np.min(self.offsets) >= -_ORIGIN_TOL)

    def translated(self, shift) -> "Polytope":
        """The translate P + shift; facet geometry moves rigidly."""
        t = np.asarray(shift, dtype=float)
        if t.shape != (3,):
            raise InvalidParameter(f"shift must be a 3-vector, got shape {t.shape}")
        return replace(self, vertices=self.vertices + t,
                       offsets=self.offsets + self.normals @ t,
                       centroid=self.centroid + t)

    def rotated(self, rotation) -> "Polytope":
        """The image R P for an orthogonal matrix R with det +1."""
        R = np.asarray(rotation, dtype=float)
        if R.shape != (3, 3):
            raise InvalidParameter(f"rotation must be a 3x3 matrix, got shape {R.shape}")
        if (np.max(np.abs(R @ R.T - np.eye(3))) > 1e-10
                or np.linalg.det(R) < 0.0):
            raise InvalidParameter("matrix is not a proper rotation")
        return replace(self, vertices=self.vertices @ R.T,
                       normals=self.normals @ R.T, centroid=R @ self.centroid)

    def __repr__(self) -> str:
        return (f"Polytope(n_vertices={self.n_vertices}, "
                f"n_facets={self.n_facets})")


class DiscreteMeasure:
    """Finite nonnegative measure on the sphere: one or more unit atoms with weights."""

    def __init__(self, vectors: np.ndarray, weights: np.ndarray):
        vectors = _read_only(vectors)
        weights = _read_only(weights)
        if vectors.ndim != 2 or vectors.shape[1] != 3:
            raise InvalidParameter(
                f"atom vectors must form a (k, 3) array, got shape {vectors.shape}"
            )
        if weights.shape != (vectors.shape[0],):
            raise InvalidParameter(
                f"got {vectors.shape[0]} atoms but weight shape {weights.shape}"
            )
        if vectors.shape[0] == 0:
            raise InvalidParameter("a measure needs at least one atom")
        if not (np.all(np.isfinite(vectors)) and np.all(np.isfinite(weights))):
            raise InvalidParameter("measure data contains non-finite entries")
        norms = np.linalg.norm(vectors, axis=1)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise InvalidParameter(
                f"atom vector {bad} is not unit (norm {norms[bad]!r})"
            )
        if np.min(weights, initial=0.0) < 0.0:
            bad = int(np.argmin(weights))
            raise InvalidParameter(f"atom weight {bad} is negative ({weights[bad]!r})")
        self.vectors = vectors
        self.weights = weights

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def total(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, g) -> float:
        """Integral of a test function: sum of w_i * g(u_i).

        ``g`` is either a callable mapping an (k, 3) array of directions to
        k values, or an array of k precomputed values.
        """
        vals = np.asarray(g(self.vectors) if callable(g) else g, dtype=float)
        if vals.shape != (self.n_atoms,):
            raise InvalidParameter(
                f"test function produced shape {vals.shape}, expected ({self.n_atoms},)"
            )
        return float(self.weights @ vals)

    def sorted(self) -> "DiscreteMeasure":
        """Atoms in lexicographic vector order, for comparisons."""
        order = np.lexsort((self.vectors[:, 2], self.vectors[:, 1], self.vectors[:, 0]))
        return DiscreteMeasure(self.vectors[order], self.weights[order])

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, total={self.total():.6g})"


class Ellipsoid:
    """Solid ellipsoid: center, ascending radii, matching orthonormal axes."""

    def __init__(self, center: np.ndarray, radii: np.ndarray, axes: np.ndarray):
        center = _read_only(center)
        radii = _read_only(radii)
        axes = _read_only(axes)
        if center.shape != (3,) or radii.shape != (3,) or axes.shape != (3, 3):
            raise InvalidParameter("ellipsoid needs center (3,), radii (3,), axes (3, 3)")
        if not all(np.all(np.isfinite(arr)) for arr in (center, radii, axes)):
            raise InvalidParameter("ellipsoid data contains non-finite entries")
        if np.any(radii <= 0.0):
            raise InvalidParameter(f"radii must be positive, got {radii}")
        if np.any(np.diff(radii) < 0.0):
            raise InvalidParameter(f"radii must be sorted ascending, got {radii}")
        if np.max(np.abs(axes @ axes.T - np.eye(3))) > _UNIT_TOL:
            raise InvalidParameter("axes rows are not orthonormal")
        self.center = center
        self.radii = radii
        self.axes = axes

    @property
    def volume(self) -> float:
        return float(4.0 * np.pi / 3.0 * np.prod(self.radii))

    def _shape_matrix(self) -> np.ndarray:
        # A with E = {x : (x - c)^T A (x - c) <= 1}
        return self.axes.T @ np.diag(1.0 / self.radii**2) @ self.axes

    def support(self, directions) -> float | np.ndarray:
        """h_E(u) = c . u + sqrt(u^T Sigma u), Sigma = sum r_i^2 e_i e_i^T."""
        u = np.atleast_2d(np.asarray(directions, dtype=float))
        sigma = self.axes.T @ np.diag(self.radii**2) @ self.axes
        vals = u @ self.center + np.sqrt(np.einsum("ij,jk,ik->i", u, sigma, u))
        if np.asarray(directions).ndim == 1:
            return float(vals[0])
        return vals

    def mahalanobis(self, points) -> np.ndarray:
        """Ellipsoidal norm of x - c; <= 1 exactly on E."""
        d = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        A = self._shape_matrix()
        return np.sqrt(np.einsum("ij,jk,ik->i", d, A, d))

    def contains(self, points, slack: float = 0.0) -> bool:
        return bool(np.all(self.mahalanobis(points) <= 1.0 + slack))

    def scaled(self, factor: float) -> "Ellipsoid":
        """Dilate by ``factor`` about the ellipsoid's own center.

        Radii that overflow to inf fail the constructor's finiteness check.
        """
        _require_positive_finite("scale factor", factor)
        with np.errstate(over="ignore"):
            radii = self.radii * factor
        return Ellipsoid(self.center, radii, self.axes)

    def __repr__(self) -> str:
        r = ", ".join(f"{x:.4g}" for x in self.radii)
        return f"Ellipsoid(radii=({r}))"


@dataclass(frozen=True)
class BlowdownDiagnostics:
    """Shape-degeneration indicators from the enclosing ellipsoid.

    ratio_32 and ratio_21 are the principal-radius ratios r3/r2 and r2/r1.
    axis_dist_ratio is the distance from the origin's projection to the
    boundary of the polytope's shadow on the r3-axis, over r3.
    plane_dist_ratio is the distance from the origin's projection to the
    boundary of the shadow on the (r2, r3)-plane, over r3.  Large radius
    ratios with small distance ratios flag a body collapsing toward a
    segment or a plate through the origin.  With r2 close to r3 the axes,
    and so both distance ratios, are fixed only to about rounding/(r3 - r2);
    their last digits (in ``report.csv`` too) then depend on LAPACK.
    """

    ratio_32: float
    ratio_21: float
    axis_dist_ratio: float
    plane_dist_ratio: float


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _planar_facets(coords: np.ndarray, normals: np.ndarray, min_area: float):
    """Geometry of g planar facets with k vertices each, in one batch.

    ``coords`` is (g, k, 3), the member points of each facet in any order;
    ``normals`` is (g, 3), their unit outward normals.  Returns the support
    numbers (g,), the counter-clockwise vertex order about each normal
    (g, k) and the polygon areas (g,).  Raises :class:`DimensionDeficient`
    if an area is at most ``min_area``.
    """
    offsets = np.einsum("gkj,gj->gk", coords, normals).max(axis=1)
    t1, t2 = _orthobasis(normals)
    base = coords.mean(axis=1)
    rel = coords - base[:, None, :]
    x = np.einsum("gkj,gj->gk", rel, t1)
    y = np.einsum("gkj,gj->gk", rel, t2)
    order = np.argsort(np.arctan2(y, x), axis=1)
    x = np.take_along_axis(x, order, axis=1)
    y = np.take_along_axis(y, order, axis=1)
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross2 = x * yn - xn * y
    areas = 0.5 * cross2.sum(axis=1)
    if np.min(areas) <= min_area:
        raise DimensionDeficient("hull produced a zero-area facet")
    return offsets, order, areas


def convex_hull_3d(points) -> Polytope:
    """Convex hull of a 3D point cloud with coplanar facets merged.

    The returned polytope's vertices are exactly the extreme points of the
    input.  Triangles from the hull construction are merged into maximal
    planar facets whenever adjacent normals agree to within 1e-9 (measured
    as 1 - cos of the dihedral angle), so each genuine face contributes a
    single measure atom.  A merged facet's normal is the area-weighted mean
    of its triangles' normals.  Facets are ordered by their smallest qhull
    triangle index.  The facet geometry is computed in batch, one batch per
    distinct vertex count, so no Python loop runs over the facets except to
    list their vertex loops.  Every vertex is checked against every
    merged facet plane in O(V + F) memory, blocks of vertices at a time;
    a violation beyond 1e-9 raises :class:`InvalidParameter`.  Raises
    :class:`DimensionDeficient` for coplanar input.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = _as_points(points, minimum=4)
    _require_full_rank(pts)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DimensionDeficient(f"hull construction failed: {exc}") from exc

    vertex_ids = np.array(hull.vertices)
    relabel = np.full(pts.shape[0], -1, dtype=int)
    relabel[vertex_ids] = np.arange(vertex_ids.shape[0])
    vertices = pts[vertex_ids]

    simplices = hull.simplices
    normals = hull.equations[:, :3]
    n_tri = simplices.shape[0]

    tri_pts = pts[simplices]
    cross = np.cross(tri_pts[:, 1] - tri_pts[:, 0], tri_pts[:, 2] - tri_pts[:, 0])
    tri_areas = 0.5 * np.linalg.norm(cross, axis=1)

    # merge candidates: each adjacent pair once, with nearly equal normals
    first = np.repeat(np.arange(n_tri), 3)
    second = hull.neighbors.ravel()
    cosines = np.einsum("ij,ij->i", normals[first], normals[second])
    merge = (second > first) & (1.0 - cosines <= _MERGE_TOL)
    uf = _UnionFind(n_tri)
    for i, j in zip(first[merge].tolist(), second[merge].tolist()):
        uf.union(i, j)
    roots = np.arange(n_tri)
    touched = np.unique(np.concatenate((first[merge], second[merge])))
    roots[touched] = [uf.find(int(i)) for i in touched]
    # union keeps the smaller root, so sorted roots order groups by their
    # smallest triangle index
    _, group = np.unique(roots, return_inverse=True)
    n_groups = int(group.max()) + 1

    facet_normals = np.zeros((n_groups, 3))
    np.add.at(facet_normals, group, tri_areas[:, None] * normals)
    facet_normals /= np.linalg.norm(facet_normals, axis=1)[:, None]

    # sorted member point ids of every group, groups contiguous
    keys = np.unique(group[:, None] * pts.shape[0] + simplices)
    member_group, members = np.divmod(keys, pts.shape[0])
    counts = np.bincount(member_group, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    min_area = 1e-14 * (float(np.max(np.abs(vertices))) + 1.0) ** 2
    offsets = np.empty(n_groups)
    areas = np.empty(n_groups)
    loops = [()] * n_groups
    for k in np.unique(counts).tolist():
        sel = np.nonzero(counts == k)[0]
        ids = members[starts[sel][:, None] + np.arange(k)]
        offsets[sel], order, areas[sel] = _planar_facets(
            pts[ids], facet_normals[sel], min_area)
        for g, loop in zip(sel.tolist(),
                           relabel[np.take_along_axis(ids, order, axis=1)].tolist()):
            loops[g] = tuple(loop)

    # every vertex against every facet, O(V + F) in memory: subtracting a
    # per-facet offset commutes with the maximum over vertices
    worst = float(np.max(_max_dot(vertices, facet_normals) - offsets))
    if worst > _VERTEX_SLACK:
        raise InvalidParameter(
            f"internal hull inconsistency: vertex violates a facet by {worst:.3e}"
        )
    return Polytope(vertices, facet_normals, offsets, areas, loops,
                    vertices.mean(axis=0))


def surface_area_measure(P: Polytope) -> DiscreteMeasure:
    """One atom per facet at its outward normal, weighted by facet area."""
    return DiscreteMeasure(P.normals, P.areas)


def cone_volume_measure(P: Polytope) -> DiscreteMeasure:
    """Cone-volume measure: atom weight (1/3) h_F Area(F) per facet.

    Requires the origin in the closure of P; the weight of a facet is the
    volume of the cone over it with apex at the origin, and the total mass
    is the volume of P.  Facets through the origin get weight zero (tiny
    negative products from roundoff are clamped).
    """
    offsets = P.offsets
    if np.min(offsets) < -_ORIGIN_TOL:
        bad = int(np.argmin(offsets))
        raise OriginNotContained(
            f"origin lies outside the polytope: facet {bad} has support "
            f"number {offsets[bad]:.3e}"
        )
    weights = np.maximum(offsets * P.areas / 3.0, 0.0)
    return DiscreteMeasure(P.normals, weights)


def volume(P: Polytope) -> float:
    """Volume by summing facet cones about the vertex centroid."""
    heights = P.offsets - P.normals @ P.centroid
    return float(np.sum(heights * P.areas) / 3.0)


def volume_from_support(h: SupportFunction) -> float:
    """Volume of the smooth body with support function h: (1/3) int h det W.

    Takes a certified :class:`SupportFunction`; certify node values with
    :meth:`SupportFunction.from_field` first.
    """
    if not isinstance(h, SupportFunction):
        raise InvalidParameter(f"expected a SupportFunction, got {type(h).__name__}")
    return _mass(h) / 3.0


def hausdorff_distance(hK, hL) -> float:
    """Grid sup-distance max over nodes of |h_K - h_L|.

    Arguments may be :class:`SupportFunction` or plain :class:`ScalarField`
    (support values of a non-smooth body such as a polytope are fields, not
    certifiable support functions).  Both must live on the same grid.
    """
    fields = []
    for arg in (hK, hL):
        if isinstance(arg, SupportFunction):
            fields.append(arg.field)
        elif isinstance(arg, ScalarField):
            fields.append(arg)
        else:
            raise InvalidParameter(
                f"expected SupportFunction or ScalarField, got {type(arg).__name__}"
            )
    a, b = fields
    require_same_grid(a.grid, b.grid, "hausdorff_distance arguments")
    return float(np.max(np.abs(a.values - b.values)))


def polytope_from_support(h: SupportFunction) -> Polytope:
    """Polytope through the boundary points x(u) = grad h + h u of the body.

    The boundary map is evaluated at every grid node and the points are
    hulled; for a smooth convex body this inscribes a polytope whose
    Hausdorff distance to the body is O(L^-2).
    """
    if not isinstance(h, SupportFunction):
        raise InvalidParameter(
            f"expected a SupportFunction, got {type(h).__name__}"
        )
    grad = tangential_gradient(h.field)
    points = grad + h.values[:, None] * h.grid.nodes
    return convex_hull_3d(points)


def _lifted_inverse(lifted: np.ndarray, u: np.ndarray):
    """Exact X^-1 and M_i = q_i^T X^-1 q_i for X = sum_i u_i q_i q_i^T."""
    X = (lifted * u[:, None]).T @ lifted
    try:
        Xinv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise DimensionDeficient(
            "weighted scatter matrix is singular; points are degenerate"
        ) from exc
    return Xinv, np.einsum("ij,ij->i", lifted @ Xinv, lifted)


def _step_to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha <= 1 with x + alpha dx >= 0, for x > 0."""
    shrinking = dx < 0.0
    if not shrinking.any():
        return 1.0
    return min(1.0, float(np.min(-x[shrinking] / dx[shrinking])))


def _interior_point_step(A: np.ndarray, shape: np.ndarray, z: np.ndarray,
                         s: np.ndarray):
    """One Mehrotra predictor-corrector step on the lifted shape matrix.

    The problem is min -log det M subject to A v + s = 4, s >= 0, where
    v = M[_TRIU], A[i] . v = q_i^T M q_i and z are the multipliers.  Both
    directions share one factorisation of the 10 x 10 Newton matrix
    H + A^T diag(z/s) A, H_kl = tr(M^-1 E_k M^-1 E_l).  Near the optimum
    z_i / s_i grows without bound on the support of the ellipsoid, and
    the condensed matrix loses its H part to rounding; so constraints with
    z_i / s_i above _AUGMENT_ABOVE, while there are at most ten, keep dz_i
    as an unknown of a (10 + k)-square quasi-definite system instead.
    Primal and dual take one common step.  Returns the next (shape, z, s);
    raises ``LinAlgError`` on a non-finite direction or when no halving
    keeps M positive definite.
    """
    from scipy.linalg import lu_factor, lu_solve

    m, n = A.shape
    W = np.linalg.inv(shape)
    WE = W @ _BASIS
    ratio = z / s
    near = ratio > _AUGMENT_ABOVE
    if near.sum() > n:
        # more such rows than unknowns cannot all be independent, and their
        # condensed sum then keeps the Newton matrix well conditioned
        near[:] = False
    far = ~near
    A_far, A_near = A[far], A[near]
    condensed = (np.einsum("kij,lji->kl", WE, WE)
                 + (A_far * ratio[far, None]).T @ A_far)
    factor = lu_factor(np.block([[condensed, A_near.T],
                                 [A_near, np.diag(-1.0 / ratio[near])]]),
                       check_finite=False)
    # dual residual of tr(W E_k) = (A^T z)_k, moved to the right-hand side
    dual = W[_TRIU] * _TRIU_WEIGHT - A.T @ z

    def direction(complementarity):
        rhs = np.concatenate((dual + A_far.T @ (complementarity[far] / s[far]),
                              complementarity[near] / z[near]))
        solution = lu_solve(factor, rhs, check_finite=False)
        dv = solution[:n]
        ds = -(A @ dv)
        dz = -(complementarity + z * ds) / s
        dz[near] = solution[n:]
        if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(dz))):
            raise np.linalg.LinAlgError("non-finite interior-point direction")
        return dv, ds, dz

    mu = float(z @ s) / m
    _, ds, dz = direction(z * s)  # affine predictor
    mu_affine = float((s + _step_to_boundary(s, ds) * ds)
                      @ (z + _step_to_boundary(z, dz) * dz)) / m
    centering = (mu_affine / mu) ** 3
    dv, ds, dz = direction(z * s + ds * dz - centering * mu)

    alpha = _FRACTION_TO_BOUNDARY * min(_step_to_boundary(s, ds),
                                        _step_to_boundary(z, dz))
    d_shape = np.tensordot(dv, _BASIS, axes=1)
    for _ in range(_MAX_HALVINGS):
        try:
            np.linalg.cholesky(shape + alpha * d_shape)
            break
        except np.linalg.LinAlgError:
            alpha *= 0.5
    else:
        raise np.linalg.LinAlgError("no step keeps M positive definite")
    return shape + alpha * d_shape, z + alpha * dz, s + alpha * ds


def enclosing_ellipsoid(body, tolerance: float = 1e-7) -> Ellipsoid:
    """Minimum-volume enclosing ellipsoid of a polytope or point cloud.

    Lifts the points to q_i = (x_i, 1) and solves min -log det M subject
    to q_i^T M q_i <= 4 over symmetric 4 x 4 matrices M by a primal-dual
    interior point with Mehrotra's predictor-corrector (Sun & Freund 2004).
    The Newton system has one unknown per entry of M, ten however many
    points there are, and about twenty steps reach 1e-10.  The normalised
    multipliers u = z / sum z are the ellipsoid's weights.  Iteration stops
    when, for X = sum u_i q_i q_i^T recomputed exactly from u, the largest
    M_i = q_i^T X^-1 q_i is within ``tolerance`` (relative) of its optimum
    4, which puts every point within Mahalanobis distance
    sqrt(1 + 4 tolerance / 3) of the returned ellipsoid's center.
    ``tolerance`` must be positive and finite; taking 100 interior-point
    steps without meeting it, or a Newton system that cannot be factored,
    raises :class:`ConvergenceFailure`.
    """
    if isinstance(body, Polytope):
        pts = body.vertices
    else:
        pts = _as_points(body, minimum=4)
        _require_full_rank(pts)
    m = pts.shape[0]
    _require_positive_finite("tolerance", tolerance)

    # q^T X(u)^-1 q and so the weights u are affine invariant: iterate on
    # whitened points, which keeps M well scaled for any position and shape
    centered = pts - pts.mean(axis=0)
    try:
        chol = np.linalg.cholesky(centered.T @ centered / m)
    except np.linalg.LinAlgError as exc:
        raise DimensionDeficient("enclosing ellipsoid degenerates; points are flat") from exc
    lifted = np.column_stack((np.linalg.solve(chol, centered.T).T, np.ones(m)))
    dim = 4
    A = lifted[:, _TRIU[0]] * lifted[:, _TRIU[1]] * _TRIU_WEIGHT
    u = np.full(m, 1.0 / m)
    Xinv, M = _lifted_inverse(lifted, u)
    # strictly feasible start: every q_i^T M q_i <= 2
    shape = Xinv * (0.5 * dim / float(M.max()))
    z = u.copy()
    slack = dim - A @ shape[_TRIU]
    iterations = 0
    while (gap := float(M.max()) - dim) > dim * tolerance:
        if iterations >= _ELLIPSOID_MAX_STEPS:
            raise ConvergenceFailure(
                f"ellipsoid iteration did not reach tolerance {tolerance:g} in "
                f"{_ELLIPSOID_MAX_STEPS} iterations (gap {gap:.3e})",
                residual=gap, iterations=_ELLIPSOID_MAX_STEPS,
            )
        try:
            shape, z, slack = _interior_point_step(A, shape, z, slack)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(
                f"ellipsoid interior point failed after {iterations} "
                f"iterations (gap {gap:.3e}): {exc}",
                residual=gap, iterations=iterations,
            ) from exc
        iterations += 1
        # accept only on exactly recomputed values
        u = z / z.sum()
        _, M = _lifted_inverse(lifted, u)

    # sigma is formed in the whitened frame, where the stop rule is exact;
    # sigma = B B^T with B = chol cholesky(sigma_w), and the SVD of B keeps
    # an elongated cloud's condition unsquared
    whitened = lifted[:, :3]
    offset = whitened.T @ u
    sigma_w = (whitened * u[:, None]).T @ whitened - np.outer(offset, offset)
    try:
        axes, sing, _ = np.linalg.svd(chol @ np.linalg.cholesky(sigma_w))
    except np.linalg.LinAlgError as exc:
        raise DimensionDeficient("enclosing ellipsoid degenerates; points are flat") from exc
    if sing[2] ** 2 <= 1e-14 * max(sing[0] ** 2, 1.0):
        raise DimensionDeficient("enclosing ellipsoid degenerates; points are flat")
    center = pts.mean(axis=0) + chol @ offset
    return Ellipsoid(center, np.sqrt(3.0) * sing[::-1], axes[:, ::-1].T)


def _point_to_polygon_boundary(point: np.ndarray, polygon: np.ndarray) -> float:
    """Distance from a 2D point to the boundary polyline of a polygon."""
    a = polygon
    b = np.roll(polygon, -1, axis=0)
    d = b - a
    lengths2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", point - a, d) / lengths2, 0.0, 1.0)
    proj = a + t[:, None] * d
    return float(np.min(np.linalg.norm(point - proj, axis=1)))


def blowdown_diagnostics(P: Polytope) -> BlowdownDiagnostics:
    """Radius ratios and origin-projection distances for degeneration tests.

    The enclosing ellipsoid supplies principal radii r1 <= r2 <= r3 and
    directions.  P is projected onto the line spanned by the r3-direction
    (segment I) and onto the plane spanned by the r2- and r3-directions
    (shadow K'); the origin's projections are compared with the respective
    boundaries and both distances are normalized by r3.

    The ellipsoid is :func:`enclosing_ellipsoid` at its defaults, which
    converge in about twenty steps on many-vertex approximations of smooth
    bodies.
    """
    from scipy.spatial import ConvexHull, QhullError

    E = enclosing_ellipsoid(P)
    r1, r2, r3 = (float(r) for r in E.radii)
    axis_long = E.axes[2]
    t = P.vertices @ axis_long
    axis_dist = min(abs(float(t.min())), abs(float(t.max())))

    plane_basis = E.axes[1:3]
    shadow_pts = P.vertices @ plane_basis.T
    try:
        hull2 = ConvexHull(shadow_pts)
    except QhullError as exc:
        raise DimensionDeficient(f"shadow polygon is degenerate: {exc}") from exc
    polygon = shadow_pts[hull2.vertices]
    plane_dist = _point_to_polygon_boundary(np.zeros(2), polygon)

    return BlowdownDiagnostics(
        ratio_32=r3 / r2,
        ratio_21=r2 / r1,
        axis_dist_ratio=axis_dist / r3,
        plane_dist_ratio=plane_dist / r3,
    )


def _spiral_directions(n: int) -> np.ndarray:
    """Deterministic roughly-equidistributed unit directions (golden spiral)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    ang = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.column_stack((rho * np.cos(ang), rho * np.sin(ang), z))


def ball_offset_outer(P: Polytope, radius: float, n_directions: int = 2000) -> Polytope:
    """Outer polytope approximation of the rounded body P + radius * B.

    Intersects the supporting halfspaces {x . u <= h_P(u) + radius} over a
    deterministic spiral direction set augmented with the facet normals of
    P, so the flat faces of the offset body are cut exactly while the
    rounded parts are faceted.  The result contains P + radius * B and
    tightens as directions are added.
    """
    from scipy.spatial import HalfspaceIntersection, QhullError

    _require_positive_finite("offset radius", radius)
    n_directions = _require_integer("n_directions", n_directions)
    if n_directions < 4:
        raise InvalidParameter(f"need at least 4 directions, got {n_directions}")
    dirs = np.vstack((P.normals, _spiral_directions(n_directions)))
    b = P.support(dirs) + radius
    halfspaces = np.column_stack((dirs, -b))
    interior = P.centroid
    try:
        hs = HalfspaceIntersection(halfspaces, interior)
    except QhullError as exc:
        raise DimensionDeficient(f"halfspace intersection failed: {exc}") from exc
    points = np.unique(np.round(hs.intersections, 8), axis=0)
    return convex_hull_3d(points)


def polytope_to_obj(P: Polytope) -> str:
    """OBJ text: one `v` line per vertex, one `f` line per facet (1-based)."""
    lines = ["v " + " ".join(map(_csv_cell, xyz)) for xyz in P.vertices.tolist()]
    lines += ["f " + " ".join(str(i + 1) for i in loop) for loop in P.loops]
    return "\n".join(lines) + "\n"


def polytope_from_obj(text: str) -> Polytope:
    """Rebuild a polytope from OBJ text.

    Vertex lines are parsed and re-hulled, which restores all class
    invariants regardless of how the file orders or groups faces.  Face
    lines are validated for index range only.
    """
    verts = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 4:
                raise InvalidParameter(f"OBJ line {lineno}: expected 'v x y z'")
            try:
                verts.append([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise InvalidParameter(f"OBJ line {lineno}: bad coordinate") from exc
        elif parts[0] == "f":
            if len(parts) < 4:
                raise InvalidParameter(f"OBJ line {lineno}: face needs >= 3 indices")
            try:
                faces.append([int(p.split("/")[0]) for p in parts[1:]])
            except ValueError as exc:
                raise InvalidParameter(f"OBJ line {lineno}: bad face index") from exc
    if not verts:
        raise InvalidParameter("OBJ text contains no vertices")
    n = len(verts)
    for face in faces:
        for idx in face:
            if idx < 1 or idx > n:
                raise InvalidParameter(f"OBJ face index {idx} out of range 1..{n}")
    return convex_hull_3d(np.array(verts))


def measure_to_csv(measure: DiscreteMeasure) -> str:
    """CSV with header nx,ny,nz,weight and full-precision rows."""
    atoms = np.column_stack((measure.vectors, measure.weights))
    return _csv_text("nx,ny,nz,weight", atoms.tolist())


def measure_from_csv(text: str) -> DiscreteMeasure:
    """Parse a measure written by :func:`measure_to_csv`."""
    _, atoms = _csv_rows(text, "nx,ny,nz,weight", "measure CSV")
    return DiscreteMeasure(atoms[:, :3], atoms[:, 3])
