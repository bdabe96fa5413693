"""Pseudo-spectral discretization of the unit sphere.

The grid couples Gauss-Legendre colatitude rings with equispaced longitudes
and carries a real spherical-harmonic transform plus the covariant
derivative machinery (tangential gradient, covariant Hessian,
Laplace-Beltrami operator) expressed in a per-node orthonormal tangent
frame.  Everything downstream (Monge-Ampere residuals, curvature flow,
support-function geometry) is built on these operations.

Sizing
------
A bandwidth-``L`` grid stores real harmonic coefficients for all degrees
``l <= L``, which is ``(L+1)**2`` numbers.  Nodes are laid out as
``L+1`` Gauss-Legendre colatitudes times ``2(L+1)`` equispaced longitudes,
so the node count is ``2(L+1)**2``.  This is the minimal Gauss-Legendre
layout for which the quadrature rule integrates products of two degree-L
harmonics exactly (polynomial degree ``2L`` in ``cos(theta)`` against a
rule exact through ``2L+1``), making analysis an exact left inverse of
synthesis on band-limited data.  Poles are never nodes.

Every real basis function is a colatitude part times a longitude part, and
so is each of its derivatives in the node frame.  The grid therefore holds
order-major ring tables, one ``nlat x (L+1)`` block per signed order (zero
below degree ``|m|``), and one ``nlon x (2L+1)`` table of signed-order
longitude factors, and no ``n x C`` matrix (``C = (L+1)**2``).  A transform
is one batched product over the orders and one GEMM with the longitude
table: O(L**3) per call.  The Newton Jacobian is assembled from them in
O(L**5); only this module reads them.

The colatitude parts are normalized associated Legendre functions from one
stable three-term recurrence, evaluated one order at a time by
:func:`_legendre_order`; the ring tables, off-grid evaluation and the
harmonic sup-norms all call it.  The rings sit at the Gauss-Legendre nodes
of ``numpy.polynomial.legendre``; the grid needs nothing beyond numpy.

Conventions
-----------
* Node ordering is colatitude-major: node ``i = j*nlon + k`` sits at
  ``(theta[j], phi[k])`` with ``theta`` ascending and ``phi = 2*pi*k/nlon``.
* The real basis at degree ``l`` uses ``m = -l..l`` with ``m > 0`` the
  ``cos(m*phi)`` functions, ``m < 0`` the ``sin(|m|*phi)`` functions and
  ``m = 0`` zonal; all are orthonormal with respect to surface measure.
* The orthonormal frame at a node is ``(e_theta, e_phi)``, the unit
  coordinate directions of spherical coordinates; covariant Hessians are
  reported as symmetric 2x2 matrices in that frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import GridMismatch, InvalidParameter

__all__ = [
    "DEFAULT_BANDWIDTH",
    "SphericalGrid",
    "ScalarField",
    "HarmonicCoeffs",
    "build_grid",
    "integrate",
    "analyze",
    "synthesize",
    "tangential_gradient",
    "harmonic_field",
    "evaluate_harmonics",
    "lm_index",
    "coeff_count",
    "require_same_grid",
    "field_to_csv",
    "field_from_csv",
]

DEFAULT_BANDWIDTH = 16

# The basis stays finite at any degree; the cap bounds the dense C x C Newton
# matrices (C = (L+1)**2), about 143 MB each at L = 64 and 708 MB at L = 96.
_MAX_BANDWIDTH = 64


def lm_index(l: int, m: int) -> int:
    """Flat index of the real harmonic (l, m) in coefficient vectors."""
    l = _require_integer("harmonic degree l", l)
    m = _require_integer("harmonic order m", m)
    if not (0 <= abs(m) <= l):
        raise InvalidParameter(f"harmonic order |m| <= l required, got l={l}, m={m}")
    return l * l + l + m


def coeff_count(L: int) -> int:
    """Number of real harmonic coefficients through degree L."""
    return (L + 1) ** 2


def _require_fits(L: int, target: int) -> None:
    """The one bandwidth rule; callers check before allocating anything sized by ``L``."""
    if L > target:
        raise GridMismatch(f"coefficients of bandwidth {L} exceed bandwidth {target}")


def _require_positive_finite(name: str, value: float) -> None:
    """The one rule for scalar options that must be positive and finite."""
    # written as not (0 < value < inf) so that NaN fails too
    if not (0.0 < value < np.inf):
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def _read_only(values) -> np.ndarray:
    """The one rule for a value type's arrays: a read-only float copy.

    Copying first keeps the caller's array writable and the instance's
    array unchanged by later writes to it.
    """
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _require_integer(name: str, value) -> int:
    """The one rule for integer options; returns ``value`` as an int.

    Ints, numpy integers and integral floats pass; bools, strings,
    non-finite and fractional values raise InvalidParameter.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")


def _degree_order_arrays(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of degree l and signed order m indexed by flat coefficient."""
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    # inverts lm_index: index = l*l + l + m
    ms = np.arange(coeff_count(L)) - ls * (ls + 1)
    return ls, ms


def _legendre_order(L: int, m: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized associated Legendre values and theta-derivatives of one order.

    This is the grid's one Legendre recurrence.

    The values ``Pbar_lm = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos t)``,
    Condon-Shortley sign included, come from the stable recurrences of the
    normalized functions (Driscoll & Healy 1994; Schaeffer 2013), which never
    form the factorials and so stay inside double range at any degree:

        Pbar_00      = 1 / sqrt(4 pi)
        Pbar_mm      = -sqrt((2m+1)/(2m)) sin(t) Pbar_{m-1,m-1}
        Pbar_{m+1,m} = sqrt(2m+3) cos(t) Pbar_mm
        Pbar_lm      = a_lm (cos(t) Pbar_{l-1,m} - b_lm Pbar_{l-2,m}),

    with ``a_lm = sqrt((4l^2-1)/(l^2-m^2))`` and
    ``b_lm = sqrt(((l-1)^2-m^2)/(4(l-1)^2-1))``.  The theta-derivative is

        d/dt Pbar_lm = (l cos(t) Pbar_lm
                        - sqrt((2l+1)(l-m)(l+m)/(2l-1)) Pbar_{l-1,m}) / sin(t),

    valid away from the poles, with ``Pbar_{l-1,m} = 0`` when ``m > l-1``.

    Parameters
    ----------
    L : int
        Maximum degree.
    m : int
        Order, ``0 <= m <= L``.
    mu : ndarray
        cos(theta) at the evaluation points, strictly inside (-1, 1).

    Returns
    -------
    values, dtheta : ndarray
        Shape ``(len(mu), L+1)`` arrays indexed by ``[point, l]`` (zero for
        ``l < m``) holding ``Pbar_lm`` and its derivative with respect to theta.
    """
    sin_theta = np.sqrt(1.0 - mu**2)
    # The sectoral steps are one running product over the orders up to m;
    # rows are degrees while the recurrence runs, so each step writes a row.
    k = np.arange(1, m + 1)
    steps = np.empty((m + 1, len(mu)))
    steps[0] = 1.0 / np.sqrt(4.0 * np.pi)
    steps[1:] = -np.sqrt((2 * k + 1) / (2 * k))[:, None] * sin_theta
    P = np.zeros((L + 1, len(mu)))
    P[m] = np.cumprod(steps, axis=0)[m]
    if m < L:
        P[m + 1] = np.sqrt(2 * m + 3) * mu * P[m]
    l = np.arange(m + 2, L + 1)
    a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
    b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
    for degree, a_l, b_l in zip(range(m + 2, L + 1), a, b):
        P[degree] = a_l * (mu * P[degree - 1] - b_l * P[degree - 2])

    l = np.arange(L + 1)
    down = np.zeros(L + 1)
    below = m < l
    down[below] = np.sqrt(((2 * l + 1) * (l - m) * (l + m) / (2 * l - 1))[below])
    dP = l[:, None] * mu * P
    dP[1:] -= down[1:, None] * P[:-1]
    dP /= sin_theta
    return P.T, dP.T


def _trig_table(L: int, phi: np.ndarray) -> np.ndarray:
    """Signed-order longitude factors of the real basis.

    Returns shape ``(len(phi), 2L+1)``; column ``m + L`` holds
    ``sqrt(2) cos(m phi)`` for ``m > 0``, ``sqrt(2) sin(|m| phi)`` for
    ``m < 0`` and 1 for ``m = 0``.
    """
    angle = np.outer(phi, np.arange(1, L + 1))
    root2 = np.sqrt(2.0)
    return np.hstack([root2 * np.sin(angle[:, ::-1]), np.ones((len(phi), 1)),
                      root2 * np.cos(angle)])


def _harmonic_sup(l: int, m: int) -> float:
    """Sup-norm of the real harmonic (l, m) over the sphere: the maximum of its
    normalized Legendre part, as the longitude factor attains 1.  Zonal harmonics
    peak at the poles, at ``sqrt((2l+1)/(4 pi))`` exactly; for ``m != 0`` the pole
    values vanish and dense interior sampling locates the maximum."""
    if m == 0:
        return float(np.sqrt((2 * l + 1) / (4.0 * np.pi)))
    theta = np.linspace(0.0, np.pi, 4097)[1:-1]
    column = _legendre_order(l, abs(m), np.cos(theta))[0][:, l]
    return float(np.sqrt(2.0) * np.max(np.abs(column)))


class SphericalGrid:
    """Quadrature grid and spectral operators on the unit sphere.

    Construct through :func:`build_grid`.  All arrays are read-only after
    construction; instances are safe to share between threads.

    Attributes
    ----------
    L : int
        Bandwidth (maximum resolvable harmonic degree).
    nlat, nlon : int
        Ring and longitude counts, ``L+1`` and ``2(L+1)``.
    theta, phi : ndarray
        Colatitude ring angles (ascending) and longitudes.
    theta_nodes, phi_nodes : ndarray
        Per-node angles, colatitude-major order.
    nodes : ndarray, shape (n, 3)
        Unit outward normals (the node directions).
    weights : ndarray, shape (n,)
        Quadrature weights; they sum to the sphere area ``4 pi``.
    e_theta, e_phi : ndarray, shape (n, 3)
        Orthonormal tangent frame at each node.
    """

    def __init__(self, L: int):
        self.L = int(L)
        self.nlat = self.L + 1
        self.nlon = 2 * (self.L + 1)

        x, w = np.polynomial.legendre.leggauss(self.nlat)
        mu = x[::-1].copy()  # descending mu = ascending theta
        w_theta = w[::-1].copy()
        self.theta = np.arccos(mu)
        self.phi = 2.0 * np.pi * np.arange(self.nlon) / self.nlon

        tt = np.repeat(self.theta, self.nlon)
        pp = np.tile(self.phi, self.nlat)
        self.theta_nodes = tt
        self.phi_nodes = pp
        st, ct = np.sin(tt), np.cos(tt)
        sp, cp = np.sin(pp), np.cos(pp)
        self.nodes = np.column_stack([st * cp, st * sp, ct])
        self.weights = np.repeat(w_theta, self.nlon) * (2.0 * np.pi / self.nlon)
        self.e_theta = np.column_stack([ct * cp, ct * sp, -st])
        self.e_phi = np.column_stack([-sp, cp, np.zeros_like(sp)])

        for arr in (self.theta, self.phi, self.theta_nodes, self.phi_nodes,
                    self.nodes, self.weights, self.e_theta, self.e_phi):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nlat * self.nlon

    @property
    def n_coeffs(self) -> int:
        return coeff_count(self.L)

    @cached_property
    def _spec(self) -> SimpleNamespace:
        """Ring tables of the spectral operators (built lazily, then cached).

        Each basis function and each of its frame derivatives is a
        colatitude part times a longitude part.  The colatitude parts come
        from the one Legendre recurrence, :func:`_legendre_order`, called
        once per order ``m = 0..L``, and are stored order-major: block
        ``m + L`` of a table is ``nlat x (L+1)``, indexed ``[ring, l]`` and
        zero for ``l < |m|``.  ``Pm`` holds the values, ``Gm`` the gradient
        parts ``G1 | G2`` and ``Hm`` the Hessian parts ``R11 | R12 | R22``,
        stacked along the ring axis.  ``G2`` and ``R12`` pair with the
        partner order ``-m``, and ``G2`` carries the gradient's
        ``1/sin(theta)``.  The longitude parts are the columns of ``trig``
        (see :func:`_trig_table`).  ``slots`` places flat coefficient
        ``(l, m)`` at ``(m + L)(L + 1) + l`` of a padded ``(2L+1) x (L+1)``
        array; ``ms`` is its signed order and ``lap_eig`` its Laplacian
        eigenvalue.  ``ring_weights`` is one node's quadrature weight per
        ring.
        """
        L = self.L
        ls, ms = _degree_order_arrays(L)
        nlat = self.nlat
        Pm = np.empty((2 * L + 1, nlat, L + 1))
        Gm = np.empty((2 * L + 1, 2 * nlat, L + 1))
        Hm = np.empty((2 * L + 1, 3 * nlat, L + 1))
        # Blocks L..2L, orders m = 0..L, come first, one recurrence call each;
        # there G2 and R12 carry the phi-derivative's scale |m| of the sin orders.
        mu = np.cos(self.theta)
        for order in range(L + 1):
            Pm[L + order], Gm[L + order, :nlat] = _legendre_order(L, order, mu)
        P, dP = Pm[L:], Gm[L:, :nlat]
        degrees = np.arange(L + 1)
        lap = -(degrees * (degrees + 1)).astype(float)
        m = degrees.astype(float)[:, None, None]
        m2 = m ** 2

        # Second theta-derivative through the associated Legendre equation,
        # then the Christoffel corrections of the round metric give the
        # covariant Hessian in the orthonormal frame.
        st = np.sin(self.theta)[:, None]
        cot = mu[:, None] / st
        Gm[L:, nlat:] = P * m / st
        Hm[L:, :nlat] = -cot * dP + lap * P + m2 * P / st**2
        Hm[L:, nlat:2 * nlat] = (dP - cot * P) / st * m
        Hm[L:, 2 * nlat:] = -m2 * P / st**2 + cot * dP

        # The phi-derivative swaps each cos/sin pair and scales by the order:
        # d/dphi cos(m phi) = -m sin(m phi), d/dphi sin(m phi) = m cos(m phi).
        # So order -m copies order m, and G2 and R12 change sign at the cos
        # orders m > 0.
        for table in (Pm, Gm, Hm):
            table[:L] = table[:L:-1]
        Gm[L + 1:, nlat:] *= -1.0
        Hm[L + 1:, nlat:2 * nlat] *= -1.0
        trig = _trig_table(L, self.phi)
        ring_weights = self.weights[::self.nlon]
        slots = (ms + L) * (L + 1) + ls
        lap_eig = lap[ls]

        for arr in (Pm, Gm, Hm, trig, ring_weights, slots, ms, lap_eig):
            arr.setflags(write=False)
        return SimpleNamespace(Pm=Pm, Gm=Gm, Hm=Hm, trig=trig, ring_weights=ring_weights,
                               slots=slots, ms=ms, lap_eig=lap_eig)

    # ndarray-level operations; the typed wrappers below are the public API.
    # Analysis is one GEMM of all rings against the trig table, one batched
    # product with ``Pm`` over the signed orders and a gather by ``slots``.
    # Synthesis scatters the coefficients into the padded order-major array,
    # takes one batched product with a stacked table, reverses the partner
    # blocks along the order axis and ends in one GEMM with the trig table;
    # the Hessian's three components share that one pass.  Both are O(L**3)
    # and private, so each public call is one traced span.

    def _analysis(self, values: np.ndarray) -> np.ndarray:
        s = self._spec
        rings = (s.ring_weights[:, None] * values.reshape(self.nlat, self.nlon)) @ s.trig
        return np.matmul(rings.T[:, None, :], s.Pm).reshape(-1)[s.slots]

    def _nodes(self, table: np.ndarray, coeffs: np.ndarray, partners: tuple = ()) -> np.ndarray:
        """Node values of each ``nlat``-ring block of ``table`` applied to ``coeffs``.

        Returns shape ``(blocks, n)``.  The blocks named in ``partners`` pair
        with the trig column of order ``-m`` rather than ``m``.
        """
        s = self._spec
        orders = 2 * self.L + 1
        padded = np.zeros(orders * (self.L + 1))
        padded[s.slots] = coeffs
        rings = np.matmul(table, padded.reshape(orders, self.L + 1, 1))
        rings = rings.reshape(orders, -1, self.nlat)
        for b in partners:
            rings[:, b] = rings[::-1, b].copy()
        return (rings.reshape(orders, -1).T @ s.trig.T).reshape(-1, self.n_nodes)

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        return self._analysis(values)

    def synthesize_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return self._nodes(self._spec.Pm, coeffs)[0]

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami operator: degree-l coefficients scale by -l(l+1)."""
        s = self._spec
        return self._nodes(s.Pm, s.lap_eig * self._analysis(values))[0]

    def hessian_components(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Covariant Hessian frame components (H11, H12, H22); the values are
        analyzed once, so they are treated as band-limited."""
        h11, h12, h22 = self._nodes(self._spec.Hm, self._analysis(values), partners=(1,))
        return h11, h12, h22

    def gradient_components(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tangential gradient frame components (along e_theta, e_phi)."""
        g1, g2 = self._nodes(self._spec.Gm, self._analysis(values), partners=(1,))
        return g1, g2

    def _flat(self, table: np.ndarray) -> list[np.ndarray]:
        """Degree-major ``nlat x C`` copies of the ring blocks of an order-major
        table: column ``c`` is the ring part of flat coefficient ``c``."""
        order, degree = np.divmod(self._spec.slots, self.L + 1)
        blocks = table.reshape(table.shape[0], -1, self.nlat, self.L + 1)
        return [blocks[order, b, :, degree].T for b in range(blocks.shape[1])]

    def _galerkin_matrix(self, c0, c11, c12, c22) -> np.ndarray:
        """Galerkin matrix of ``phi -> c0 phi + c11 H11 phi + c12 H12 phi + c22 H22 phi``.

        The ``c_t`` are node fields and ``H_t`` the basis values (``t = 0``) or
        the Hessian frame components.  Entry ``[a, b]`` is the quadrature
        projection ``sum_t A[a, :] @ (c_t * H_t[:, b])`` onto harmonic ``a`` of
        the operator applied to harmonic ``b``.  Every factor is a ring part
        times a longitude part, so each ring needs only the ring sums

            F_t[j, p, q] = sum_k c_t(j, k) T_p(phi_k) T_q(phi_k),

        one product with the trig-column products.  Each signed order ``p``
        is then one ``(rows x nlat) @ (nlat x C)`` product: ``2 nlat C**2``
        flops in all against ``2 n C**2`` over the nodes, with the same sums.
        """
        s = self._spec
        L = self.L
        (P,) = self._flat(s.Pm)
        R11, R12, R22 = self._flat(s.Hm)
        trig_products = (s.trig[:, :, None] * s.trig[:, None, :]).reshape(self.nlon, -1)
        fields = np.stack([c0, c11, c12, c22]).reshape(4 * self.nlat, self.nlon)
        ring_sums = (fields @ trig_products).reshape(4, self.nlat, 2 * L + 1, 2 * L + 1)
        orders = s.ms + L
        partners = L - s.ms  # H12 pairs with the partner order -m
        weighted = s.ring_weights[:, None] * P
        out = np.empty((self.n_coeffs, self.n_coeffs))
        for p in range(2 * L + 1):
            F0, F11, F12, F22 = ring_sums[:, :, p, :]
            ring_rows = (P * F0[:, orders] + R11 * F11[:, orders]
                         + R12 * F12[:, partners] + R22 * F22[:, orders])
            rows = orders == p
            out[rows] = weighted[:, rows].T @ ring_rows
        return out

    def _damped(self, coeffs: np.ndarray, s: float) -> np.ndarray:
        """Solve ``(1 - s Laplacian) x = coeffs`` in harmonic space."""
        return coeffs / (1.0 - s * self._spec.lap_eig)

    def __repr__(self) -> str:
        return f"SphericalGrid(L={self.L}, nodes={self.n_nodes})"


@dataclass(frozen=True)
class ScalarField:
    """Real scalar function sampled at the nodes of a spherical grid."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        values = _read_only(self.values)
        if values.shape != (self.grid.n_nodes,):
            raise InvalidParameter(
                f"field needs {self.grid.n_nodes} node values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("field values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class HarmonicCoeffs:
    """Real spherical-harmonic coefficients through degree ``L``.

    Coefficient order is degree-major with the signed-order layout of
    :func:`lm_index`; ``values[lm_index(l, m)]`` multiplies the orthonormal
    real harmonic ``(l, m)``.
    """

    L: int
    values: np.ndarray

    def __post_init__(self):
        if self.L < 0:
            raise InvalidParameter("bandwidth must be nonnegative")
        values = _read_only(self.values)
        if values.shape != (coeff_count(self.L),):
            raise InvalidParameter(
                f"bandwidth {self.L} needs {coeff_count(self.L)} coefficients, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("coefficients must be finite")
        object.__setattr__(self, "values", values)

    def embedded(self, L: int) -> "HarmonicCoeffs":
        """Zero-pad to bandwidth ``L >= self.L`` (see :func:`_require_fits`)."""
        _require_fits(self.L, L)
        if L == self.L:
            return self
        out = np.zeros(coeff_count(L))
        out[: coeff_count(self.L)] = self.values
        return HarmonicCoeffs(L, out)


_GRID_CACHE: dict[int, SphericalGrid] = {}


def build_grid(L: int = DEFAULT_BANDWIDTH) -> SphericalGrid:
    """Build (or fetch from cache) the bandwidth-``L`` spherical grid.

    Parameters
    ----------
    L : int
        Bandwidth; at least 4 so the geometric operators have room to act,
        and at most 64 to bound the memory of the dense ``C x C`` Newton
        matrices (``C = (L+1)**2``), about 143 MB each at L = 64 and 708 MB
        at L = 96.
    """
    L = _require_integer("bandwidth", L)
    if L < 4:
        raise InvalidParameter(f"bandwidth must be at least 4, got {L}")
    if L > _MAX_BANDWIDTH:
        raise InvalidParameter(f"bandwidth must be at most {_MAX_BANDWIDTH}, got {L}")
    if L not in _GRID_CACHE:
        _GRID_CACHE[L] = SphericalGrid(L)
    return _GRID_CACHE[L]


def require_same_grid(a: SphericalGrid, b: SphericalGrid, what: str) -> None:
    """Raise :class:`GridMismatch` unless ``a`` and ``b`` share a bandwidth.

    ``what`` names the two objects in the error message.
    """
    if a.L != b.L:
        raise GridMismatch(f"{what}: grids have bandwidths {a.L} and {b.L}")


def integrate(field: ScalarField) -> float:
    """Quadrature integral of a field over the sphere."""
    return float(np.dot(field.grid.weights, field.values))


def analyze(field: ScalarField) -> HarmonicCoeffs:
    """Project a field onto real harmonics through the grid bandwidth.

    For band-limited node data this inverts :func:`synthesize` exactly (to
    rounding); for rougher data it returns the quadrature projection.
    """
    return HarmonicCoeffs(field.grid.L, field.grid.analyze_values(field.values))


def synthesize(coeffs: HarmonicCoeffs, grid: SphericalGrid) -> ScalarField:
    """Evaluate harmonic coefficients at the grid nodes.

    Coefficients of lower bandwidth embed by zero padding; a bandwidth above
    the grid's raises :class:`GridMismatch` (see :meth:`HarmonicCoeffs.embedded`).
    """
    return ScalarField(grid, grid.synthesize_coeffs(coeffs.embedded(grid.L).values))


def tangential_gradient(h: ScalarField) -> np.ndarray:
    """Tangential gradient as ambient 3-vectors at the nodes."""
    gt, gp = h.grid.gradient_components(h.values)
    return gt[:, None] * h.grid.e_theta + gp[:, None] * h.grid.e_phi


def harmonic_field(grid: SphericalGrid, l: int, m: int) -> ScalarField:
    """The orthonormal real harmonic (l, m) sampled on the grid."""
    index = lm_index(l, m)
    _require_fits(l, grid.L)
    c = np.zeros(grid.n_coeffs)
    c[index] = 1.0
    return ScalarField(grid, grid.synthesize_coeffs(c))


def evaluate_harmonics(coeffs: HarmonicCoeffs, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate a harmonic expansion at arbitrary points off the grid.

    ``theta`` values must stay strictly inside ``(0, pi)``; this helper backs
    finite-difference cross-checks of the derivative operators.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape:
        raise InvalidParameter("theta and phi must have matching shapes")
    if np.any((theta <= 0.0) | (theta >= np.pi)):
        raise InvalidParameter("evaluation points must avoid the poles")
    L = coeffs.L
    mu = np.cos(theta)
    orders = np.stack([_legendre_order(L, m, mu)[0] for m in range(L + 1)], axis=1)
    ls, ms = _degree_order_arrays(L)
    basis = orders[:, np.abs(ms), ls] * _trig_table(L, phi)[:, ms + L]
    return basis @ coeffs.values


# ----------------------------------------------------------------------
# Serialization: every CSV artefact is "# " comments, a header and rows, with
# floats written by repr so that equal values give equal bytes.
# ----------------------------------------------------------------------

def _csv_cell(value) -> str:
    """A float as ``repr(float(value))``, anything else with ``str``."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv_text(header: str, rows, head=(), tail=()) -> str:
    """CSV text: ``# `` comments ``head``, the header, the rows, comments ``tail``."""
    lines = [f"# {line}" for line in head]
    lines.append(header)
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    lines.extend(f"# {line}" for line in tail)
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, header: str, what: str) -> tuple[list[str], np.ndarray]:
    """The comments (without ``#``) and float rows of :func:`_csv_text` output;
    bad input raises :class:`InvalidParameter` naming the file line."""
    width = header.count(",") + 1
    comments, rows = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            comments.append(line.lstrip("#").strip())
        elif line and rows is None:
            if line != header:
                raise InvalidParameter(f"{what} line {lineno}: expected the header {header}")
            rows = []
        elif line:
            try:
                rows.append([float(p) for p in line.split(",")])
            except ValueError:
                raise InvalidParameter(f"{what} line {lineno}: bad number") from None
            if len(rows[-1]) != width:
                raise InvalidParameter(f"{what} line {lineno}: expected {width} fields")
    if not rows:
        raise InvalidParameter(f"{what} needs the header {header} and at least one row")
    return comments, np.array(rows)


def field_to_csv(field: ScalarField) -> str:
    """Serialize a field as ``theta,phi,value`` rows, one per node (radians)."""
    nodes = np.column_stack((field.grid.theta_nodes, field.grid.phi_nodes, field.values))
    return _csv_text("theta,phi,value", nodes.tolist(), head=[f"grid_L={field.grid.L}"])


def field_from_csv(text: str, grid: SphericalGrid | None = None) -> ScalarField:
    """Parse a field written by :func:`field_to_csv`.

    If ``grid`` is omitted the bandwidth is taken from the ``# grid_L=``
    comment.  Node angles are checked against the grid layout.
    """
    comments, data = _csv_rows(text, "theta,phi,value", "field CSV")
    if grid is None:
        sizes = [c.split("=", 1)[1].strip() for c in comments if c.startswith("grid_L=")]
        if not (sizes and sizes[-1].isdecimal()):
            raise InvalidParameter("field CSV needs an integer grid_L comment or a grid")
        grid = build_grid(int(sizes[-1]))
    if data.shape[0] != grid.n_nodes:
        raise InvalidParameter(f"field CSV has {data.shape[0]} rows, grid expects {grid.n_nodes}")
    if not (np.allclose(data[:, 0], grid.theta_nodes, atol=1e-9)
            and np.allclose(data[:, 1], grid.phi_nodes, atol=1e-9)):
        raise InvalidParameter("field CSV node angles do not match the grid layout")
    return ScalarField(grid, data[:, 2])
