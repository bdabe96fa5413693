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
``nlat x C`` ring tables (``C = (L+1)**2``) and one ``nlon x (2L+1)`` table
of signed-order longitude factors, and no ``n x C`` matrix.  A transform is
one product with each, grouped by signed order: O(L**3) per call.  The
Newton Jacobian is assembled from the same tables in O(L**5).

The colatitude parts are normalized associated Legendre functions built by
their stable three-term recurrences (see :func:`_theta_basis`), and the
rings sit at the Gauss-Legendre nodes of ``numpy.polynomial.legendre``;
the grid needs nothing beyond numpy.

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

import io
from dataclasses import dataclass, field as dataclass_field
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
    "laplace_beltrami",
    "covariant_hessian",
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
    if not (0 <= abs(m) <= l):
        raise InvalidParameter(f"harmonic order |m| <= l required, got l={l}, m={m}")
    return l * l + l + m


def coeff_count(L: int) -> int:
    """Number of real harmonic coefficients through degree L."""
    return (L + 1) ** 2


def _degree_order_arrays(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of degree l and signed order m indexed by flat coefficient."""
    ls = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    # inverts lm_index: index = l*l + l + m
    ms = np.arange(coeff_count(L)) - ls * (ls + 1)
    return ls, ms


def _theta_basis(L: int, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized associated Legendre values and theta-derivatives.

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
    mu : ndarray
        cos(theta) at the colatitude rings, strictly inside (-1, 1).

    Returns
    -------
    theta_part, dtheta_part : ndarray
        Shape ``(len(mu), L+1, L+1)`` arrays indexed by ``[ring, l, m]``
        (entries with m > l are zero) holding ``Pbar_lm`` and its
        derivative with respect to theta.
    """
    sin_theta = np.sqrt(1.0 - mu**2)
    P = np.zeros((len(mu), L + 1, L + 1))
    P[:, 0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for l in range(1, L + 1):
        P[:, l, l] = -np.sqrt((2 * l + 1) / (2 * l)) * sin_theta * P[:, l - 1, l - 1]
        P[:, l, l - 1] = np.sqrt(2 * l + 1) * mu * P[:, l - 1, l - 1]
        m = np.arange(l - 1)
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
        b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
        P[:, l, :l - 1] = a * (mu[:, None] * P[:, l - 1, :l - 1] - b * P[:, l - 2, :l - 1])

    l, m = np.ogrid[: L + 1, : L + 1]
    down = np.zeros((L + 1, L + 1))
    below = m < l
    down[below] = np.sqrt(((2 * l + 1) * (l - m) * (l + m) / (2 * l - 1))[below])
    dP = l * mu[:, None, None] * P
    dP[:, 1:, :] -= down[1:] * P[:, :-1, :]
    dP /= sin_theta[:, None, None]
    return P, dP


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
        colatitude part times a longitude part.  The colatitude parts are the
        ``nlat x C`` ring tables (``C`` the coefficient count) ``P`` (values),
        ``G1``, ``G2`` (gradient) and ``R11``, ``R12``, ``R22`` (Hessian);
        ``G2`` and ``R12`` pair with the partner order ``-m``, and ``G2``
        carries the gradient's ``1/sin(theta)``.  The longitude parts are the
        columns of ``trig`` (see :func:`_trig_table`).  The Jacobian also
        reads ``trig_products`` (products of every pair of trig columns) and
        ``ring_weights`` (the quadrature weight of one node per ring).
        ``by_order`` sorts the coefficients by signed order and
        ``order_starts`` bounds each order in it.
        """
        L = self.L
        ls, ms = _degree_order_arrays(L)
        theta_part, dtheta_part = _theta_basis(L, np.cos(self.theta))
        P = theta_part[:, ls, np.abs(ms)]
        dP = dtheta_part[:, ls, np.abs(ms)]
        lap_eig = -(ls * (ls + 1)).astype(float)
        m2 = (ms ** 2).astype(float)

        # The phi-derivative swaps each cos/sin pair and scales by the order:
        # d/dphi cos(m phi) = -m sin(m phi), d/dphi sin(m phi) = m cos(m phi).
        dphi_scale = np.where(ms > 0, -ms, np.abs(ms)).astype(float)

        # Second theta-derivative through the associated Legendre equation,
        # then the Christoffel corrections of the round metric give the
        # covariant Hessian in the orthonormal frame.
        st = np.sin(self.theta)[:, None]
        cot = np.cos(self.theta)[:, None] / st
        G2 = P * dphi_scale / st
        R11 = -cot * dP + lap_eig * P + m2 * P / st**2
        R12 = (dP - cot * P) / st * dphi_scale
        R22 = -m2 * P / st**2 + cot * dP

        trig = _trig_table(L, self.phi)
        trig_products = (trig[:, :, None] * trig[:, None, :]).reshape(self.nlon, -1)
        ring_weights = self.weights[::self.nlon]
        by_order = np.argsort(ms, kind="stable")
        order_starts = np.searchsorted(ms[by_order], np.arange(-L, L + 1))

        for arr in (P, dP, G2, R11, R12, R22, trig, trig_products, ring_weights):
            arr.setflags(write=False)
        return SimpleNamespace(P=P, G1=dP, G2=G2, R11=R11, R12=R12, R22=R22, trig=trig,
                               trig_products=trig_products, ring_weights=ring_weights,
                               by_order=by_order, order_starts=order_starts, ms=ms,
                               lap_eig=lap_eig)

    # ndarray-level operations; the typed wrappers below are the public API.
    # Each runs in two stages of O(L**3): one GEMM of all rings against the
    # trig table and one contraction with a ring table grouped by signed
    # order.  They share the private stages, so each call is one traced span.

    def _analysis(self, values: np.ndarray) -> np.ndarray:
        s = self._spec
        rings = (s.ring_weights[:, None] * values.reshape(self.nlat, self.nlon)) @ s.trig
        return np.einsum("jc,jc->c", s.P, rings[:, s.ms + self.L])

    def _synthesis(self, table: np.ndarray, c: np.ndarray, partner: bool = False) -> np.ndarray:
        """Node values of sum_c table[:, c] c[c] times the trig column of order m_c (or -m_c)."""
        s = self._spec
        rings = np.add.reduceat((table * c)[:, s.by_order], s.order_starts, axis=1)
        trig = s.trig[:, ::-1] if partner else s.trig
        return (rings @ trig.T).ravel()

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        return self._analysis(values)

    def synthesize_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        return self._synthesis(self._spec.P, coeffs)

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        s = self._spec
        return self._synthesis(s.P, s.lap_eig * self._analysis(values))

    def hessian_components(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = self._spec
        c = self._analysis(values)
        return (self._synthesis(s.R11, c), self._synthesis(s.R12, c, partner=True),
                self._synthesis(s.R22, c))

    def gradient_components(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tangential gradient frame components (along e_theta, e_phi)."""
        s = self._spec
        c = self._analysis(values)
        return self._synthesis(s.G1, c), self._synthesis(s.G2, c, partner=True)

    def __repr__(self) -> str:
        return f"SphericalGrid(L={self.L}, nodes={self.n_nodes})"


@dataclass(frozen=True)
class ScalarField:
    """Real scalar function sampled at the nodes of a spherical grid."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise InvalidParameter(
                f"field needs {self.grid.n_nodes} node values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


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
        values = np.asarray(self.values, dtype=float)
        if values.shape != (coeff_count(self.L),):
            raise InvalidParameter(
                f"bandwidth {self.L} needs {coeff_count(self.L)} coefficients, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("coefficients must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __getitem__(self, lm: tuple[int, int]) -> float:
        l, m = lm
        if l > self.L:
            raise InvalidParameter(f"degree {l} exceeds bandwidth {self.L}")
        return float(self.values[lm_index(l, m)])

    def embedded(self, L: int) -> "HarmonicCoeffs":
        """Zero-pad to a larger bandwidth (identity if L matches)."""
        if L < self.L:
            raise InvalidParameter(f"cannot embed bandwidth {self.L} into {L}")
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
    if int(L) != L:
        raise InvalidParameter(f"bandwidth must be an integer, got {L!r}")
    L = int(L)
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
    the grid's cannot be represented and raises :class:`InvalidParameter`.
    """
    if coeffs.L > grid.L:
        raise InvalidParameter(
            f"coefficients of bandwidth {coeffs.L} exceed grid bandwidth {grid.L}"
        )
    c = coeffs.embedded(grid.L)
    return ScalarField(grid, grid.synthesize_coeffs(c.values))


def laplace_beltrami(h: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator, spectrally exact on band-limited fields.

    Acts by scaling the degree-l coefficients with ``-l(l+1)``.
    """
    return ScalarField(h.grid, h.grid.laplacian_values(h.values))


def covariant_hessian(h: ScalarField) -> np.ndarray:
    """Covariant Hessian of ``h`` in the per-node orthonormal frame.

    Returns an ``(n_nodes, 2, 2)`` array of symmetric matrices whose trace
    reproduces the Laplace-Beltrami operator.  The input is treated as
    band-limited (it is analyzed once; derivatives act on the coefficients).
    """
    h11, h12, h22 = h.grid.hessian_components(h.values)
    out = np.empty((h.grid.n_nodes, 2, 2))
    out[:, 0, 0] = h11
    out[:, 0, 1] = h12
    out[:, 1, 0] = h12
    out[:, 1, 1] = h22
    return out


def tangential_gradient(h: ScalarField) -> np.ndarray:
    """Tangential gradient as ambient 3-vectors at the nodes."""
    gt, gp = h.grid.gradient_components(h.values)
    return gt[:, None] * h.grid.e_theta + gp[:, None] * h.grid.e_phi


def harmonic_field(grid: SphericalGrid, l: int, m: int) -> ScalarField:
    """The orthonormal real harmonic (l, m) sampled on the grid."""
    if l > grid.L:
        raise InvalidParameter(f"degree {l} exceeds grid bandwidth {grid.L}")
    c = np.zeros(grid.n_coeffs)
    c[lm_index(l, m)] = 1.0
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
    theta_part, _ = _theta_basis(coeffs.L, np.cos(theta))
    ls, ms = _degree_order_arrays(coeffs.L)
    basis = theta_part[:, ls, np.abs(ms)] * _trig_table(coeffs.L, phi)[:, ms + coeffs.L]
    return basis @ coeffs.values


# ----------------------------------------------------------------------
# Serialization: plain CSV with one row per node, colatitude-major order.
# ----------------------------------------------------------------------

def field_to_csv(field: ScalarField) -> str:
    """Serialize a field as ``theta,phi,value`` rows (angles in radians)."""
    buf = io.StringIO()
    buf.write(f"# grid_L={field.grid.L}\n")
    buf.write("theta,phi,value\n")
    for t, p, v in zip(field.grid.theta_nodes, field.grid.phi_nodes, field.values):
        buf.write(f"{float(t)!r},{float(p)!r},{float(v)!r}\n")
    return buf.getvalue()


def field_from_csv(text: str, grid: SphericalGrid | None = None) -> ScalarField:
    """Parse a field written by :func:`field_to_csv`.

    If ``grid`` is omitted the bandwidth is taken from the ``# grid_L=``
    comment.  Node angles are checked against the grid layout.
    """
    header_L = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("grid_L="):
                header_L = int(body.split("=", 1)[1])
            continue
        if line.lower().startswith("theta"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InvalidParameter(f"malformed field row: {line!r}")
        rows.append([float(x) for x in parts])
    if grid is None:
        if header_L is None:
            raise InvalidParameter("field CSV lacks a grid_L header and no grid was given")
        grid = build_grid(header_L)
    data = np.asarray(rows, dtype=float)
    if data.shape[0] != grid.n_nodes:
        raise InvalidParameter(
            f"field CSV has {data.shape[0]} rows, grid expects {grid.n_nodes}"
        )
    if not (np.allclose(data[:, 0], grid.theta_nodes, atol=1e-9)
            and np.allclose(data[:, 1], grid.phi_nodes, atol=1e-9)):
        raise InvalidParameter("field CSV node angles do not match the grid layout")
    return ScalarField(grid, data[:, 2])
