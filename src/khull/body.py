"""Convex body kinds and the oracle calculus every other module builds on.

Bodies are immutable. Supported kinds: Ball, Ellipsoid, PNormBall with
p in (1, inf), and Polytope for d in {2, 3}. The strictly convex kinds
expose exact support, gauge and boundary-normal oracles; polytopes carry
a facet description computed once from their vertex list.

The gauge is always the Minkowski functional about the origin, so gauge
and polar operations require the origin in the interior of the body.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UnsupportedKindError

Array = np.ndarray

# Bisection tolerance for gauge / ray-exit roots without a closed form.
GAUGE_REL_TOL = 1e-12
# |gauge - 1| window accepted as "on the boundary" by normal_at.
BOUNDARY_TOL = 1e-9
# Rows of normal draws per block when an ellipsoid's surface mass is
# estimated.
SAMPLER_BLOCK = 16384
# Entries of the (candidates x directions) dot table per block in
# `_radial_min`.
RADIAL_BLOCK = 2 ** 16


def kappa(d: int) -> float:
    """Volume of the d-dimensional unit ball."""
    return math.pi ** (d / 2) / math.gamma(1 + d / 2)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return d * kappa(d)


def direction_grid(d: int, m: int) -> Array:
    """Deterministic low-discrepancy grid of m unit directions.

    All quadratures, polytopal approximations and radial probes share this
    grid so that paired estimates see identical directions. d=2 uses a
    half-offset angular lattice, d=3 a Fibonacci sphere.
    """
    if d == 2:
        theta = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        i = np.arange(m)
        z = 1.0 - (2.0 * i + 1.0) / m
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    raise DomainError(f"direction grids are provided for d in {{2, 3}}, got d={d}")


def _radial_min(U: Array, h: Array) -> Array:
    """Radial function of {x : <x, u_k> <= h_k for all k} at the unit rows
    u_j of U themselves: the least h_k / <u_k, u_j> over <u_k, u_j> > 1e-12.
    The support values need not be convex.

    1 / r_j is the support of Q = conv{u_k / h_k} at u_j, attained at a
    vertex of Q, so only the rows of Q's vertices and of the points qhull
    keeps as coplanar with its facets enter the table (every row when
    qhull fails, as for infinite h). The table runs in even blocks of
    candidate rows against every direction, U[rows] @ U.T, each reduced
    over its rows into the running minimum. No block has a single row: a
    one-row product runs through a matrix-vector kernel, whose dots can
    differ in the last bit from those of the full table U @ U.T.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(U / h[:, None])
        rows = np.concatenate([hull.vertices, hull.coplanar[:, 0]])
    except QhullError:
        rows = np.arange(U.shape[0])
    r = np.full(U.shape[0], np.inf)
    step = max(2, RADIAL_BLOCK // U.shape[0])
    for block in np.array_split(rows, -(-rows.size // step)):
        dots = U[block] @ U.T
        with np.errstate(divide="ignore"):
            ratios = np.where(dots > 1e-12, h[block, None] / dots, np.inf)
        np.minimum(r, ratios.min(axis=0), out=r)
    if not np.all(np.isfinite(r)):
        raise NumericError("support bounds do not enclose a bounded region")
    return r


def _radial_volume(r: Array, d: int) -> float:
    """Spherical quadrature of the volume below a radial profile on
    `direction_grid`; the same grid on both profiles keeps inner/outer
    gaps nonnegative."""
    if d == 2:
        return 0.5 * float(np.mean(r ** 2)) * 2.0 * math.pi
    return float(np.mean(r ** 3)) * (4.0 * math.pi / 3.0)


def _as_point(x, d: int | None = None) -> Array:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"expected a vector, got shape {x.shape}")
    if d is not None and x.size != d:
        raise DomainError(f"expected a vector of dimension {d}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("vector has non-finite entries")
    return x


def _as_direction(u, d: int) -> Array:
    u = _as_point(u, d)
    if float(u @ u) == 0.0:
        raise DomainError("direction must be nonzero")
    return u


def _unit_rows(U: Array) -> Array:
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    return U / norms


@dataclass(frozen=True, eq=False)
class SurfaceMeasureSampler:
    """Sampler for the surface area measure of a body, normalized to a
    probability law on the sphere of outer normals.

    total_mass is the full surface measure; it is exact for balls and
    polytopes and Monte Carlo estimated (with standard error) otherwise.
    For polytopes the measure is atomic and the atoms are exposed.
    """

    body: "ConvexBody"
    total_mass: float
    total_mass_se: float
    atoms: tuple[Array, Array] | None = None  # (normals, weights)

    def draw(self, rng: np.random.Generator, size: int) -> Array:
        """Draw `size` unit normals with law S_{d-1}(K, .) / total_mass."""
        return self.body._surface_normal_draw(rng, size)


class _BodyBase:
    """Shared conveniences; concrete kinds implement the per-kind oracles."""

    @property
    def dim(self) -> int:
        return self.center.size

    def support(self, u) -> float:
        u = _as_direction(u, self.dim)
        return float(self.support_batch(u[None, :])[0])

    def gauge(self, x) -> float:
        x = _as_point(x, self.dim)
        return float(self.gauge_batch(x[None, :])[0])

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_point(x, self.dim)
        return bool(self._interior_batch(x[None, :], tol)[0])

    def bounding_box(self) -> tuple[Array, Array]:
        """Axis-aligned box [lo, hi] from support values, read-only; built
        once per body (`_bounding_box`)."""
        return _bounding_box(self)

    def _require_origin_interior(self) -> None:
        if not self._origin_interior():
            raise DomainError("operation requires the origin in the interior of the body")


@dataclass(frozen=True, eq=False)
class Ball(_BodyBase):
    """Euclidean ball of a given radius and center."""

    radius: float
    center: Array

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError("ball radius must be positive and finite")

    def _origin_interior(self) -> bool:
        return float(np.linalg.norm(self.center)) < self.radius

    def support_batch(self, U: Array) -> Array:
        return U @ self.center + self.radius * np.linalg.norm(U, axis=1)

    def support_point(self, u) -> Array:
        u = _as_direction(u, self.dim)
        return self.center + self.radius * u / np.linalg.norm(u)

    def gauge_batch(self, X: Array) -> Array:
        self._require_origin_interior()
        return _ball_gauge(X, self.center, self.radius)

    def _sq_dist(self, X: Array) -> Array:
        """Squared distances of the rows of X from the center: the squares
        np.linalg.norm(X - center, axis=1) sums, summed column by column in
        its order, without its (n, d) temporaries."""
        q = X[:, 0] - self.center[0]
        s = q * q
        for c in range(1, self.dim):
            np.subtract(X[:, c], self.center[c], out=q)
            q *= q
            s += q
        return s

    def _interior_batch(self, X: Array, tol: float = 0.0) -> Array:
        s = self._sq_dist(X)
        return np.sqrt(s, out=s) < self.radius + tol

    def normal_at(self, x, tol: float = BOUNDARY_TOL) -> Array:
        x = _boundary_point(self, x, tol)
        v = x - self.center
        return v / np.linalg.norm(v)

    def translate(self, v) -> "Ball":
        return Ball(self.radius, self.center + _as_point(v, self.dim))

    def reflect(self) -> "Ball":
        return Ball(self.radius, -self.center)

    def volume(self) -> float:
        return kappa(self.dim) * self.radius ** self.dim

    def is_origin_symmetric(self, tol: float = 1e-12) -> bool:
        return float(np.linalg.norm(self.center)) <= tol

    def surface_sampler(self, mass_samples: int = 0) -> SurfaceMeasureSampler:
        total = sphere_area(self.dim) * self.radius ** (self.dim - 1)
        return SurfaceMeasureSampler(self, total, 0.0)

    def _surface_normal_draw(self, rng: np.random.Generator, size: int) -> Array:
        g = rng.standard_normal((size, self.dim))
        return _unit_rows(g)

    # Largest t with xi + t*u on the boundary, u unit rows. Closed form.
    def ray_exit_batch(self, Xi: Array, U: Array) -> Array:
        Q = Xi - self.center
        dots = U @ Q.T                                   # (m, k)
        disc = dots**2 + (self.radius**2 - np.sum(Q * Q, axis=1))[None, :]
        return -dots + np.sqrt(np.maximum(disc, 0.0))


def _ball_gauge(X: Array, c: Array, r: float) -> Array:
    """Minkowski functional of Ball(r, c) about the origin, |c| < r."""
    cc = float(c @ c)
    xc = X @ c
    xx = np.sum(X * X, axis=1)
    denom = r * r - cc
    if denom <= 0.0:
        raise DomainError("gauge undefined: origin not interior to the ball")
    return (-xc + np.sqrt(xc * xc + denom * xx)) / denom


@dataclass(frozen=True, eq=False)
class Ellipsoid(_BodyBase):
    """Ellipsoid {center + R diag(axes) w : |w| <= 1} with orthonormal R."""

    axes: Array
    center: Array
    rotation: Array | None = None

    def __post_init__(self):
        axes = _as_point(self.axes)
        if np.any(axes <= 0.0):
            raise DomainError("ellipsoid semi-axes must be positive")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "center", _as_point(self.center, axes.size))
        d = axes.size
        R = np.eye(d) if self.rotation is None else np.asarray(self.rotation, dtype=float)
        if R.shape != (d, d) or not np.allclose(R @ R.T, np.eye(d), atol=1e-9):
            raise DomainError("ellipsoid rotation must be an orthonormal d x d matrix")
        object.__setattr__(self, "rotation", R)

    @functools.cached_property
    def _A(self) -> Array:
        return self.rotation * self.axes[None, :]      # R @ diag(axes)

    @functools.cached_property
    def _Ainv(self) -> Array:
        return (self.rotation / self.axes[None, :]).T  # diag(1/axes) @ R.T

    def _origin_interior(self) -> bool:
        return float(np.linalg.norm(self._Ainv @ self.center)) < 1.0

    def support_batch(self, U: Array) -> Array:
        return U @ self.center + np.linalg.norm(U @ self._A, axis=1)

    def support_point(self, u) -> Array:
        u = _as_direction(u, self.dim)
        w = self._A.T @ u
        return self.center + self._A @ (w / np.linalg.norm(w))

    def gauge_batch(self, X: Array) -> Array:
        self._require_origin_interior()
        return _ball_gauge(X @ self._Ainv.T, self._Ainv @ self.center, 1.0)

    def _unit_norms(self, X: Array) -> Array:
        """|A^-1 (x - center)| for the rows x of X: the gauge of K - center
        at x - center, bit for bit as its `gauge_batch` takes it."""
        return np.linalg.norm((X - self.center) @ self._Ainv.T, axis=1)

    def _interior_batch(self, X: Array, tol: float = 0.0) -> Array:
        return self._unit_norms(X) < 1.0 + tol

    def normal_at(self, x, tol: float = BOUNDARY_TOL) -> Array:
        x = _boundary_point(self, x, tol)
        g = self._Ainv.T @ (self._Ainv @ (x - self.center))
        return g / np.linalg.norm(g)

    def translate(self, v) -> "Ellipsoid":
        return Ellipsoid(self.axes, self.center + _as_point(v, self.dim), self.rotation)

    def reflect(self) -> "Ellipsoid":
        return Ellipsoid(self.axes, -self.center, self.rotation)

    def volume(self) -> float:
        return kappa(self.dim) * float(np.prod(self.axes))

    def is_origin_symmetric(self, tol: float = 1e-12) -> bool:
        return float(np.linalg.norm(self.center)) <= tol

    def surface_sampler(self, mass_samples: int = 200_000) -> SurfaceMeasureSampler:
        # Area element under the sphere chart w -> A w is |det A| * |A^-T w|,
        # so total mass is Monte Carlo but acceptance tests are exact draws.
        # The draws are taken SAMPLER_BLOCK rows at a time, the same stream
        # and the same per-row arithmetic as in one piece, in less memory.
        d = self.dim
        rng = np.random.default_rng(1_234_567)
        Ainv = self._Ainv
        det = abs(float(np.linalg.det(self._A)))
        dens = np.empty(mass_samples)
        for a in range(0, mass_samples, SAMPLER_BLOCK):
            b = min(a + SAMPLER_BLOCK, mass_samples)
            W = _unit_rows(rng.standard_normal((b - a, d)))
            dens[a:b] = np.linalg.norm(W @ Ainv, axis=1) * det
        total = float(np.mean(dens)) * sphere_area(d)
        se = float(np.std(dens, ddof=1) / math.sqrt(mass_samples)) * sphere_area(d)
        return SurfaceMeasureSampler(self, total, se)

    def _surface_normal_draw(self, rng: np.random.Generator, size: int) -> Array:
        # Rejection with the exact density |A^-T w|; envelope 1/min(axes).
        d = self.dim
        Minv = self._Ainv
        env = 1.0 / float(np.min(self.axes))
        out = np.empty((size, d))
        filled = 0
        while filled < size:
            batch = max(64, int(1.5 * (size - filled)))
            W = _unit_rows(rng.standard_normal((batch, d)))
            dens = np.linalg.norm(W @ Minv, axis=1)
            keep = rng.uniform(0.0, 1.0, batch) * env < dens
            Wk = W[keep]
            take = min(size - filled, Wk.shape[0])
            N = Wk[:take] @ Minv
            out[filled : filled + take] = _unit_rows(N)
            filled += take
        return out

    def ray_exit_batch(self, Xi: Array, U: Array) -> Array:
        Minv = self._Ainv
        Q = (Xi - self.center) @ Minv.T
        Ut = U @ Minv.T
        dots = np.einsum("md,kd->mk", Ut, Q)
        uu = np.sum(Ut * Ut, axis=1)[:, None]
        disc = dots**2 + uu * (1.0 - np.sum(Q * Q, axis=1))[None, :]
        return (-dots + np.sqrt(np.maximum(disc, 0.0))) / uu


@dataclass(frozen=True, eq=False)
class PNormBall(_BodyBase):
    """Scaled p-norm ball {center + scale * w : |w|_p <= 1}, p in (1, inf)."""

    p: float
    scale: float
    center: Array

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DomainError("p must lie in (1, inf)")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("scale must be positive and finite")
        object.__setattr__(self, "center", _as_point(self.center))

    @property
    def _q(self) -> float:
        return self.p / (self.p - 1.0)

    def _origin_interior(self) -> bool:
        return _pnorm(self.center[None, :], self.p)[0] < self.scale

    def support_batch(self, U: Array) -> Array:
        return U @ self.center + self.scale * _pnorm(U, self._q)

    def support_point(self, u) -> Array:
        u = _as_direction(u, self.dim)
        q = self._q
        w = np.sign(u) * np.abs(u) ** (q - 1.0)
        nq = _pnorm(u[None, :], q)[0]
        return self.center + self.scale * w / nq ** (q - 1.0)

    def gauge_batch(self, X: Array) -> Array:
        self._require_origin_interior()
        c, s, p = self.center, self.scale, self.p
        if float(np.linalg.norm(c)) == 0.0:
            return _pnorm(X, p) / s
        # Convex in t, one sign change on [0, hi]; bisect to GAUGE_REL_TOL.
        norms = _pnorm(X, p)
        hi = np.maximum(norms / (s - _pnorm(c[None, :], p)[0]), 1e-300)
        lo = np.zeros_like(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            inside = _pnorm(X - mid[:, None] * c[None, :], p) - mid * s <= 0.0
            hi = np.where(inside, mid, hi)
            lo = np.where(inside, lo, mid)
            if np.all(hi - lo <= GAUGE_REL_TOL * np.maximum(hi, 1.0)):
                break
        return np.where(norms == 0.0, 0.0, 0.5 * (lo + hi))

    def _interior_batch(self, X: Array, tol: float = 0.0) -> Array:
        return _pnorm((X - self.center) / self.scale, self.p) < 1.0 + tol

    def normal_at(self, x, tol: float = BOUNDARY_TOL) -> Array:
        x = _boundary_point(self, x, tol)
        w = (x - self.center) / self.scale
        g = np.sign(w) * np.abs(w) ** (self.p - 1.0)
        return g / np.linalg.norm(g)

    def translate(self, v) -> "PNormBall":
        return PNormBall(self.p, self.scale, self.center + _as_point(v, self.dim))

    def reflect(self) -> "PNormBall":
        return PNormBall(self.p, self.scale, -self.center)

    def volume(self) -> float:
        d, p = self.dim, self.p
        return (2.0 * self.scale * math.gamma(1.0 + 1.0 / p)) ** d / math.gamma(1.0 + d / p)

    def is_origin_symmetric(self, tol: float = 1e-12) -> bool:
        return float(np.linalg.norm(self.center)) <= tol

    def _surface_jacobian(self, U: Array) -> Array:
        # Boundary as a radial graph rho(u) u: dS = rho^(d-2) sqrt(rho^2 + |grad_S rho|^2).
        d, p, s = self.dim, self.p, self.scale
        np_ = _pnorm(U, p)
        rho = s / np_
        gnorm = np.sign(U) * np.abs(U) ** (p - 1.0) / np_[:, None] ** (p - 1.0)
        grad = -s / np_[:, None] ** 2 * gnorm
        tang = grad - np.sum(grad * U, axis=1)[:, None] * U
        return rho ** (d - 2) * np.sqrt(rho**2 + np.sum(tang * tang, axis=1))

    def surface_sampler(self, mass_samples: int = 200_000) -> SurfaceMeasureSampler:
        d = self.dim
        rng = np.random.default_rng(1_234_567)
        W = _unit_rows(rng.standard_normal((mass_samples, d)))
        dens = self._surface_jacobian(W)
        total = float(np.mean(dens)) * sphere_area(d)
        se = float(np.std(dens, ddof=1) / math.sqrt(mass_samples)) * sphere_area(d)
        return SurfaceMeasureSampler(self, total, se)

    def _surface_normal_draw(self, rng: np.random.Generator, size: int) -> Array:
        d = self.dim
        probes = self._surface_jacobian(direction_grid(d, 8192))
        env = 1.5 * float(np.max(probes))
        out = np.empty((size, d))
        filled = 0
        while filled < size:
            batch = max(64, int(2.0 * (size - filled)))
            W = _unit_rows(rng.standard_normal((batch, d)))
            dens = self._surface_jacobian(W)
            if np.any(dens > env):
                raise NumericError("surface sampler envelope exceeded; refusing biased draws")
            keep = rng.uniform(0.0, 1.0, batch) * env < dens
            Wk = W[keep]
            take = min(size - filled, Wk.shape[0])
            G = np.sign(Wk[:take]) * np.abs(Wk[:take]) ** (self.p - 1.0)
            out[filled : filled + take] = _unit_rows(G)
            filled += take
        return out

    def ray_exit_batch(self, Xi: Array, U: Array) -> Array:
        # No closed form; vectorized bisection bracketed by the support bound.
        m, k = U.shape[0], Xi.shape[0]
        hi = self.support_batch(U)[:, None] - U @ Xi.T
        lo = np.zeros((m, k))
        hi = np.maximum(hi, 1e-300)
        P = Xi[None, :, :]  # (1, k, d)
        D = U[:, None, :]   # (m, 1, d)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            pts = P + mid[:, :, None] * D
            inside = _pnorm(pts - self.center, self.p) <= self.scale
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
            if np.all(hi - lo <= GAUGE_REL_TOL * np.maximum(hi, 1.0)):
                break
        return 0.5 * (lo + hi)


def _pnorm(X: Array, p: float) -> Array:
    return np.sum(np.abs(X) ** p, axis=-1) ** (1.0 / p)


@dataclass(frozen=True, eq=False)
class Polytope(_BodyBase):
    """Convex polytope given by its vertex list, d in {2, 3}.

    The facet description (outward normals and origin offsets) is computed
    once at construction and backs gauge, membership and the polar.
    """

    vertices: Array

    def __post_init__(self):
        from scipy.spatial import ConvexHull, QhullError

        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] not in (2, 3):
            raise DomainError("polytope vertices must be an (m, d) array with d in {2, 3}")
        if not np.all(np.isfinite(V)):
            raise DomainError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", V)
        try:
            hull = ConvexHull(V)
        except QhullError as exc:
            raise DomainError("polytope is not full-dimensional") from exc
        # Facets as (normal, offset) with <n, x> <= t; duplicates from
        # triangulated coplanar faces are deduplicated.
        A = hull.equations[:, :-1]
        t = -hull.equations[:, -1]
        _, keep = np.unique(np.round(np.column_stack([A, t]), 12), axis=0, return_index=True)
        object.__setattr__(self, "_facet_normals", A[np.sort(keep)])
        object.__setattr__(self, "_facet_offsets", t[np.sort(keep)])
        object.__setattr__(self, "_hull", hull)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def center(self) -> Array:  # reference point used by dim only
        return self.vertices[0]

    def facet_description(self) -> tuple[Array, Array]:
        """Outward facet normals and offsets: K = {x : N x <= t}."""
        return self._facet_normals.copy(), self._facet_offsets.copy()

    def _origin_interior(self) -> bool:
        return bool(np.all(self._facet_offsets > 0.0))

    def support_batch(self, U: Array) -> Array:
        return (U @ self.vertices.T).max(axis=1)

    def support_point(self, u):
        raise UnsupportedKindError("support_point is undefined for polytopes (faces, not points)")

    def gauge_batch(self, X: Array) -> Array:
        self._require_origin_interior()
        ratios = (X @ self._facet_normals.T) / self._facet_offsets[None, :]
        return np.maximum(ratios.max(axis=1), 0.0)

    def _interior_batch(self, X: Array, tol: float = 0.0) -> Array:
        slack = self._facet_offsets[None, :] - X @ self._facet_normals.T
        return slack.min(axis=1) > -tol

    def normal_at(self, x, tol: float = BOUNDARY_TOL):
        raise UnsupportedKindError("normal_at requires a strictly convex kind")

    def translate(self, v) -> "Polytope":
        return Polytope(self.vertices + _as_point(v, self.dim)[None, :])

    def reflect(self) -> "Polytope":
        return Polytope(-self.vertices)

    def volume(self) -> float:
        return float(self._hull.volume)

    def is_origin_symmetric(self, tol: float = 1e-9) -> bool:
        V = self.vertices[self._hull.vertices]
        W = np.round(V / tol) * tol
        as_set = {tuple(row) for row in np.round(W, 9)}
        neg_set = {tuple(row) for row in np.round(-W, 9)}
        return as_set == neg_set

    def polar(self) -> "Polytope":
        """Polar polytope conv{n_i / t_i} over the facets; needs 0 interior."""
        self._require_origin_interior()
        return Polytope(self._facet_normals / self._facet_offsets[:, None])

    def surface_sampler(self, mass_samples: int = 0) -> SurfaceMeasureSampler:
        normals, weights = self._facet_atoms()
        total = float(weights.sum())
        return SurfaceMeasureSampler(self, total, 0.0, atoms=(normals, weights))

    def _facet_atoms(self) -> tuple[Array, Array]:
        """Atoms of the surface measure: facet normals weighted by areas,
        merged over coplanar triangulation pieces."""
        hull = self._hull
        V = self.vertices
        sims = hull.simplices
        eqs = hull.equations
        if self.dim == 2:
            areas = np.linalg.norm(V[sims[:, 0]] - V[sims[:, 1]], axis=1)
        else:
            e1 = V[sims[:, 1]] - V[sims[:, 0]]
            e2 = V[sims[:, 2]] - V[sims[:, 0]]
            areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        key = np.round(eqs, 9)
        _, inverse = np.unique(key, axis=0, return_inverse=True)
        n_groups = int(inverse.max()) + 1
        weights = np.zeros(n_groups)
        normals = np.zeros((n_groups, self.dim))
        for s in range(sims.shape[0]):
            g = inverse[s]
            weights[g] += areas[s]
            normals[g] = eqs[s, :-1]
        return _unit_rows(normals), weights

    def _surface_normal_draw(self, rng: np.random.Generator, size: int) -> Array:
        normals, weights = self._facet_atoms()
        idx = rng.choice(normals.shape[0], size=size, p=weights / weights.sum())
        return normals[idx]

    def ray_exit_batch(self, Xi: Array, U: Array) -> Array:
        # Exit of xi + t u through the facet planes: min over facets with
        # positive directional component of (t_f - <n_f, xi>) / <n_f, u>.
        N, t = self._facet_normals, self._facet_offsets
        num = t[None, :] - Xi @ N.T            # (k, F), positive for interior xi
        den = U @ N.T                          # (m, F)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = num[None, :, :] / den[:, None, :]
        ratios = np.where(den[:, None, :] > 1e-300, ratios, np.inf)
        return ratios.min(axis=2)


ConvexBody = Ball | Ellipsoid | PNormBall | Polytope


@functools.lru_cache(maxsize=16)
def _bounding_box(K: ConvexBody) -> tuple[Array, Array]:
    """K's bounding box [lo, hi] from its support on the coordinate axes,
    read-only. Bodies are immutable and hash by identity, so every
    replicate of a campaign, which reuses its body, reads the same box."""
    eye = np.eye(K.dim)
    hi = K.support_batch(eye)
    lo = -K.support_batch(-eye)
    for a in (lo, hi):
        a.setflags(write=False)
    return lo, hi


def _boundary_point(K: ConvexBody, x, tol: float) -> Array:
    x = _as_point(x, K.dim)
    g = K.gauge(x)
    if abs(g - 1.0) > tol:
        raise DomainError(f"point is not on the boundary: |gauge - 1| = {abs(g - 1.0):.3e}")
    return x


def uniform_sample(K: ConvexBody, n: int, rng: np.random.Generator) -> Array:
    """Draw n points uniformly from K by rejection from its bounding box."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    d = K.dim
    lo, hi = K.bounding_box()
    box_vol = float(np.prod(hi - lo))
    rate = max(K.volume() / box_vol, 1e-3)
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        batch = max(32, int(1.2 * (n - filled) / rate))
        # rng.uniform(lo, hi, size=(batch, d)) draws the same numbers, lo +
        # (hi - lo) * u; a scalar per column and np.compress avoid numpy's
        # slow paths for a (d,) broadcast and a boolean row index
        X = rng.random((batch, d))
        for c in range(d):
            col = X[:, c]
            col *= hi[c] - lo[c]
            col += lo[c]
        keep = np.compress(K._interior_batch(X), X, axis=0)
        take = min(n - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out
