"""Closed-form and quadrature expectations for zero-cell statistics.

The expected vertex count of the zero cell factors through the projection
body PK (support h(PK, x) = half the first absolute moment of the surface
measure). For an origin-symmetric generator it equals 2^-d d! times the
volume product of PK and its polar; in general it is a sphere integral of
h(PK, x)^-d against a d-fold surface-measure determinant integral over the
halfspace of x. Monte Carlo enters only where no closed form exists, and
always carries a standard error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (Ball, ConvexBody, Ellipsoid, PNormBall, Polytope,
                   direction_grid, kappa, sphere_area, _as_direction, _radial_min,
                   _radial_volume, _unit_rows)
from .errors import DomainError, NumericError

Array = np.ndarray


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs shared by the expectation estimators.

    sphere_nodes defaults to 4096 angular nodes for d=2 and 1e5 Monte Carlo
    sphere nodes for d=3. mc_inner_samples is the shared draw pool for
    surface-measure integrals, split into `batches` nonempty groups for the
    standard error. error_mode "fail_above" turns a standard error larger
    than error_tol into a hard failure instead of a reported number.
    """

    sphere_nodes: int | None = None
    mc_inner_samples: int = 100_000
    batches: int = 10
    seed: int = 20_240_101
    error_mode: str = "report_se"
    error_tol: float | None = None

    def __post_init__(self) -> None:
        if self.sphere_nodes is not None and self.sphere_nodes < 1:
            raise DomainError("sphere_nodes must be positive")
        if not 1 <= self.batches <= self.mc_inner_samples:
            raise DomainError(f"need 1 <= batches <= mc_inner_samples, got batches = "
                              f"{self.batches} and mc_inner_samples = {self.mc_inner_samples}")
        if self.error_mode not in ("report_se", "fail_above"):
            raise DomainError("error_mode must be 'report_se' or 'fail_above'")
        if self.error_mode == "fail_above" and self.error_tol is None:
            raise DomainError("error_mode 'fail_above' needs error_tol")

    def nodes_for(self, d: int) -> int:
        if self.sphere_nodes is not None:
            return self.sphere_nodes
        return 4096 if d == 2 else 100_000

    def check(self, est: "ExpectationEstimate") -> "ExpectationEstimate":
        if self.error_mode == "fail_above" and est.standard_error > self.error_tol:
            raise NumericError(
                f"standard error {est.standard_error:.3g} exceeds the requested "
                f"bound {self.error_tol:.3g}; increase the sample budget")
        return est


@dataclass(frozen=True)
class ExpectationEstimate:
    """Value with its standard error; zero for deterministic routes."""

    value: float
    standard_error: float
    method: str  # closed_form | quadrature | monte_carlo

    def __post_init__(self) -> None:
        if self.standard_error < 0.0:
            raise DomainError("standard error cannot be negative")


def _scale_body(K: ConvexBody, c: float) -> ConvexBody:
    if isinstance(K, Ball):
        return Ball(K.radius * c, K.center * c)
    if isinstance(K, Ellipsoid):
        return Ellipsoid(K.axes * c, K.center * c, K.rotation)
    if isinstance(K, PNormBall):
        return PNormBall(K.p, K.scale * c, K.center * c)
    return Polytope(K.vertices * c)


def _weighted_surface_draws(K: ConvexBody, n: int, rng: np.random.Generator
                            ) -> tuple[Array, Array]:
    """Importance draws on K's chart: normals N = nu(w) at uniform unit w,
    weights W with  integral f dS  =  E[f(N) W].

    Avoids rejection: the uniform-sphere density is divided out exactly,
    which is cheaper than the accept/reject sampler and equivalent in
    expectation.
    """
    Wdir = _unit_rows(rng.standard_normal((n, K.dim)))
    return K._normal_map(Wdir), K._density(Wdir) * K._density_scale * sphere_area(K.dim)


def projection_body_support(K: ConvexBody, x,
                            spec: QuadratureSpec | None = None) -> ExpectationEstimate:
    """Support of the projection body: half the integral of |<x, u>|
    against the surface measure of K.

    Closed form for balls, an exact atom sum for polytopes, Monte Carlo
    with a batch standard error for the remaining kinds.
    """
    x = _as_direction(x, K.dim)
    d = K.dim
    if isinstance(K, Ball):
        val = kappa(d - 1) * K.radius ** (d - 1) * float(np.linalg.norm(x))
        return ExpectationEstimate(val, 0.0, "closed_form")
    if isinstance(K, Polytope):
        normals, weights = K._facet_atoms
        val = 0.5 * float(np.sum(weights * np.abs(normals @ x)))
        return ExpectationEstimate(val, 0.0, "closed_form")
    spec = spec or QuadratureSpec()
    rng = np.random.default_rng(spec.seed)
    N, W = _weighted_surface_draws(K, spec.mc_inner_samples, rng)
    vals = 0.5 * np.abs(N @ x) * W
    parts = np.array([float(np.mean(p)) for p in np.array_split(vals, spec.batches)])
    return _batch_estimate(spec, parts)


def _batch_estimate(spec: QuadratureSpec, ests: Array) -> ExpectationEstimate:
    """The mean of per-batch estimates with its standard error, checked."""
    return spec.check(ExpectationEstimate(float(np.mean(ests)),
                                          float(np.std(ests, ddof=1) / math.sqrt(ests.size)),
                                          "monte_carlo"))


def _pk_support_curves(K: ConvexBody, U: Array, spec: QuadratureSpec) -> Array:
    """Batch curves of h(PK, .) on the node grid, shape (B, m); a single
    batch when the support is exact."""
    d = K.dim
    if isinstance(K, Ball):
        return np.full((1, U.shape[0]), kappa(d - 1) * K.radius ** (d - 1))
    if isinstance(K, Polytope):
        normals, weights = K._facet_atoms
        return (0.5 * np.abs(U @ normals.T) @ weights)[None, :]
    rng = np.random.default_rng(spec.seed + 1)
    N, W = _weighted_surface_draws(K, spec.mc_inner_samples, rng)
    curves = []
    for Nb, Wb in zip(np.array_split(N, spec.batches), np.array_split(W, spec.batches)):
        curve = np.empty(U.shape[0])
        step = max(1, 4_000_000 // max(Nb.shape[0], 1))
        for lo in range(0, U.shape[0], step):
            block = U[lo:lo + step]
            curve[lo:lo + step] = 0.5 * np.mean(np.abs(block @ Nb.T) * Wb[None, :],
                                                axis=1)
        curves.append(curve)
    return np.array(curves)


def _zonotope_volume(V: Array) -> float:
    """Volume of the zonotope sum_i [-v_i/2, v_i/2] by the determinant
    expansion over d-subsets of the generating vectors."""
    n, d = V.shape
    total = 0.0
    if d == 2:
        for i in range(n):
            for j in range(i + 1, n):
                total += abs(V[i, 0] * V[j, 1] - V[i, 1] * V[j, 0])
        return total
    for i in range(n):
        for j in range(i + 1, n):
            cross = np.cross(V[i], V[j])
            for k in range(j + 1, n):
                total += abs(float(cross @ V[k]))
    return total


def volume_polar_radial(h, d: int, nodes: int | None = None,
                        rng: np.random.Generator | None = None) -> ExpectationEstimate:
    """Volume of the polar of {x : <x, u> <= h(u)}: (1/d) integral of
    h^-d over the sphere.

    h may be a callable on unit directions or an array of node values.
    d=2 integrates the periodic integrand on the angular lattice
    (deterministic); d=3 uses Monte Carlo sphere nodes with a standard
    error, unless node values are supplied, which are averaged as given.
    """
    if d == 2:
        U = direction_grid(2, nodes or 4096) if callable(h) else None
        hv = np.asarray(h(U) if callable(h) else h, dtype=float)
        if np.any(hv <= 0.0):
            raise DomainError("support values must be strictly positive")
        val = 0.5 * float(np.mean(hv ** (-2.0))) * 2.0 * math.pi
        return ExpectationEstimate(val, 0.0, "quadrature")
    if d == 3:
        if callable(h):
            m = nodes or 100_000
            rng = rng or np.random.default_rng(7)
            hv = np.asarray(h(_unit_rows(rng.standard_normal((m, 3)))), dtype=float)
            method = "monte_carlo"
        else:
            hv = np.asarray(h, dtype=float)
            method = "quadrature"
        if np.any(hv <= 0.0):
            raise DomainError("support values must be strictly positive")
        vals = hv ** (-3.0) * (sphere_area(3) / 3.0)
        se = float(np.std(vals, ddof=1) / math.sqrt(hv.size)) if method == "monte_carlo" else 0.0
        return ExpectationEstimate(float(np.mean(vals)), se, method)
    raise DomainError("polar volumes are provided for d in {2, 3}")


def ef0_symmetric(K: ConvexBody, spec: QuadratureSpec | None = None) -> ExpectationEstimate:
    """Expected zero-cell vertex count for an origin-symmetric generator:
    2^-d d! V_d(PK) V_d((PK)^o).

    Both volumes come from h(PK, .) on a shared node grid: the body volume
    by radial integration of the support-bound region, read on the grid
    that carries the constraints (exact for rotation-invariant h,
    second-order accurate otherwise), the polar volume by the h^-d
    integral. Monte Carlo support curves (ellipsoids, p-balls) propagate a
    batch standard error through the product.
    """
    if not K.is_origin_symmetric():
        raise DomainError("generator is not origin-symmetric; use ef0_general")
    spec = spec or QuadratureSpec()
    d = K.dim
    m = spec.nodes_for(d) if d == 2 else 8192
    U = direction_grid(d, m)
    curves = _pk_support_curves(K, U, spec)
    exact_v_pk = None
    if isinstance(K, Polytope):
        # PK is a zonotope generated by the weighted facet normals, so its
        # volume is exact; the radial-min estimate is only first-order
        # accurate at a polytopal PK's own facet normals.
        normals, weights = K._facet_atoms
        exact_v_pk = _zonotope_volume(weights[:, None] * normals)
    ests = []
    for hv in curves:
        v_pk = (exact_v_pk if exact_v_pk is not None
                else _radial_volume(_radial_min(U, hv), d))
        if d == 2:
            v_polar = 0.5 * float(np.mean(hv ** (-2.0))) * 2.0 * math.pi
        else:
            v_polar = float(np.mean(hv ** (-3.0))) * sphere_area(3) / 3.0
        ests.append(2.0 ** (-d) * math.factorial(d) * v_pk * v_polar)
    ests = np.array(ests)
    if ests.size == 1:
        return ExpectationEstimate(float(ests[0]), 0.0, "quadrature")
    return _batch_estimate(spec, ests)


def halfspace_determinant_integral(K: ConvexBody, X: Array,
                                   spec: QuadratureSpec | None = None) -> Array:
    """Batch curves of the d-fold surface-measure integral of the simplex
    determinant |[v_1 ... v_d]| over normals in the closed halfspace of
    each node x. Shape (B, m); a single exact batch for polytopes.

    For an origin-symmetric generator the curve is constant in x and
    equals 2^-d d! V_d(PK), which the tests use as a diagnostic.
    """
    spec = spec or QuadratureSpec()
    d = K.dim
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if isinstance(K, Polytope):
        normals, weights = K._facet_atoms
        ind = (X @ normals.T >= 0.0).astype(float).T          # (atoms, m)
        if d == 2:
            dets = np.abs(normals[:, None, 0] * normals[None, :, 1]
                          - normals[:, None, 1] * normals[None, :, 0])
            M = (weights[:, None] * weights[None, :]) * dets
            return np.einsum("aj,ab,bj->j", ind, M, ind)[None, :]
        A = normals.shape[0]
        dets = np.empty((A, A, A))
        for a in range(A):
            dets[a] = np.abs(np.cross(normals[a], normals) @ normals.T)
        M = dets * (weights[:, None, None] * weights[None, :, None]
                    * weights[None, None, :])
        return np.einsum("aj,bj,cj,abc->j", ind, ind, ind, M)[None, :]

    rng = np.random.default_rng(spec.seed + 2)
    streams = [_weighted_surface_draws(K, spec.mc_inner_samples, rng) for _ in range(d)]
    B = spec.batches
    out = np.zeros((B, m))
    bounds = np.linspace(0, spec.mc_inner_samples, B + 1).astype(int)
    if d == 2:
        (V1, W1), (V2, W2) = streams
        dets = np.abs(V1[:, 0] * V2[:, 1] - V1[:, 1] * V2[:, 0]) * W1 * W2
        for b in range(B):
            s = slice(bounds[b], bounds[b + 1])
            ind = (V1[s] @ X.T >= 0.0) & (V2[s] @ X.T >= 0.0)
            out[b] = (dets[s, None] * ind).mean(axis=0)
        return out
    (V1, W1), (V2, W2), (V3, W3) = streams
    dets = np.abs(np.einsum("nd,nd->n", np.cross(V1, V2), V3)) * W1 * W2 * W3
    chunk = max(1, 20_000_000 // max(m, 1))
    for b in range(B):
        lo, hi = bounds[b], bounds[b + 1]
        acc = np.zeros(m)
        for c0 in range(lo, hi, chunk):
            s = slice(c0, min(c0 + chunk, hi))
            ind = (V1[s] @ X.T >= 0.0) & (V2[s] @ X.T >= 0.0) & (V3[s] @ X.T >= 0.0)
            acc += (dets[s, None] * ind).sum(axis=0)
        out[b] = acc / (hi - lo)
    return out


def ef0_general(K: ConvexBody, spec: QuadratureSpec | None = None) -> ExpectationEstimate:
    """Expected zero-cell vertex count for an arbitrary generator:
    (1/d) times the sphere integral of h(PK, x)^-d J(x), with J the
    halfspace determinant integral.

    The generator is rescaled to unit volume first (the result is scale
    invariant). Per batch, h and J come from the same draw pool, so the
    spread over batches is an honest standard error for the whole
    composite. Polytopes evaluate both factors exactly and report a
    deterministic quadrature.
    """
    spec = spec or QuadratureSpec()
    d = K.dim
    if d not in (2, 3):
        raise DomainError("zero-cell expectations are provided for d in {2, 3}")
    Kn = _scale_body(K, K.volume() ** (-1.0 / d))
    m = spec.nodes_for(d)
    if d == 2:
        X = direction_grid(2, m)
        node_w = 2.0 * math.pi / m
    else:
        X = _unit_rows(np.random.default_rng(spec.seed + 3).standard_normal((m, 3)))
        node_w = sphere_area(3) / m

    h_curves = _pk_support_curves(Kn, X, spec)
    j_curves = halfspace_determinant_integral(Kn, X, spec)
    B = max(h_curves.shape[0], j_curves.shape[0])
    ests = np.empty(B)
    for b in range(B):
        hv = h_curves[min(b, h_curves.shape[0] - 1)]
        jv = j_curves[min(b, j_curves.shape[0] - 1)]
        ests[b] = (1.0 / d) * float(hv ** (-float(d)) @ jv) * node_w
    if B == 1:
        return ExpectationEstimate(float(ests[0]), 0.0, "quadrature")
    return _batch_estimate(spec, ests)
