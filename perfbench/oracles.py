"""Reference answers for the benchmark, written apart from khull.

Only numpy and scipy are used here, so a fault in the package cannot
hide itself by also being present in its oracle.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError


def disk_arc_owners(points, radius: float = 1.0, center=(0.0, 0.0)) -> set[int]:
    """Sample indices whose circle bounds X = intersection of the disks
    B(center - x_j, radius) along an arc of positive length.

    A point p = c_i + r e(t) of circle i lies in disk j exactly when
    cos(t - phi_ij) >= |c_j - c_i| / (2r), phi_ij the direction from c_i
    to c_j: one angular interval of half-width below pi/2. Circle i owns
    an arc when the intervals of all other disks share a point. Each
    interval is shorter than a half turn, so measuring angles from any one
    of them turns the circular intersection into a linear one.

    Only vertices of the sample's convex hull are tried: if x is a convex
    combination of the x_j, |y + x| <= sum_j l_j |y + x_j| <= r for every y
    in X, so X lies inside x's disk and touches its circle at most in a
    degenerate point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.asarray(center, dtype=float)[None, :] - pts
    try:
        candidates = ConvexHull(pts).vertices if len(pts) > 3 else np.arange(len(pts))
    except QhullError:  # collinear sample
        candidates = np.arange(len(pts))
    diff = centers[None, :, :] - centers[candidates, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    if np.any(dist > 2.0 * radius):
        raise ValueError("disjoint disks: sample points not interior to the disk")
    constrains = dist > 0.0  # a disk never constrains its own circle
    phi = np.arctan2(diff[..., 1], diff[..., 0])
    half = np.where(constrains, np.arccos(np.minimum(dist / (2.0 * radius), 1.0)), np.inf)
    ref = np.argmin(half, axis=1)
    phi_ref = phi[np.arange(candidates.size), ref][:, None]
    delta = np.mod(phi - phi_ref + math.pi, 2.0 * math.pi) - math.pi
    lo = np.where(constrains, delta - half, -np.inf).max(axis=1)
    hi = np.where(constrains, delta + half, np.inf).min(axis=1)
    return {int(i) for i in candidates[hi > lo]}


def cell_vertices_from_dual(dual_points) -> np.ndarray:
    """Vertices of {x : <x, p> <= 1 for every dual vertex p}, the polar of
    the dual hull, which holds the origin in its interior."""
    P = np.atleast_2d(np.asarray(dual_points, dtype=float))
    halfspaces = np.column_stack([P, -np.ones(P.shape[0])])
    verts = HalfspaceIntersection(halfspaces, np.zeros(P.shape[1])).intersections
    return _distinct_rows(verts, _tolerance(verts))


def same_point_set(a, b) -> bool:
    """Equal finite point sets, up to a rounding tolerance scaled to them."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return False
    tol = _tolerance(np.concatenate([a, b]))
    gaps = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return bool(np.all(gaps.min(axis=1) <= tol) and np.all(gaps.min(axis=0) <= tol))


def uniform_disk(rng: np.random.Generator, n: int, radius: float = 1.0) -> np.ndarray:
    """n points uniform in the open disk of the given radius about 0."""
    rho = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])


def _tolerance(points: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.abs(points).max(initial=0.0)))


def _distinct_rows(points: np.ndarray, tol: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept)
