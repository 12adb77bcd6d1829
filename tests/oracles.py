"""Independent reference implementations the tests compare against.

Everything here is deliberately written by a different route than the
package: linear programs instead of facet algebra, dense boundary search
instead of closed forms, halfspace enumeration instead of vertex maps.
Slow is fine; these only run at test scale. The exceptions are the
per-element tagged-hull and intrinsic-volume references and the one-shot
summary and surface-mass references near the end: they are the package's
earlier code, kept so that its array code can be held to their exact bits.
"""
import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.special import ellipe

from khull.body import Ball, ConvexBody, _unit_rows, direction_grid, sphere_area
from khull.errors import DomainError, NumericError
from khull.faces import COPLANAR_TOL, TaggedPolytope
from khull.hull import (EPS_GEO, EPS_GP, TWO_PI, Arc, ArcBoundary, ArcVertex,
                        DegeneracyWitness, IntersectionBody, _DiskPass, _dedupe_rows,
                        _disk_cycle, _reach_rows, _require_disk)


def lp_gauge(vertices: np.ndarray, x) -> float:
    """Gauge of conv(vertices) at x: the least t with x in t * conv(V),
    i.e. min sum(lam) subject to V^T lam = x, lam >= 0."""
    V = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = V.shape
    res = linprog(c=np.ones(n), A_eq=V.T, b_eq=x, bounds=[(0, None)] * n,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"gauge LP failed: {res.message}")
    return float(res.fun)


def halfspace_polar_vertices(vertices: np.ndarray) -> np.ndarray:
    """Vertices of the polar of conv(vertices) by halfspace enumeration:
    the polar is {u : <u, v> <= 1 for every vertex v}."""
    V = np.asarray(vertices, dtype=float)
    halfspaces = np.column_stack([V, -np.ones(V.shape[0])])
    inter = HalfspaceIntersection(halfspaces, np.zeros(V.shape[1]))
    hull = ConvexHull(inter.intersections)
    return inter.intersections[hull.vertices]


def same_point_set(A: np.ndarray, B: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether two point clouds are equal as sets, matched greedily."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return False
    dist = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    used = np.zeros(B.shape[0], dtype=bool)
    for i in range(A.shape[0]):
        j = int(np.argmin(np.where(used, np.inf, dist[i])))
        if dist[i, j] > tol:
            return False
        used[j] = True
    return True


def dense_support_search(K, u, m: int = 200_000) -> tuple[float, np.ndarray]:
    """Support value and an approximate maximizer by probing the boundary
    point w / gauge(w) over a dense direction fan."""
    d = K.dim
    u = np.asarray(u, dtype=float)
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        W = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        rng = np.random.default_rng(987)
        W = rng.standard_normal((m, d))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
    pts = W / K.gauge_batch(W)[:, None]
    vals = pts @ u
    best = int(np.argmax(vals))
    return float(vals[best]), pts[best]


def fd_gauge_gradient(K, x, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of the gauge at x."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (K.gauge(x + e) - K.gauge(x - e)) / (2.0 * step)
    return g


def ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of an axis-aligned ellipse with semi-axes a >= b."""
    if b > a:
        a, b = b, a
    return 4.0 * a * float(ellipe(1.0 - (b / a) ** 2))


def _segment_distances(X: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from each point in X to each segment [A_j, B_j]: (n, s)."""
    E = B - A                                       # (s, d)
    L2 = np.maximum(np.sum(E * E, axis=1), 1e-300)
    T = ((X[:, None, :] - A[None, :, :]) * E[None, :, :]).sum(axis=2) / L2[None, :]
    T = np.clip(T, 0.0, 1.0)
    P = A[None, :, :] + T[:, :, None] * E[None, :, :]
    return np.linalg.norm(X[:, None, :] - P, axis=2)


def _triangle_distances(X: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distances from points X (n, 3) to one triangle tri (3, 3)."""
    a, b, c = tri
    n = np.cross(b - a, c - a)
    nn = float(n @ n)
    if nn < 1e-300:
        edges_a = np.array([a, b, c])
        edges_b = np.array([b, c, a])
        return _segment_distances(X, edges_a, edges_b).min(axis=1)
    # Signed height and in-plane barycentric test for the foot point.
    t = (X - a) @ n / nn
    foot = X - t[:, None] * n[None, :]
    v0, v1 = b - a, c - a
    d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
    den = d00 * d11 - d01 * d01
    w = foot - a
    d20 = w @ v0
    d21 = w @ v1
    beta = (d11 * d20 - d01 * d21) / den
    gamma = (d00 * d21 - d01 * d20) / den
    inside = (beta >= 0.0) & (gamma >= 0.0) & (beta + gamma <= 1.0)
    plane_dist = np.abs(t) * math.sqrt(nn)
    edge_dist = _segment_distances(X, np.array([a, b, c]),
                                   np.array([b, c, a])).min(axis=1)
    return np.where(inside, plane_dist, edge_dist)


def polytope_distance(vertices: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each row of X to conv(vertices),
    zero for interior points. d in {2, 3}."""
    V = np.asarray(vertices, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    hull = ConvexHull(V)
    slack = X @ hull.equations[:, :-1].T + hull.equations[:, -1][None, :]
    inside = np.all(slack <= 1e-12, axis=1)
    out = np.zeros(X.shape[0])
    probe = ~inside
    if not np.any(probe):
        return out
    Xo = X[probe]
    if V.shape[1] == 2:
        A = V[hull.simplices[:, 0]]
        B = V[hull.simplices[:, 1]]
        d = _segment_distances(Xo, A, B).min(axis=1)
    else:
        d = np.full(Xo.shape[0], np.inf)
        for s in hull.simplices:
            d = np.minimum(d, _triangle_distances(Xo, V[s]))
    out[probe] = d
    return out


def mc_dilated_volume(vertices: np.ndarray, r: float, samples: int,
                      rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo volume of conv(vertices) + r * unit ball, with its
    standard error, by box rejection over the exact distance function."""
    V = np.asarray(vertices, dtype=float)
    lo = V.min(axis=0) - r
    hi = V.max(axis=0) + r
    box = float(np.prod(hi - lo))
    X = rng.uniform(lo, hi, size=(samples, V.shape[1]))
    hit = polytope_distance(V, X) <= r
    p = float(np.mean(hit))
    se = box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return box * p, se


def random_polytope(rng: np.random.Generator, d: int, n_points: int) -> np.ndarray:
    """Vertex list of a random full-dimensional polytope containing the
    origin strictly (vertices of the hull of centered random points)."""
    while True:
        P = rng.uniform(-1.0, 1.0, size=(n_points, d))
        P -= P.mean(axis=0)
        try:
            hull = ConvexHull(P)
        except Exception:
            continue
        if np.all(-hull.equations[:, -1] > 0.05):
            return P[hull.vertices]


def arc_max_norm(center: np.ndarray, radius: float, a0: float, a1: float,
                 shift: np.ndarray) -> float:
    """Exact maximum of |shift + center + radius * e(theta)| over the
    angular interval [a0, a1]."""
    c = np.asarray(shift, dtype=float) + np.asarray(center, dtype=float)
    nc = float(np.linalg.norm(c))
    cands = [a0, a1]
    if nc > 0.0:
        phi = math.atan2(c[1], c[0])
        for k in (-1, 0, 1):
            t = phi + 2.0 * math.pi * k
            if a0 <= t <= a1:
                cands.append(t)
    else:
        cands.append(0.5 * (a0 + a1))
    best = 0.0
    for t in cands:
        p = c + radius * np.array([math.cos(t), math.sin(t)])
        best = max(best, float(np.linalg.norm(p)))
    return best


def full_corner_keep(cand: np.ndarray, centers: np.ndarray, limit: float) -> np.ndarray:
    """Corner screen of the planar arc pipeline as one dense test: keep a
    candidate when it lies within `limit` of every center, each of the
    (candidates x centers) pairs evaluated."""
    inside = np.linalg.norm(cand[:, None, :] - centers[None, :, :], axis=2) <= limit
    return inside.all(axis=1)


# The planar arc pipeline as it was before the hull prune ran ahead of the
# dedupe, the distance tables were built from coordinate columns and a
# stack sweep found the corners: every row deduplicated, per-owner midpoint
# tests, and the dense all-pairs corner screen above. The package's
# `_disk_pass` must give the same witnesses, arcs and corners on every
# sample whose repeated rows sit at hull vertices and on which this cycle
# closes. Where three circles meet at a corner this screen keeps three
# corners there and reports an `anomaly`; the sweep closes the cycle and
# reports the triple as near-cocircular.

def reference_disk_cycle(radius: float, centers_all: np.ndarray, active: np.ndarray,
                         eps_geo: float, eps_gp: float,
                         witnesses: list[DegeneracyWitness]
                         ) -> tuple[list[Arc], list[ArcVertex]]:
    """Arc cycle of the intersection of equal disks centered at
    centers_all[active]; `witnesses` collects near-degeneracies.

    Owner indices in the returned cycle refer to positions in centers_all.
    Cocircularity is screened against every disk, not only active ones.
    The corners are the pair intersections inside every active disk.
    """
    r = radius
    act = centers_all[active]
    m = act.shape[0]
    if m == 1:
        return [Arc(int(active[0]), act[0], 0.0, TWO_PI)], []

    iu, ju = np.triu_indices(m, 1)
    diffs = act[ju] - act[iu]
    dist = np.linalg.norm(diffs, axis=1)
    for k in np.nonzero(dist < eps_gp)[0]:
        witnesses.append(DegeneracyWitness(
            "duplicate", (int(active[iu[k]]), int(active[ju[k]])), None, float(dist[k])))
    for k in np.nonzero(dist > 2.0 * r - eps_gp)[0]:
        witnesses.append(DegeneracyWitness(
            "near-tangent", (int(active[iu[k]]), int(active[ju[k]])), None,
            float(2.0 * r - dist[k])))
    if np.any(dist >= 2.0 * r):
        raise DomainError("disjoint constraint disks; sample points not interior to K")

    # Two candidate corners per pair of circles.
    mid = 0.5 * (act[iu] + act[ju])
    axis = diffs / dist[:, None]
    half = np.sqrt(np.maximum(r * r - 0.25 * dist * dist, 0.0))
    perp = np.column_stack([-axis[:, 1], axis[:, 0]])
    cand = np.concatenate([mid + half[:, None] * perp, mid - half[:, None] * perp])
    cand_i = np.concatenate([iu, iu])
    cand_j = np.concatenate([ju, ju])

    keep = full_corner_keep(cand, act, r + eps_geo)
    pts = cand[keep]
    own_i = cand_i[keep]
    own_j = cand_j[keep]

    # Cocircularity screen against every circle in the input.
    if pts.shape[0] and centers_all.shape[0] > 2:
        gap = np.abs(np.linalg.norm(pts[:, None, :] - centers_all[None, :, :], axis=2) - r)
        for v in range(pts.shape[0]):
            third = np.nonzero(gap[v] < eps_gp)[0]
            third = [t for t in third if t not in (active[own_i[v]], active[own_j[v]])]
            # a copy of an active row is that row's circle again, not a third one
            third = [t for t in third
                     if t in active or not np.any(np.all(act == centers_all[t], axis=1))]
            if third:
                witnesses.append(DegeneracyWitness(
                    "near-cocircular",
                    (int(active[own_i[v]]), int(active[own_j[v]]), *map(int, third)),
                    pts[v], float(gap[v, third].min())))

    if pts.shape[0] < 2:
        # One active disk contains the rest of the intersection boundary.
        raise NumericError("found fewer than two corners for a multi-disk intersection")

    # Group corners by owner; each boundary-active owner meets exactly two.
    incident: dict[int, list[int]] = {}
    for v in range(pts.shape[0]):
        incident.setdefault(int(own_i[v]), []).append(v)
        incident.setdefault(int(own_j[v]), []).append(v)

    arcs: list[Arc] = []
    arc_ends: list[tuple[int, int]] = []  # (start corner, end corner)
    for local_owner, vids in sorted(incident.items()):
        if len(vids) != 2:
            witnesses.append(DegeneracyWitness(
                "anomaly", (int(active[local_owner]),), None, float(len(vids))))
            raise NumericError(
                f"owner {active[local_owner]} meets {len(vids)} corners; expected 2")
        c = act[local_owner]
        va, vb = vids
        ta = math.atan2(pts[va][1] - c[1], pts[va][0] - c[0])
        tb = math.atan2(pts[vb][1] - c[1], pts[vb][0] - c[0])
        if tb < ta:
            va, vb, ta, tb = vb, va, tb, ta
        # Pick the angular interval whose midpoint stays inside all disks.
        chosen = None
        for a0, a1, s, e in ((ta, tb, va, vb), (tb, ta + TWO_PI, vb, va)):
            amid = 0.5 * (a0 + a1)
            p = c + r * np.array([math.cos(amid), math.sin(amid)])
            if np.all(np.linalg.norm(p - act, axis=1) <= r + eps_geo):
                chosen = (a0, a1, s, e)
                break
        if chosen is None:
            continue  # owner only touches at corners; not an arc owner
        a0, a1, s, e = chosen
        arcs.append(Arc(int(active[local_owner]), c, a0, a1))
        arc_ends.append((s, e))

    if not arcs:
        raise NumericError("no arcs survived classification")

    # Stitch into one closed CCW cycle: each arc starts where another ends.
    start_at = {s: k for k, (s, e) in enumerate(arc_ends)}
    order = [0]
    seen = {0}
    while len(order) < len(arcs):
        nxt = start_at.get(arc_ends[order[-1]][1])
        if nxt is None or nxt in seen:
            raise NumericError("arc cycle failed to close")
        order.append(nxt)
        seen.add(nxt)
    if arc_ends[order[-1]][1] != arc_ends[order[0]][0]:
        raise NumericError("arc cycle failed to close")

    cycle = [arcs[k] for k in order]
    verts = []
    for k in order:
        e = arc_ends[k][1]
        verts.append(ArcVertex(
            (int(active[own_i[e]]), int(active[own_j[e]])), pts[e]))
    return cycle, verts


def plain_prune(points: np.ndarray) -> np.ndarray:
    """Hull-vertex rows of a sample, ascending, from one qhull call over
    every row; all rows when there are at most three or qhull fails."""
    n = points.shape[0]
    if n <= 3:
        return np.arange(n)
    try:
        return np.sort(ConvexHull(points).vertices)
    except QhullError:
        return np.arange(n)


def repeat_pairs(points: np.ndarray, rows) -> tuple[tuple[int, int], ...]:
    """(first occurrence, row) for each of `rows` equal to an earlier one of
    them, by row: a dict over the rows' coordinate tuples, -0.0 equal to
    0.0 as floats compare."""
    first: dict[tuple, int] = {}
    out = []
    for i in sorted(int(i) for i in rows):
        key = tuple(points[i].tolist())
        if key in first:
            out.append((first[key], i))
        else:
            first[key] = i
    return tuple(out)


def reference_disk_pass(K: ConvexBody, points: np.ndarray) -> _DiskPass:
    """Build the X arc cycle of a sample interior to a planar disk K.

    Interiority is tested against the disk itself, so K need not contain
    the origin. Arc owners index the original sample. The windows are
    EPS_GEO and EPS_GP times the radius.
    """
    K = _require_disk(K)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(K._interior_batch(pts)):
        raise DomainError("all sample points must lie in the interior of K")
    unique = _dedupe_rows(pts)
    active = unique[plain_prune(pts[unique])]
    witnesses: list[DegeneracyWitness] = []
    boundary = error = None
    try:
        arcs, verts = reference_disk_cycle(K.radius, K.center[None, :] - pts, active,
                                           EPS_GEO * K.radius, EPS_GP * K.radius, witnesses)
        boundary = ArcBoundary(tuple(arcs), tuple(verts), K.radius)
    except NumericError as exc:
        error = exc
    return _DiskPass(pts, repeat_pairs(pts, range(pts.shape[0])), tuple(witnesses),
                     boundary, error)


def reference_reach_pass(K: ConvexBody, points: np.ndarray) -> _DiskPass:
    """`hull._disk_pass` without its sweep reuse: the X cycle always sweeps
    its active rows, and the cocircularity screen computes the squared
    center norms itself. The rows are those `_reach_rows` picks, its seed
    rows when it returns their sweep, or the deduplicated hull rows when
    it picks none. `reference_disk_pass` is the independent check."""
    X = IntersectionBody(_require_disk(K), points)
    pts = X.points
    centers = K.center[None, :] - pts
    reach = _reach_rows(K.radius, centers, X.screen, X.sq)
    dropped = ()
    if reach is None:
        active = X.active[_dedupe_rows(pts[X.active])]
        dropped = repeat_pairs(pts, X.active)
    else:
        active = reach[0]
    witnesses: list[DegeneracyWitness] = []
    boundary = error = None
    try:
        arcs, verts = _disk_cycle(K.radius, centers, active, np.zeros(2), witnesses)
        boundary = ArcBoundary(tuple(arcs), tuple(verts), K.radius)
    except NumericError as exc:
        error = exc
    return _DiskPass(pts, dropped, tuple(witnesses), boundary, error)



def reference_hull_stage(K, points: np.ndarray, xb: ArcBoundary
                         ) -> tuple[ArcBoundary, tuple[DegeneracyWitness, ...]]:
    """Hull cycle of a disk sample from its X cycle xb through
    `reference_disk_cycle`, with the owner-incidence validation on the
    dense distance table and the check of one arc per corner of xb; the
    windows are relative to the radius."""
    if len(xb.vertices) < 2:
        return ArcBoundary((), (), K.radius, degenerate_point=points[0]), ()
    vpts = np.array([v.point for v in xb.vertices])
    witnesses: list[DegeneracyWitness] = []
    arcs, verts = reference_disk_cycle(K.radius, K.center[None, :] - vpts,
                                       np.arange(vpts.shape[0]), EPS_GEO * K.radius,
                                       EPS_GP * K.radius, witnesses)
    qb = ArcBoundary(tuple(arcs), tuple(verts), K.radius)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    owners = sorted(xb.arc_owners())
    hull_centers = np.array([a.center for a in qb.arcs])
    d = np.linalg.norm(pts[owners][:, None, :] - hull_centers[None, :, :], axis=2)
    tol = math.sqrt(EPS_GEO) * 10 * K.radius
    if np.any(d.min(axis=1) > K.radius + tol) or np.any(np.abs(d - K.radius).min(axis=1) > tol):
        raise NumericError("hull boundary failed the owner-incidence validation")
    if len(qb.arcs) != len(xb.vertices):
        raise NumericError(
            f"facet count mismatch: {len(qb.arcs)} hull arcs vs {len(xb.vertices)} corners")
    return qb, tuple(witnesses)

def reference_uniform_sample(K: ConvexBody, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection sampling from the bounding box as the package drew it
    before: `rng.uniform(lo, hi, size)` batches, and for a Ball the interior
    test `ball_interior` below."""
    d = K.dim
    lo, hi = K.bounding_box()
    rate = max(K.volume() / float(np.prod(hi - lo)), 1e-3)
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        batch = max(32, int(1.2 * (n - filled) / rate))
        X = rng.uniform(lo, hi, size=(batch, d))
        inside = ball_interior(K, X) if isinstance(K, Ball) else K._interior_batch(X)
        keep = X[inside]
        take = min(n - filled, keep.shape[0])
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def ball_interior(K: Ball, X: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Rows of X strictly inside the ball K, widened by tol, through
    np.linalg.norm."""
    return np.linalg.norm(X - K.center, axis=1) < K.radius + tol


def full_radial_min(U: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Radial function of {x : <x, u_k> <= h_k for all k} at the rows of U,
    from the full (directions x directions) table of ratios h_j / <u_k, u_j>
    over the pairs with <u_k, u_j> > 1e-12."""
    dots = U @ U.T
    with np.errstate(divide="ignore"):
        ratios = np.where(dots > 1e-12, h[None, :] / dots, np.inf)
    r = ratios.min(axis=1)
    if not np.all(np.isfinite(r)):
        raise NumericError("outer support bounds do not enclose a bounded region")
    return r


def gap_minimizers(W: np.ndarray, base: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows of X that attain the least support gap base_j - <w_j, x> on
    some direction w_j of W, ascending, from the gaps of every row, one
    row at a time."""
    gaps = np.array([base - W @ x for x in X])
    return np.flatnonzero((gaps == gaps.min(axis=0)).any(axis=1))


def reference_polar_hull(K: ConvexBody, points: np.ndarray, m: int) -> TaggedPolytope:
    """The polar hull from the winners over every row: the exact gaps of
    each row, one at a time, the least gap on each direction with every
    tied row, and the per-element tagged hull of those points, with no
    row screen and no chain screen."""
    W = direction_grid(K.dim, m)
    base = K.support_batch(W)
    gaps = np.array([base - W @ x for x in points])
    ii, jj = np.nonzero(gaps == gaps.min(axis=0))
    return tagged_hull(W[jj] / gaps[ii, jj][:, None], ii)


def reference_fvector(T: TaggedPolytope) -> tuple[int, ...]:
    """The family f-vector of a tagged hull from frozensets of owners,
    each owner read as a numpy scalar: the package's earlier read-out."""
    f0 = len(set(int(o) for o in T.owners))
    pairs = set()
    if T.dim == 2:
        for a, b in T.edges:
            oa, ob = int(T.owners[a]), int(T.owners[b])
            if oa != ob:
                pairs.add(frozenset((oa, ob)))
        return (f0, len(pairs))
    for s in T.simplices:
        for a, b in itertools.combinations(s, 2):
            oa, ob = int(T.owners[a]), int(T.owners[b])
            if oa != ob:
                pairs.add(frozenset((oa, ob)))
    triples = set()
    for s in T.simplices:
        owners = frozenset(int(T.owners[v]) for v in s)
        if len(owners) == 3:
            triples.add(owners)
    return (f0, len(pairs), len(triples))


# Per-element references for the tagged-hull builders and intrinsic
# volumes: the original loops, kept verbatim. The package's array code
# must reproduce every field of theirs bit for bit.

def chain_hull_2d(points: np.ndarray) -> list[int]:
    """Andrew's monotone chain on numpy scalars: hull indices in CCW
    order, collinear middles dropped."""
    order = np.lexsort((points[:, 1], points[:, 0]))

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2:
                o, a = points[out[-2]], points[out[-1]]
                if (a[0] - o[0]) * (points[i][1] - o[1]) - (a[1] - o[1]) * (points[i][0] - o[0]) > 0:
                    break
                out.pop()
            out.append(int(i))
        return out

    lower = build(order)
    upper = build(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DomainError("degenerate planar hull (fewer than 3 extreme points)")
    return hull


def tagged_hull_2d(points: np.ndarray, owners: np.ndarray) -> TaggedPolytope:
    """Planar tagged hull with per-edge tuple building."""
    hull = chain_hull_2d(points)
    V = points[hull]
    n = len(hull)
    edges = tuple((k, (k + 1) % n) for k in range(n))
    evec = V[[e[1] for e in edges]] - V[[e[0] for e in edges]]
    normals = np.column_stack([evec[:, 1], -evec[:, 0]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.sum(normals * V[[e[0] for e in edges]], axis=1)
    area = 0.5 * float(np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1]))
    perim = float(np.sum(np.linalg.norm(evec, axis=1)))
    return TaggedPolytope(
        dim=2, points=V, owners=np.asarray(owners)[hull],
        facets=tuple((e[0], e[1]) for e in edges),
        facet_normals=normals, facet_offsets=offsets,
        edges=edges, edge_facets=tuple((k, (k + 1) % n) for k in range(n)),
        simplices=tuple((e[0], e[1]) for e in edges),
        volume=area, surface=perim)


def tagged_hull_3d(points: np.ndarray, owners: np.ndarray) -> TaggedPolytope:
    """Spatial tagged hull: a union-find over every adjacent triangle pair
    merges coplanar ones; edges come from per-pair set intersections."""
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DomainError("degenerate spatial hull") from exc
    vmap = {int(g): k for k, g in enumerate(hull.vertices)}
    V = points[hull.vertices]
    own = np.asarray(owners)[hull.vertices]
    sims = [tuple(vmap[int(i)] for i in s) for s in hull.simplices]
    normals = hull.equations[:, :3]
    offsets = -hull.equations[:, 3]

    nf = len(sims)
    parent = list(range(nf))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adjacent: list[tuple[int, int]] = []
    for s in range(nf):
        for t in hull.neighbors[s]:
            t = int(t)
            if t > s:
                adjacent.append((s, t))
    for s, t in adjacent:
        if float(normals[s] @ normals[t]) > 1.0 - COPLANAR_TOL:
            ra, rb = find(s), find(t)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for s in range(nf):
        groups.setdefault(find(s), []).append(s)
    group_ids = {root: k for k, root in enumerate(sorted(groups))}

    facet_vsets: list[set[int]] = [set() for _ in group_ids]
    gnormals = np.zeros((len(group_ids), 3))
    goffsets = np.zeros(len(group_ids))
    for root, members in groups.items():
        g = group_ids[root]
        for s in members:
            facet_vsets[g].update(sims[s])
        gnormals[g] = normals[members[0]]
        goffsets[g] = offsets[members[0]]

    edges: dict[tuple[int, int], tuple[int, int]] = {}
    for s, t in adjacent:
        gs, gt = group_ids[find(s)], group_ids[find(t)]
        if gs == gt:
            continue
        shared = tuple(sorted(set(sims[s]) & set(sims[t])))
        if len(shared) != 2:
            raise NumericError("adjacent facets share an unexpected vertex count")
        edges[shared] = (min(gs, gt), max(gs, gt))

    # A vertex in one facet only lies inside it: drop it, and fan that
    # facet from its lowest remaining vertex over its edges.
    lone = [v for v in range(len(V))
            if sum(v in vs for vs in facet_vsets) == 1] if len(groups) < nf else []
    if lone:
        keep = [v for v in range(len(V)) if v not in lone]
        new = {v: i for i, v in enumerate(keep)}
        refan = sorted({g for g, vs in enumerate(facet_vsets) for v in lone if v in vs})
        V, own = V[keep], own[keep]
        facet_vsets = [{new[v] for v in vs if v in new} for vs in facet_vsets]
        edges = {(new[a], new[b]): gg for (a, b), gg in edges.items()}
        sims = [tuple(new[v] for v in sims[s]) for s in range(nf)
                if group_ids[find(s)] not in refan]
        for col in (0, 1):
            for (a, b), gg in edges.items():
                if gg[col] in refan:
                    apex = min(facet_vsets[gg[col]])
                    if apex not in (a, b):
                        sims.append((apex, a, b))

    return TaggedPolytope(
        dim=3, points=V, owners=own,
        facets=tuple(tuple(sorted(s)) for s in facet_vsets),
        facet_normals=gnormals, facet_offsets=goffsets,
        edges=tuple(edges.keys()), edge_facets=tuple(edges.values()),
        simplices=tuple(sims),
        volume=float(hull.volume), surface=float(hull.area))


def tagged_hull(points, owners=None) -> TaggedPolytope:
    """Reference for `tagged_hull_from_points`, d in {2, 3}."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    owners = np.arange(points.shape[0]) if owners is None else np.asarray(owners)
    build = tagged_hull_2d if points.shape[1] == 2 else tagged_hull_3d
    return build(points, owners)


def intrinsic_v1_3d(P: TaggedPolytope) -> float:
    """V_1 of a tagged d = 3 polytope, one edge at a time."""
    v1 = 0.0
    for (a, b), (g1, g2) in zip(P.edges, P.edge_facets):
        length = float(np.linalg.norm(P.points[a] - P.points[b]))
        cosang = float(np.clip(P.facet_normals[g1] @ P.facet_normals[g2], -1.0, 1.0))
        v1 += length * math.acos(cosang)
    return v1 / (2.0 * math.pi)


def assert_same_polytope(A: TaggedPolytope, B: TaggedPolytope) -> None:
    """Every field equal: arrays bit for bit, with shape and dtype, so that
    -0.0 differs from 0.0; tuples and floats with ==."""
    for name in ("dim", "facets", "edges", "edge_facets", "simplices",
                 "volume", "surface"):
        assert getattr(A, name) == getattr(B, name), name
    for name in ("points", "owners", "facet_normals", "facet_offsets"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# One-shot references for the summary and the ellipsoid surface mass: the
# earlier code, one column and one draw of every sample at a time. The
# package's stacked and blocked versions must give the same bits.

def one_shot_summarize(rows: list[dict]) -> dict:
    """Reference for `summarize`, one column at a time."""
    R = len(rows)
    out: dict = {"rows": R, "mean": {}, "sd": {}, "SE": {},
                 "moments": {}, "moment_SE": {}}
    for col in rows[0]:
        if col in ("replicate", "seed"):
            continue
        vals = np.array([float(r[col]) for r in rows])
        out["mean"][col] = float(np.mean(vals))
        if col in ("gp_ok", "certified"):
            continue
        sd = float(np.std(vals, ddof=1)) if R > 1 else 0.0
        out["sd"][col] = sd
        out["SE"][col] = sd / math.sqrt(R)
        powers = [vals ** m for m in (1, 2, 3, 4)]
        out["moments"][col] = [float(np.mean(p)) for p in powers]
        out["moment_SE"][col] = [
            float(np.std(p, ddof=1) / math.sqrt(R)) if R > 1 else 0.0
            for p in powers]
    return out


def one_shot_surface_mass(E, mass_samples: int = 200_000) -> tuple[float, float]:
    """(total_mass, total_mass_se) of `Ellipsoid.surface_sampler`, from all
    the normal draws at once."""
    d = E.dim
    rng = np.random.default_rng(1_234_567)
    W = _unit_rows(rng.standard_normal((mass_samples, d)))
    dens = np.linalg.norm(W @ E._Ainv, axis=1) * abs(float(np.linalg.det(E._A)))
    total = float(np.mean(dens)) * sphere_area(d)
    se = float(np.std(dens, ddof=1) / math.sqrt(mass_samples)) * sphere_area(d)
    return total, se
