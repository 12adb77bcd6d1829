"""Independent reference implementations the tests compare against.

Everything here is deliberately written by a different route than the
package: linear programs instead of facet algebra, dense boundary search
instead of closed forms, halfspace enumeration instead of vertex maps.
Slow is fine; these only run at test scale. The exception is the
per-element tagged-hull and intrinsic-volume references near the end:
they are the package's earlier loops, kept so that its array code can be
held to their exact bits.
"""
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.special import ellipe

from khull.errors import DomainError, NumericError
from khull.faces import COPLANAR_TOL, TaggedPolytope


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
