"""f-vectors of families of convex bodies.

The combinatorial record of a family is which members meet each proper
face of the family's convex hull: entry k counts the distinct (k+1)-sets
of members meeting a common k-face. For planar disk samples the count is
exact via the arc cycle of the intersection body; in general it is read
off an owner-tagged convex hull of inscribed polytopal approximations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .body import ConvexBody, direction_grid
from .errors import DomainError, GeneralPositionError, NumericError
from .hull import (EPS_GEO, EPS_GP, ArcBoundary, DegeneracyWitness, _disk_pass,
                   _khull_pair, _prune_to_hull)

Array = np.ndarray

FVector = tuple[int, ...]

# Adjacent hull facets are merged when their normals agree to this tolerance.
COPLANAR_TOL = 1e-9


def fvector_bound_ok(fv: FVector) -> bool:
    """Each entry is at most C(f_0, k+1): a (k+1)-set can appear at most once."""
    f0 = fv[0]
    return all(fv[k] <= math.comb(f0, k + 1) for k in range(len(fv)))


@dataclass(frozen=True, eq=False)
class GeneralPositionReport:
    """Outcome of the planar general-position diagnostic.

    `boundary` is the X arc cycle the check built, so callers can read the
    f-vector from it without building it again; it is None when the cycle
    failed to close or when the report was not made by the check.
    """

    ok: bool
    witnesses: tuple[DegeneracyWitness, ...]
    boundary: ArcBoundary | None = None

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(w.describe() for w in self.witnesses)


def general_position_check_2d(K: ConvexBody, points: Array,
                              eps_gp: float = EPS_GP) -> GeneralPositionReport:
    """Screen a planar disk sample for near-degeneracies.

    Flags duplicated points, near-tangent circle pairs among the active
    constraints, and corner candidates with a third circle within eps_gp
    (near-cocircular triples whose translate covers the whole sample).
    A cycle anomaly is recorded as a witness.
    """
    xpass = _disk_pass(K, points, EPS_GEO, eps_gp)
    witnesses = xpass.witnesses
    if xpass.duplicates:
        witnesses = (DegeneracyWitness("duplicate", (), None, 0.0),) + witnesses
    return GeneralPositionReport(not witnesses, witnesses, xpass.boundary)


def fvector_exact_2d(boundary: ArcBoundary,
                     report: GeneralPositionReport | None = None) -> FVector:
    """(f_0, f_1) of a planar disk family from its exact arc cycle.

    f_0 counts distinct arc owners, f_1 distinct corner owner pairs. A
    degenerate single-point hull is the face of one member: (1, 0).
    """
    if report is not None and not report.ok:
        raise GeneralPositionError(report)
    if boundary.is_degenerate:
        return (1, 0)
    return (len(boundary.arc_owners()), len(boundary.vertex_owner_pairs()))


def _polar_grid(K: ConvexBody, points: Array, m: int) -> tuple[Array, Array, Array]:
    """Sample rows, direction grid W and support values h_K(W) shared by
    every member of the polar family; the sample must be interior to K."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(K._interior_batch(pts)):
        raise DomainError("polar family requires sample points interior to K")
    W = direction_grid(K.dim, m)
    return pts, W, K.support_batch(W)


def _support_gaps(W: Array, base: Array, x: Array) -> Array:
    """h(K - x, w_j) = h_K(w_j) - <w_j, x> on the grid; positive for interior x."""
    return base - W @ x


def _polar_vertices(W: Array, h: Array) -> Array:
    """Polar boundary points w_j / h(K - x, w_j) of one member."""
    return W / h[:, None]


def polar_family(K: ConvexBody, points: Array, m: int = 256) -> list[tuple[int, Array]]:
    """Inscribed m-vertex polytopal models of the polars (K - x_i)^o.

    All members share one direction grid; vertex j of member i is
    w_j / h(K - x_i, w_j), which lies on the polar's boundary exactly.
    """
    pts, W, base = _polar_grid(K, points, m)
    return [(i, _polar_vertices(W, _support_gaps(W, base, x))) for i, x in enumerate(pts)]


@dataclass(frozen=True, eq=False)
class TaggedPolytope:
    """Convex hull whose vertices remember which family member produced them.

    Facets are merged over coplanar triangulation pieces; `edges` pairs
    hull-vertex indices and `edge_facets` the two merged facets meeting
    there. For d=2 facets and edges coincide.
    """

    dim: int
    points: Array               # (V, d) hull vertices, hull order
    owners: Array               # (V,) owner tag per vertex
    facets: tuple[tuple[int, ...], ...]
    facet_normals: Array
    facet_offsets: Array
    edges: tuple[tuple[int, int], ...]
    edge_facets: tuple[tuple[int, int], ...]
    simplices: tuple[tuple[int, ...], ...]  # triangulated facets (d=3) or edges (d=2)
    volume: float
    surface: float

    def fvector(self) -> FVector:
        if self.dim == 2:
            return (self.points.shape[0], len(self.edges))
        return (self.points.shape[0], len(self.edges), len(self.facets))

    def euler_ok(self) -> bool:
        fv = self.fvector()
        return sum((-1) ** k * fv[k] for k in range(len(fv))) == (0 if self.dim == 2 else 2)

    def to_off_text(self) -> str:
        """OFF-like dump; owner tags ride along as per-vertex comments."""
        lines = ["OFF", f"{self.points.shape[0]} {len(self.facets)} {len(self.edges)}"]
        for p, o in zip(self.points, self.owners):
            coords = " ".join(repr(float(c)) for c in p)
            lines.append(f"{coords}  # owner={int(o)}")
        for f in self.facets:
            lines.append(f"{len(f)} " + " ".join(str(i) for i in f))
        return "\n".join(lines) + "\n"


def _monotone_chain(points: Array) -> list[int]:
    """Indices of hull vertices in CCW order; collinear middles dropped."""
    n = points.shape[0]
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


def _tagged_hull_2d(points: Array, owners: Array) -> TaggedPolytope:
    hull = _monotone_chain(points)
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


def _tagged_hull_3d(points: Array, owners: Array) -> TaggedPolytope:
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

    # Merge coplanar adjacent triangles into true facets (union-find).
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


def owner_tagged_hull(family: list[tuple[int, Array]]) -> TaggedPolytope:
    """Convex hull of an owner-tagged union of point clouds, d in {2, 3}."""
    pts = np.concatenate([np.atleast_2d(cloud) for _, cloud in family])
    owners = np.concatenate([np.full(np.atleast_2d(cloud).shape[0], owner)
                             for owner, cloud in family])
    if pts.shape[1] == 2:
        return _tagged_hull_2d(pts, owners)
    if pts.shape[1] == 3:
        return _tagged_hull_3d(pts, owners)
    raise DomainError("owner-tagged hulls are provided for d in {2, 3}")


def tagged_hull_from_points(points: Array, owners: Array | None = None) -> TaggedPolytope:
    """Hull of one point cloud; default owners are the point indices."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if owners is None:
        owners = np.arange(points.shape[0])
    if points.shape[1] == 2:
        return _tagged_hull_2d(points, np.asarray(owners))
    if points.shape[1] == 3:
        return _tagged_hull_3d(points, np.asarray(owners))
    raise DomainError("owner-tagged hulls are provided for d in {2, 3}")


def fvector_from_tagged_hull(T: TaggedPolytope) -> FVector:
    """Approximate family f-vector read off an owner-tagged hull.

    A hull feature witnesses a k-face when its vertex owners span exactly
    k+1 distinct members; features with the same owner set count once.
    """
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


def _with_copies(pts: Array, members: Array) -> Array:
    """`members` plus every other row equal to one of theirs, ascending.

    qhull reports one copy of a repeated point as a hull vertex; the other
    copies tie with it on every ray, so they are winners too.
    """
    keys = np.sort(pts[members, 0])
    pos = np.minimum(np.searchsorted(keys, pts[:, 0]), keys.size - 1)
    cand = np.flatnonzero(keys[pos] == pts[:, 0])
    if cand.size == members.size:
        return members
    return cand[(pts[cand, None] == pts[members]).all(axis=2).any(axis=1)]


def _polar_hull(K: ConvexBody, points: Array, m: int = 256) -> TaggedPolytope:
    """owner_tagged_hull(polar_family(K, points, m)), built from about m points.

    Member i's vertex on the ray through w_j sits at radius
    1 / (h_K(w_j) - <w_j, x_i>), a convex function of x_i. Two reductions
    follow, and neither changes the hull:

    - On each ray the radius is largest at a convex-hull vertex of the
      sample, since a convex function on a polytope peaks at a vertex.
      Only the members at those vertices, and repeated copies of them,
      are kept.
    - On each ray only the member(s) of least support gap, the farthest
      out, are kept; exact ties keep every tied member. Any other
      member's vertex on that ray lies strictly between the origin and
      the winner's, and the origin is interior to every polar model, so
      that vertex is strictly inside the hull.

    The kept points stay in member-major, direction-minor order, so the
    hull lists its vertices, with their owners, in the same order as the
    hull of the full family. In d = 3 qhull may list the facets in another
    order, or triangulate a merged facet another way, because its
    processing order depends on the points it is given.
    """
    pts, W, base = _polar_grid(K, points, m)
    members = _with_copies(pts, _prune_to_hull(pts))
    gaps = np.array([_support_gaps(W, base, pts[i]) for i in members])
    wins = gaps == gaps.min(axis=0)
    family = [(int(i), _polar_vertices(W[won], h[won]))
              for i, h, won in zip(members, gaps, wins) if won.any()]
    return owner_tagged_hull(family)


def fvector_approx(K: ConvexBody, points: Array, m: int = 256) -> FVector:
    """Family f-vector via the polar-family hull at resolution m."""
    return fvector_from_tagged_hull(_polar_hull(K, points, m))


def polytope_fvector(points: Array) -> FVector:
    """Plain face counts (vertices, edges[, facets]) of a point cloud's hull."""
    return tagged_hull_from_points(points).fvector()


def _facet_count(xb: ArcBoundary, qb: ArcBoundary) -> int:
    """Facet arcs of the hull cycle qb, cross-checked against the corner
    count of the X cycle xb of the same sample."""
    if qb.is_degenerate:
        return 0
    if len(qb.arcs) != len(xb.vertices):
        raise NumericError(
            f"facet count mismatch: {len(qb.arcs)} hull arcs vs {len(xb.vertices)} corners")
    return len(qb.arcs)


def kfacet_count_2d(K: ConvexBody, points: Array) -> int:
    """Number of facet arcs of the hull of a planar disk sample.

    Equals the corner count of the intersection-body cycle; both are
    computed and cross-checked. A single-point hull has no facets.
    """
    return _facet_count(*_khull_pair(K, points))
