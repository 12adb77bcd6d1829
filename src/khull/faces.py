"""f-vectors of families of convex bodies.

The combinatorial record of a family is which members meet each proper
face of the family's convex hull: entry k counts the distinct (k+1)-sets
of members meeting a common k-face. For planar disk samples the count is
exact via the arc cycle of the intersection body; in general it is read
off an owner-tagged convex hull of inscribed polytopal approximations.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .body import Ball, ConvexBody, direction_grid
from .errors import DomainError, GeneralPositionError, NumericError
from .hull import (SCREEN_SLACK, ArcBoundary, DegeneracyWitness, IntersectionBody,
                   _akl_toussaint, _centred, _disk_pass, _hull_stage, _monotone_chain,
                   _require_disk, khull_boundary_2d)

if TYPE_CHECKING:
    from scipy.spatial import ConvexHull

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
    failed, because two active disks coincide or a corner lies outside an
    active disk, or when the report was not made by the check.
    """

    ok: bool
    witnesses: tuple[DegeneracyWitness, ...]
    boundary: ArcBoundary | None = None

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(w.describe() for w in self.witnesses)


def general_position_check_2d(K: ConvexBody, points: Array) -> GeneralPositionReport:
    """Screen a planar disk sample for near-degeneracies.

    Flags duplicated hull vertices (a repeated interior point cannot touch
    the intersection body and is not flagged), near-tangent circle pairs
    among the active constraints, and corners with a third circle, of any
    sample point other than a copy of an active one, within EPS_GP times
    the disk radius (near-cocircular triples whose translate covers the
    whole sample). The windows scale with the disk, so the report does not
    depend on the unit of length. A sample that is empty, of another
    dimension or not interior to K raises DomainError.

    The X cycle is `_disk_pass`'s: it sweeps only the screen rows whose
    circles can reach X once a certificate on the screen rows rules out
    duplicate and near-tangent witnesses, and reads the hull rows
    (`IntersectionBody.active`, the qhull prune) only when the certificate
    or its bound on X fails. Near-cocircular corners are measured against
    every sample row either way, so the report is the same.
    """
    return _report(_disk_pass(IntersectionBody(_require_disk(K), points)))


def _report(xpass) -> GeneralPositionReport:
    """The verdict on an X arc pass. Each repeated hull row the pass dropped
    adds a `duplicate` witness (first occurrence, dropped row), at distance
    0, ahead of the cycle's own."""
    witnesses = tuple(DegeneracyWitness("duplicate", pair, None, 0.0)
                      for pair in xpass.dropped) + xpass.witnesses
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


def _support_gaps(W: Array, base: Array, X: Array) -> Array:
    """h(K - x, w_j) = h_K(w_j) - <w_j, x> on the grid, one row per row x
    of X; positive for interior x. The stacked product rounds each row as
    `base - W @ x` does, bit for bit."""
    return base - np.matmul(W[None], X[:, :, None])[:, :, 0]


def polar_family(K: ConvexBody, points: Array, m: int = 256) -> list[tuple[int, Array]]:
    """Inscribed m-vertex polytopal models of the polars (K - x_i)^o.

    All members share one direction grid; vertex j of member i is
    w_j / h(K - x_i, w_j), which lies on the polar's boundary exactly.
    The sample must be interior to K.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(K._interior_batch(pts)):
        raise DomainError("polar family requires sample points interior to K")
    W = direction_grid(K.dim, m)
    gaps = _support_gaps(W, K.support_batch(W), pts)
    return [(i, W / h[:, None]) for i, h in enumerate(gaps)]


@dataclass(frozen=True, eq=False)
class TaggedPolytope:
    """Convex hull whose vertices remember which family member produced them.

    Facets are merged over coplanar triangulation pieces; `edges` pairs
    hull-vertex indices and `edge_facets` the two merged facets meeting
    there. For d=2 facets and edges coincide. In d = 3 a qhull vertex
    whose triangles all merge into one facet lies inside that facet and
    is not a vertex: it is dropped, and the facet's `simplices` are a fan
    from its lowest vertex over its edges (see `_tag_hull_3d`).

    It is built in two stages. The bare stage (`_bare_hull`) finds the hull
    vertices and one normal and offset per facet, which is all a zero-cell
    certification attempt reads. The tagging stage (`_tag_hull`) adds the
    owners, the facets, edges and simplices, the volume and the surface.
    Both stages work on whole arrays but round every value as the
    per-element reference builders in `tests/oracles.py` do, operation for
    operation, so every field is bit-identical to theirs.
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


@dataclass(frozen=True, eq=False)
class _BareHull:
    """Bare stage of a tagged hull.

    `vertices` indexes the input cloud in hull order (counter-clockwise
    in d = 2, ascending in d = 3); the facets are {<a, y> = b} with a in
    `normals` and b in `offsets`. In d = 3 a facet is a group of coplanar
    triangles, listed in the order of its union-find root and carrying
    the plane of its lowest-numbered triangle; when qhull's triangles
    hold no coplanar pair, each is a facet, in qhull's order. The
    remaining fields are what the tagging stage reuses in d = 3.
    """

    points: Array
    vertices: Array
    normals: Array
    offsets: Array
    qhull: ConvexHull | None = None
    group: Array | None = None            # (F,) facet of each triangle
    pairs: tuple[Array, Array, Array] | None = None  # adjacent (s, k, t), t > s
    floats: _PolygonFloats | None = None  # a short polygon's float pass


class _PolygonFloats(NamedTuple):
    """What the float pass of a short polygon (`_short_polygon`) reads
    besides its planes: its largest vertex norm and smallest offset, and,
    when that offset is positive, the polars normals / offsets of its
    facets, as an (F, 2) array, and their largest norm."""

    extent: float
    low: float
    polars: Array | None
    radius: float | None


def _roll(V: Array) -> Array:
    """np.roll(V, -1, axis=0): each row replaced by the next, cyclically."""
    return np.concatenate((V[1:], V[:1]))


def _rownorm(x: Array) -> Array:
    """np.linalg.norm(x, axis=1) by its own arithmetic, without its
    argument handling: the root of the reduced squares of each row."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


# Planar clouds of at least this many points drop the points inside the
# polygon of their extreme rows (`_akl_toussaint`) before the chain. The
# screen costs about 36 us a cloud and the chain's Python loop about
# 0.8 us a point, so on polar clouds the screened chain is the faster
# one from between 32 and 64 points (58 against 45 us at 64, 25 against
# 43 us at 32); on the 256-point planar polar hulls it cuts the chain's
# input to about 12 points.
CHAIN_SCREEN_MIN = 64


def _bare_hull_2d(points: Array) -> _BareHull:
    """Bare stage in d = 2: the monotone chain, on clouds of
    CHAIN_SCREEN_MIN points or more over the points `_akl_toussaint`
    keeps. The points it drops lie strictly inside the hull, and every
    hull vertex and copy of one is kept in its input order, so the chain
    lists the same indices as over the whole cloud."""
    if points.shape[0] < CHAIN_SCREEN_MIN:
        return _bare_polygon(points, np.array(_monotone_chain(points)))
    keep = _akl_toussaint(points)
    return _bare_polygon(points, keep[_monotone_chain(points[keep])])


# Cycles up to this length are tested on Python floats, longer ones on
# arrays: below it the array calls cost more than the loop.
SHORT_CYCLE = 32

# Polygons of at most this many vertices are built by the float pass
# (`_short_polygon`), larger ones on arrays. The pass costs about 5 us
# plus 1 us a vertex, the array code about 12 us at any size up to 32. A
# zero-cell attempt also skips about 10 us of array reads of the extent,
# the offsets and the polars, so there the pass is the faster up to about
# 18 vertices; on a polar hull, which reads none of them, up to about 7.
# A planar zero cell has pi^2 / 2 vertices on average.
SHORT_POLYGON = 8

# np.add.reduce sums fewer than this many float64 terms one at a time,
# left to right from 0.0; from 8 terms on it sums in blocks, pairwise
# (checked on 20,000 random arrays per length). Below it a loop over
# Python floats rounds such a sum as the reduction does.
LEFT_SUM_MAX = 8


def _left_start(xy: list[list[float]]) -> int | None:
    """`_cycle_start` of a cycle given as Python floats."""
    (ox, oy), (ax, ay) = xy[-2], xy[-1]
    for px, py in xy:
        if not (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
            return None
        ox, oy, ax, ay = ax, ay, px, py
    return min(range(len(xy)), key=xy.__getitem__)


def _cycle_start(points: Array) -> int | None:
    """Index of the lexicographic minimum of a closed cycle of points if
    every turn (o, a, p) of the cycle is strictly left by the orientation
    test of `_monotone_chain`, else None.

    Short cycles run the test on Python floats, as the chain does, long
    ones elementwise on float64 arrays; both round every operation alike.
    """
    n = points.shape[0]
    if n < 3:
        return None
    if n <= SHORT_CYCLE:
        return _left_start(points.tolist())
    O = np.concatenate((points[-1:], points[:-1]))
    A, P = points, _roll(points)
    turn = ((A[:, 0] - O[:, 0]) * (P[:, 1] - O[:, 1])
            - (A[:, 1] - O[:, 1]) * (P[:, 0] - O[:, 0]))
    if not np.all(turn > 0):
        return None
    left = np.flatnonzero(A[:, 0] == A[:, 0].min())
    return int(left[np.argmin(A[left, 1])])


def _cycle_order(points: Array) -> Array:
    """Hull order of points that run counter-clockwise around a convex
    polygon, as `_monotone_chain` lists it, without the chain's sort and
    stack: `_polygon_measure(points[_cycle_order(points)])` is the volume
    and surface of `tagged_hull_from_points(points)`, bit for bit.

    When every turn of the cycle is strictly left (`_cycle_start`), each
    point is a hull vertex and the chain lists them counter-clockwise from
    their lexicographic minimum, so the hull order is the cycle rolled to
    start there. Otherwise (a collinear or repeated point, or fewer than
    three points) the chain runs."""
    start = _cycle_start(points)
    if start is None:
        return np.array(_monotone_chain(points))
    n = points.shape[0]
    return np.concatenate((np.arange(start, n), np.arange(start)))


def _polygon_measure(V: Array) -> tuple[float, float]:
    """Area and perimeter of the polygon V, listed counter-clockwise."""
    W = _roll(V)
    area = 0.5 * float(np.add.reduce(V[:, 0] * W[:, 1] - W[:, 0] * V[:, 1]))
    return area, float(np.add.reduce(_rownorm(W - V)))


def _cycle_measure(points: Array) -> tuple[float, float]:
    """`_polygon_measure(points[_cycle_order(points)])`, bit for bit.

    A strictly left-turning cycle of fewer than LEFT_SUM_MAX points is
    summed on its Python floats, from its lexicographic minimum and term
    by term as the arrays round it; any other cycle takes the array route.
    """
    if 3 <= points.shape[0] < LEFT_SUM_MAX:
        xy = points.tolist()
        start = _left_start(xy)
        if start is not None:
            V = xy[start:] + xy[:start]
            area = perim = 0.0
            for (x, y), (wx, wy) in zip(V, V[1:] + V[:1]):
                area += x * wy - wx * y
                dx = wx - x
                dy = wy - y
                perim += math.sqrt(dx * dx + dy * dy)
            return 0.5 * area, perim
    return _polygon_measure(points[_cycle_order(points)])


def _bare_polygon(points: Array, hull: Array) -> _BareHull:
    """Bare stage of the polygon points[hull], listed counter-clockwise;
    one of up to SHORT_POLYGON vertices is built by `_short_polygon`."""
    if hull.size <= SHORT_POLYGON:
        return _short_polygon(points, hull)
    V = points[hull]
    evec = _roll(V) - V
    normals = np.column_stack([evec[:, 1], -evec[:, 0]])
    normals /= _rownorm(normals)[:, None]
    offsets = np.add.reduce(normals * V, axis=1)
    return _BareHull(points, hull, normals, offsets)


def _short_polygon(points: Array, hull: Array) -> _BareHull:
    """`_bare_polygon` in one pass over the polygon's Python floats, which
    also fills its `floats` (a zero-cell attempt reads nothing else).

    Every value is rounded as the array code of `_bare_polygon`, of
    `tessellation._try_dual_hull` and of `tessellation._polars` rounds it:
    a row's norm and dot product are two-term sums, which round alike in
    either order, and adding 0.0 makes a zero offset +0.0, as the array
    reduction returns it. The largest of non-negative norms is their max.
    """
    xy = points[hull].tolist()
    normals, offsets, polars = [], [], []
    extent = radius = 0.0
    for (x, y), (x1, y1) in zip(xy, xy[1:] + xy[:1]):
        ex = x1 - x
        ey = y1 - y
        s = math.sqrt(ey * ey + ex * ex)
        nx = ey / s
        ny = -ex / s
        b = nx * x + ny * y + 0.0
        normals.append((nx, ny))
        offsets.append(b)
        norm = math.sqrt(x * x + y * y)
        if norm > extent:
            extent = norm
        if b > 0.0:
            zx = nx / b
            zy = ny / b
            polars.append((zx, zy))
            norm = math.sqrt(zx * zx + zy * zy)
            if norm > radius:
                radius = norm
    low = min(offsets)
    if low > 0.0:
        floats = _PolygonFloats(extent, low, np.array(polars), radius)
    else:
        floats = _PolygonFloats(extent, low, None, None)
    return _BareHull(points, hull, np.array(normals), np.array(offsets), floats=floats)


def _tag_hull_2d(bare: _BareHull, owners: Array) -> TaggedPolytope:
    V = bare.points[bare.vertices]
    n = V.shape[0]
    edges = tuple(zip(range(n), [*range(1, n), 0]))
    area, perim = _polygon_measure(V)
    return TaggedPolytope(
        dim=2, points=V, owners=owners[bare.vertices],
        facets=edges, facet_normals=bare.normals, facet_offsets=bare.offsets,
        edges=edges, edge_facets=edges, simplices=edges,
        volume=area, surface=perim)


def _rowdot(a: Array, b: Array) -> Array:
    """Row-wise dot products, each rounded as `a[i] @ b[i]` is; `einsum`
    and `(a * b).sum(1)` can differ from it in the last bit."""
    return np.matmul(a[:, None, :], b[:, :, None]).ravel()


def _bare_hull_3d(points: Array) -> _BareHull:
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DomainError("degenerate spatial hull") from exc
    normals = hull.equations[:, :3]
    offsets = -hull.equations[:, 3]
    nf = normals.shape[0]

    # Adjacent triangles s < t, ordered by s, then by k: neighbors[s, k]
    # is the triangle opposite vertex k of s.
    s, k = np.nonzero(hull.neighbors > np.arange(nf)[:, None])
    t = hull.neighbors[s, k]
    coplanar = np.flatnonzero(_rowdot(normals[s], normals[t]) > 1.0 - COPLANAR_TOL)

    if coplanar.size == 0:
        # every triangle is a facet of its own, numbered as qhull lists it
        group = first = np.arange(nf)
    else:
        group, first = _merge_coplanar(nf, s[coplanar].tolist(), t[coplanar].tolist())
    # the vertices are np.unique(hull.simplices), as `hull.vertices` has them
    used = np.zeros(points.shape[0], dtype=bool)
    used[hull.simplices] = True
    return _BareHull(points, np.flatnonzero(used), normals[first], offsets[first],
                     qhull=hull, group=group, pairs=(s, k, t))


def _merge_coplanar(nf: int, heads: list[int], tails: list[int]) -> tuple[Array, Array]:
    """Facet of each of nf triangles, and the lowest triangle of each
    facet, when the flagged pairs (heads[i], tails[i]) are coplanar.

    Coplanar neighbours are merged with a union-find over the pairs in
    the order given; a facet is numbered by the rank of its root."""
    parent = list(range(nf))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(heads, tails):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    root = np.arange(nf)
    touched = list(set(heads).union(tails))
    root[touched] = [find(a) for a in touched]
    _, first, group = np.unique(root, return_index=True, return_inverse=True)
    return group, first


# Columns of a triangle other than column k, for k = 0, 1, 2.
_OTHER_TWO = np.array([[1, 2], [2, 0], [0, 1]])


def _fans(apex: Array, side: Array, ends: Array) -> Array:
    """Fan triangulations of convex facets, read off their edges.

    Edge i, the vertex pair ends[i], bounds facet f = side[i] and gives
    the triangle (apex[f], a, b) unless it touches apex[f], a vertex of f.
    Over the edges of f these triangles fan f from apex[f]; the rows
    follow the edges' order."""
    a = apex[side]
    keep = (ends[:, 0] != a) & (ends[:, 1] != a)
    return np.concatenate([a[keep, None], ends[keep]], axis=1)


def _local_simplices(bare: _BareHull) -> Array:
    """qhull's triangles of a d = 3 bare hull over the hull vertices'
    own numbers, their ranks in `vertices`."""
    local = np.empty(bare.points.shape[0], dtype=np.intp)
    local[bare.vertices] = np.arange(bare.vertices.size)
    return local[bare.qhull.simplices]


def _pair_edges(sims: Array, s: Array, k: Array) -> Array:
    """The edges between adjacent triangles s and t, as sorted vertex
    pairs: the edge of a pair is s without its k-th vertex."""
    return np.sort(sims[s[:, None], _OTHER_TWO[k]], axis=1)


def _tag_hull_3d(bare: _BareHull, owners: Array) -> TaggedPolytope:
    """Tagging stage in d = 3.

    A qhull vertex whose triangles all merged into one facet lies inside
    that facet, on no edge, and is not a vertex of the polytope: it is
    dropped from `points`, `owners` and the facets, the other vertices
    are numbered again in order, and the facet's triangles are replaced,
    after those of the other facets, by a fan from its lowest vertex over
    its edges. Without the drop such a vertex breaks the Euler relation.
    The test runs only when some triangles merged, and the bare stage, on
    which zero cells are certified, never sees it.
    """
    hull, group, vertices = bare.qhull, bare.group, bare.vertices
    nv = vertices.size
    sims = _local_simplices(bare)
    s, k, t = bare.pairs
    ng = bare.offsets.size
    merged = ng < group.size
    # the (facet, vertex) keys of all triangles, sorted and unique, and the
    # facets on either side of each edge
    if merged:
        key = np.unique(group[:, None] * nv + sims)
        sides = np.column_stack([group[s], group[t]])
        # pairs inside one facet are not edges
        cut = sides[:, 0] != sides[:, 1]
        s, k, sides = s[cut], k[cut], np.sort(sides[cut], axis=1)
    else:
        # each triangle is a facet, and each adjacent pair s < t an edge
        key = np.sort((group[:, None] * nv + sims).ravel())
        sides = np.column_stack([s, t])
    edges = _pair_edges(sims, s, k)
    if merged:
        # A vertex whose triangles all lie in one merged facet is not a
        # vertex; it is dropped, and that facet is fanned again.
        lone = np.bincount(key % nv, minlength=nv) == 1
        if lone.any():
            keep = ~lone
            renum = np.cumsum(keep) - 1
            refan = np.unique(key[lone[key % nv]] // nv)
            key = key[keep[key % nv]]
            apex = renum[key[np.searchsorted(key, np.arange(ng) * nv)] % nv]
            edges = renum[edges]
            on = np.isin(sides, refan)
            fans = _fans(apex, np.concatenate([sides[on[:, 0], 0], sides[on[:, 1], 1]]),
                         np.concatenate([edges[on[:, 0]], edges[on[:, 1]]]))
            sims = np.concatenate([renum[sims[~np.isin(group, refan)]], fans])
            vertices = vertices[keep]
            key = key // nv * vertices.size + renum[key % nv]
            nv = vertices.size
    # the sorted vertex set of each facet, split off the sorted keys
    verts = (key % nv).tolist()
    ends = np.searchsorted(key, np.arange(1, ng + 1) * nv).tolist()
    facets = [verts[a:b] for a, b in zip([0, *ends[:-1]], ends)]

    return TaggedPolytope(
        dim=3, points=bare.points[vertices], owners=owners[vertices],
        facets=tuple(map(tuple, facets)), facet_normals=bare.normals,
        facet_offsets=bare.offsets,
        edges=tuple(map(tuple, edges.tolist())),
        edge_facets=tuple(map(tuple, sides.tolist())),
        simplices=tuple(map(tuple, sims.tolist())),
        volume=float(hull.volume), surface=float(hull.area))


def _bare_hull(points: Array) -> _BareHull:
    """Bare stage: hull vertices and facet planes, no tags, d in {2, 3}."""
    if points.shape[1] == 2:
        return _bare_hull_2d(points)
    if points.shape[1] == 3:
        return _bare_hull_3d(points)
    raise DomainError("owner-tagged hulls are provided for d in {2, 3}")


def _tag_hull(bare: _BareHull, owners: Array) -> TaggedPolytope:
    """Tagging stage: the full TaggedPolytope of a bare hull."""
    tag = _tag_hull_2d if bare.points.shape[1] == 2 else _tag_hull_3d
    return tag(bare, np.asarray(owners))


def owner_tagged_hull(family: list[tuple[int, Array]]) -> TaggedPolytope:
    """Convex hull of an owner-tagged union of point clouds, d in {2, 3}."""
    pts = np.concatenate([np.atleast_2d(cloud) for _, cloud in family])
    owners = np.concatenate([np.full(np.atleast_2d(cloud).shape[0], owner)
                             for owner, cloud in family])
    return _tag_hull(_bare_hull(pts), owners)


def tagged_hull_from_points(points: Array, owners: Array | None = None) -> TaggedPolytope:
    """Hull of one point cloud; default owners are the point indices."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if owners is None:
        owners = np.arange(points.shape[0])
    return _tag_hull(_bare_hull(points), owners)


def fvector_from_tagged_hull(T: TaggedPolytope) -> FVector:
    """Approximate family f-vector read off an owner-tagged hull.

    A hull feature witnesses a k-face when its vertex owners span exactly
    k+1 distinct members; features with the same owner set count once.
    The owners are read into Python once, and an owner set is counted as
    its sorted tuple.
    """
    owners = np.asarray(T.owners).tolist()
    f0 = len(set(owners))
    pairs = set()
    if T.dim == 2:
        for a, b in T.edges:
            oa, ob = owners[a], owners[b]
            if oa != ob:
                pairs.add((oa, ob) if oa < ob else (ob, oa))
        return (f0, len(pairs))
    triples = set()
    for a, b, c in T.simplices:
        x, y, z = sorted((owners[a], owners[b], owners[c]))
        if x != y:
            pairs.add((x, y))
        if y != z:
            pairs.add((y, z))
        if x != z:
            pairs.add((x, z))
            if x != y != z:
                triples.add((x, y, z))
    return (f0, len(pairs), len(triples))


# Rows of largest gauge whose gaps bound the gauge screen of
# `_winner_rows`. The screen keeps the rows whose gauge is within that
# bound of 1; a few dozen of the outermost rows already bound it about
# as tightly as the whole sample would (probe 64 keeps about 50 of 400
# ellipse rows and 430 of 1000 d = 3 ball rows), and the probe table is
# a small share of the score table it shrinks. Samples of at most twice
# this many rows skip the screen: it would save little there.
PROBE_ROWS = 64


@functools.lru_cache(maxsize=16)
def _polar_grid(K: ConvexBody, m: int) -> tuple[Array, Array, Array]:
    """(W, h_K(W), h_c(W)): the direction grid of the polar family at
    resolution m, K's support on it, and the support h_c(w) = h_K(w) -
    <w, c> of K - c for the interior point c of `_centred`, all read-only.

    Built once per body and resolution in each process; bodies are
    immutable and hash by identity, so every replicate of a campaign,
    which reuses its body, reads the same arrays."""
    W = direction_grid(K.dim, m)
    base = K.support_batch(W)
    hc = base - W @ _centred(K)[1]
    for a in (W, base, hc):
        a.setflags(write=False)
    return W, base, hc


def _winner_rows(W: Array, base: Array, hc: Array, points: Array, gauge: Array) -> Array:
    """Rows of a sample that may attain the least support gap on some
    direction of W, ascending: a superset of every minimizer of the
    rounded gaps `_support_gaps` gives, over the whole sample.

    `base` is h_K(W), `hc` is h_c(W) = h_K(W) - <W, c> for a point c
    interior to K, and `gauge` holds the gauge g_i of each row about c.

    A gauge screen runs first, on samples of more than 2 * PROBE_ROWS
    rows. Since x_i - c lies in g_i (K - c), the gap of row i on w is at
    least h_c(w) (1 - g_i). Let delta be the largest, over the grid, of
    the least gap of the PROBE_ROWS rows of largest gauge, over h_c(w).
    On every direction some probe row then has a gap of at most
    delta h_c(w), so a row with g_i < 1 - delta wins no direction. The
    screen drops the rows with g_i < 1 - delta - margin, where the margin
    is SCREEN_SLACK times 1 + max_w (|h_K(w)| + |w|_1 max|x|) / h_c(w):
    the probe gaps, the gaps of `_support_gaps`, h_c and the gauges are
    each good to a few ulps of |h_K(w)| + |w|_1 max|x|, over h_c(w), or
    of 1. That holds for either route to the gauges: K's `gauge_batch`,
    or a Ball's |x - c| / r from the squares its sample check summed, a
    square root and a quotient away from the exact value. Which rows are
    the probes does not matter: delta is measured on the probes chosen.

    The score screen then runs on the rows left. One product S = W @ X.T
    scores them on every direction, and a row is kept where its score is
    within SCREEN_SLACK times |w_j|_1 max|x| + |h_K(w_j)| of the
    direction's best among them. That best is at most the best over the
    whole sample, so the screen keeps every row it would keep there. The
    score and the dot product inside `_support_gaps` are both d-term
    sums, good to a few ulps of |w_j|_1 max|x|, and the exact gap
    h_K(w_j) - <w_j, x> is a non-increasing function of that dot product
    whose rounding merges values only within an ulp of |h_K(w_j)| +
    |w_j|_1 max|x|. So a row of least gap scores within a few ulps of
    that scale of the best score, far inside the slack.
    """
    n = points.shape[0]
    l1 = np.abs(W).sum(axis=1)
    xmax = float(np.abs(points).max())
    rows = None
    if n > 2 * PROBE_ROWS:
        probe = np.argpartition(gauge, -PROBE_ROWS)[-PROBE_ROWS:]
        # the least probe gap on each direction, from the probes' best score
        delta = float(((base - (W @ points[probe].T).max(axis=1)) / hc).max())
        margin = SCREEN_SLACK * (1.0 + float(((np.abs(base) + l1 * xmax) / hc).max()))
        rows = np.flatnonzero(gauge >= 1.0 - delta - margin)
        points = points[rows]
    S = W @ points.T  # (m, n): each direction's scores run along memory
    slack = SCREEN_SLACK * (l1 * xmax + np.abs(base))
    win = np.flatnonzero((S >= (S.max(axis=1) - slack)[:, None]).any(axis=0))
    return win if rows is None else rows[win]


def _polar_hull(X: IntersectionBody, m: int = 256) -> TaggedPolytope:
    """owner_tagged_hull(polar_family(K, points, m)) for the intersection
    body X of the sample with respect to K, built from about m points.

    Member i's vertex on the ray through w_j sits at radius
    1 / (h_K(w_j) - <w_j, x_i>). On each ray only the member(s) of least
    support gap, the farthest out, are kept; exact ties keep every tied
    member. Any other member's vertex on that ray lies strictly between
    the origin and the winner's, and the origin is interior to every polar
    model, so that vertex is strictly inside the hull. The gaps are exact
    only on a few candidate rows, which hold every winner over the whole
    sample: the rows `_winner_rows` keeps, in d = 2 and 3 alike, from X's
    `screen` rows (every row in d = 3; in d = 2 the rows strictly inside
    the hull are dropped: the radius is a convex function of x_i, so on
    each ray it peaks at a hull vertex). The gauge screen and the score
    screen of `_winner_rows` keep every row of least gap on some
    direction, so the winners among the candidates are the gap minimizers
    over all rows: the members the full family's hull keeps. No sample hull is
    built: X's `active` rows are not read.

    The grid, K's support on it and h_c come from `_polar_grid`, once per
    body and resolution, and the gauges from X (`IntersectionBody.gauges`:
    for a Ball or an Ellipsoid, the norms its sample check took). The
    exact gaps of the candidates are one stacked product, each row
    rounded as over the whole sample, and the winners are read off it in
    row-major order, which is member-major, direction-minor: the hull
    lists its vertices, with their owners, in the same order as the hull
    of the full family. In d = 3 qhull may list
    the facets in another order, or triangulate a merged facet another
    way, because its processing order depends on the points it is given;
    so the winner points reach it as they are, unscreened.
    """
    W, base, hc = _polar_grid(X.base, m)
    rows = X.screen
    rows = rows[_winner_rows(W, base, hc, X.points[rows], X.gauges(rows))]
    gaps = _support_gaps(W, base, X.points[rows])
    ii, jj = np.nonzero(gaps == gaps.min(axis=0))
    return tagged_hull_from_points(W[jj] / gaps[ii, jj][:, None], rows[ii])


def fvector_approx(K: ConvexBody, points: Array, m: int = 256) -> FVector:
    """Family f-vector via the polar-family hull at resolution m; a sample
    that is empty, of another dimension or not interior to K raises
    DomainError."""
    return fvector_from_tagged_hull(_polar_hull(IntersectionBody(K, points), m))


def polytope_fvector(points: Array) -> FVector:
    """Plain face counts (vertices, edges[, facets]) of a point cloud's hull."""
    return tagged_hull_from_points(points).fvector()


def kfacet_count_2d(K: ConvexBody, points: Array) -> int:
    """Number of facet arcs of the hull of a planar disk sample, one per
    corner of the intersection-body cycle, which `khull_boundary_2d`
    checks. A single-point hull has no facets."""
    return len(khull_boundary_2d(K, points).arcs)


@dataclass(frozen=True, eq=False)
class _Family:
    """A sample's family f-vector by its route (`_family`), its hull-row
    `columns` and `sample-hull` `sizes`, its `dump_name` file's text if
    built (`dump()`), X's general-position `report` and the `error` of a
    failed X cycle, which leaves no f-vector."""

    fvector: FVector | None
    exact: bool
    dump_name: str
    dump: Callable[[], str] | None = None
    columns: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    report: GeneralPositionReport = GeneralPositionReport(True, ())
    error: NumericError | None = None


def _family(X: IntersectionBody, m: int) -> _Family:
    """The family f-vector of X's sample by its body's one route, built
    once per sample: a planar disk's exact X arc cycle, or any other body's
    polar hull at resolution m.

    The hull of a disk sample is the intersection of the disks of radius r
    about c - v over X's corners v, c being K's center: its arcs are
    centred at X's corners and its corners are X's arc owners. So
    `kfacets` is X's corner count, the hull cycle is built only by
    `dump()`, which raises its NumericError, and the row's verdict is X's.
    Both stages' windows are EPS_GP * r, and the hull stage's witnesses
    are X's:
    - a `duplicate`, two corners of one X arc within the window, puts the
      circle through the second within the window of the first: X's
      `near-cocircular` witness (`near-tangent` if X has two arcs);
    - a `near-cocircular` corner, an X arc owner x within the window of
      the circle about c - v, is the X corner v as close to x's circle,
      with the same measure up to rounding;
    - a `near-tangent` pair, X corners within the window of 2r apart, has
      no X counterpart. It needs the hull rows within about
      2 sqrt(EPS_GP) r of one another, and X's verdict keeps such a sample.
    """
    if not (isinstance(X.base, Ball) and X.dim == 2):
        T = _polar_hull(X, m)
        fv = fvector_from_tagged_hull(T)
        return _Family(fv, False, "polar_hull.off", T.to_off_text,
                       {f"f{k}": v for k, v in enumerate(fv)})
    xpass = _disk_pass(X)
    report, xb = _report(xpass), xpass.boundary
    if xb is None:
        return _Family(None, True, "boundary.json", report=report, error=xpass.error)
    fv = fvector_exact_2d(xb)

    def dump() -> str:
        qb = _hull_stage(X.base, X.points, xb)[0]
        return json.dumps({"intersection": xb.to_json_dict(), "khull": qb.to_json_dict()},
                          indent=1)

    return _Family(fv, True, "boundary.json", dump,
                   {"f0": fv[0], "f1": fv[1], "kfacets": len(xb.vertices)},
                   {"arcs": len(xb.arcs), "vertices": len(xb.vertices)}, report)
