"""Intersections of translated bodies and hulls with respect to a body.

X = (K - x_1) cap ... cap (K - x_n) is the set of translations moving the
whole sample into K; the hull of the sample with respect to K is K minus
that intersection, i.e. the intersection of all translates of K that
contain the sample. For a planar disk both boundaries are exact arc
cycles; other kinds get radial probes and certified membership verdicts.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .body import (Ball, ConvexBody, Ellipsoid, Polytope, direction_grid, uniform_sample,
                   _as_point)
from .errors import DomainError, GeneralPositionWarning, NumericError

Array = np.ndarray

# Inside-a-disk slack of the arc sweep's coverage test and of its corner
# check, relative to the radius.
EPS_GEO = 1e-9
# Near-degeneracy window for general-position diagnostics, relative to the radius.
EPS_GP = 1e-7
# Rounding allowance of the cocircularity screen's candidate test and of
# the polar hull's gauge and score screens, relative to the coordinate
# scale; the distances, gauges and dot products they compare are good to
# a few ulps.
SCREEN_SLACK = 1e-12

TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=16)
def _centred(K: ConvexBody) -> tuple[ConvexBody, Array]:
    """(K - c, c) for a point c interior to K: its center, or the vertex
    mean of a polytope. The gauge of K - c is defined wherever K lies, and
    y is in K iff y - c is in K - c; for a body centred at the origin c = 0
    and K - c computes as K does. Bodies are immutable and hash by
    identity, so repeated tests against one body translate it once (a
    polytope's translate runs qhull again)."""
    c = K.vertices.mean(axis=0) if isinstance(K, Polytope) else K.center
    return K.translate(-c), c


def mink_diff_contains(K: ConvexBody, points: Array, x, tol: float = 1e-12) -> bool:
    """Whether x + points lies inside K, i.e. x is in the Minkowski
    difference of K by the point set. K need not contain the origin: the
    gauge is taken about an interior point of K (`_centred`)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = _as_point(x, K.dim)
    Kc, c = _centred(K)
    return bool(np.all(Kc.gauge_batch((points - c) + x[None, :]) <= 1.0 + tol))


# Directions whose extreme rows span the screening polygon.
_SCREEN_DIRECTIONS = direction_grid(2, 16)
# How far inside that polygon, relative to the coordinate scale, a row
# must be to be dropped; far above the rounding of the test itself.
PRUNE_SCREEN_MARGIN = 1e-9


def _screen_polygon(points: Array, directions: Array = _SCREEN_DIRECTIONS
                    ) -> tuple[Array, Array] | None:
    """(outward normals, bounds) of the edges of the polygon the rows of a
    planar cloud extreme in `directions` (by increasing angle) span,
    counter-clockwise; None when it has fewer than three corners. Each
    bound is moved inward by PRUNE_SCREEN_MARGIN times the largest corner
    coordinate and the edge's length."""
    # np.roll by concatenation: the same arrays, without its overhead
    ext = np.argmax(directions @ points.T, axis=1)
    ext = points[ext[ext != np.concatenate((ext[-1:], ext[:-1]))]]
    if ext.shape[0] < 3:
        return None
    edge = np.concatenate((ext[1:], ext[:1])) - ext
    normal = np.column_stack([edge[:, 1], -edge[:, 0]])  # outward, for a ccw polygon
    margin = PRUNE_SCREEN_MARGIN * float(np.abs(ext).max()) * np.hypot(edge[:, 0], edge[:, 1])
    return normal, (normal * ext).sum(axis=1) - margin


def _outside(points: Array, normal: Array, bound: Array) -> Array:
    """Rows of a planar cloud not strictly inside every edge, ascending."""
    # edges x rows, reduced over the edges: the long axis stays innermost
    inside = (normal @ points.T < bound[:, None]).all(axis=0)
    return np.flatnonzero(~inside)


def _akl_toussaint(points: Array) -> Array:
    """Rows of a planar cloud on or outside the polygon of its extreme
    rows, ascending: a superset of the convex-hull vertices.

    The throw-away step of Akl and Toussaint (1978): the rows extreme in a
    fixed set of directions span a polygon inside the hull, and a row
    strictly inside every edge of it, by PRUNE_SCREEN_MARGIN times the
    largest coordinate, is strictly inside the hull. The directions run by
    increasing angle, so their extreme rows come counter-clockwise around
    the hull and are the polygon's corners in order, with no hull call.
    Hull vertices and every copy of one sit on or outside the polygon, so
    they are kept whatever the rounding of the test; a cloud too thin for
    the polygon to have such an interior keeps every row.
    """
    poly = _screen_polygon(points)
    if poly is None:
        return np.arange(points.shape[0])
    return _outside(points, *poly)


def _prune_to_hull(points: Array, rows: Array) -> Array:
    """Indices of the convex-hull vertices of the sample and of every row
    equal to one of them, ascending.

    The intersection of translates over a point set equals the one over its
    convex hull, so only hull vertices can be active constraints. qhull
    runs on `rows`, the rows `IntersectionBody.screen` keeps, and its
    vertices are mapped back to the sample: the rows the screen drops lie
    strictly inside the hull, and on every sample tested the vertices are
    those of qhull over all rows. Copies are looked for among the kept
    rows, which hold every one.
    """
    from scipy.spatial import ConvexHull, QhullError

    n = points.shape[0]
    if n <= 3:
        return np.arange(n)
    try:
        verts = rows[np.sort(ConvexHull(points[rows]).vertices)]
    except QhullError:
        return np.arange(n)  # degenerate input: keep everything
    return _with_copies(points, verts, rows)


@dataclass(frozen=True, eq=False)
class IntersectionBody:
    """X = intersection of K - x over the sample points, all interior to K.

    Building X checks the sample once: it must be a non-empty set of rows
    of K's dimension, each interior to K, or DomainError is raised. The
    check keeps what it measures: for a Ball, `sq`, the squared distance
    of each row from K's center (its verdict is sqrt(sq) < r, bit for bit
    `Ball._interior_batch`'s), and for a Ball or an Ellipsoid the gauge of
    each row about K's center, which `gauges` hands to the polar hull.
    `screen` holds a superset of the hull vertices and their copies found
    with no hull call: the rows `_akl_toussaint` keeps of a planar sample
    of any size, and every row of a d = 3 one, unless the body is built
    with such rows as `_screen` (`_disk_sample` hands over the rows its
    band screen keeps). `active` holds the rows that can touch X,
    ascending: the convex-hull vertices of the sample and every row equal
    to one of them, found by qhull over the screen rows. The copies change
    no radial or support value of X, and the disk arc pass dedupes them.
    Both are computed on their first read, once, so a reader that does not
    need the hull rows does not pay for qhull: the polar hull reads only `screen`, in d = 2
    and 3, and the disk arc pass reads only `screen` (and `sq`) unless its
    certificate or its bound on X fails (`_reach_rows`); when no more
    screen rows reach X than its seed sweep read, that sweep is X's.
    """

    base: ConvexBody
    points: Array
    sq: Array | None = field(init=False, repr=False)
    _norms: Array | None = field(init=False, repr=False)
    _screen: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        K = self.base
        if pts.shape[1] != K.dim:
            raise DomainError("sample dimension does not match the body")
        if pts.shape[0] == 0:
            raise DomainError("empty sample")
        sq = norms = None
        if isinstance(K, Ball):
            sq = K._sq_dist(pts)
            norms = np.sqrt(sq)
            inside = norms < K.radius
        elif isinstance(K, Ellipsoid):
            norms = K._unit_norms(pts)
            inside = norms < 1.0
        else:
            inside = K._interior_batch(pts)
        if not np.all(inside):
            raise DomainError("all sample points must lie in the interior of K")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sq", sq)
        object.__setattr__(self, "_norms", norms)

    @functools.cached_property
    def screen(self) -> Array:
        if self._screen is not None:
            return self._screen
        if self.dim == 2:
            return _akl_toussaint(self.points)
        return np.arange(self.points.shape[0])

    @functools.cached_property
    def active(self) -> Array:
        return _prune_to_hull(self.points, self.screen)

    def gauges(self, rows: Array) -> Array:
        """The gauge of K - c at x - c for the given rows x, c the interior
        point of `_centred` (K's center for a Ball or an Ellipsoid): the
        norm the sample check took, over r for a Ball, or K's gauge. The
        two routes may differ by a few ulps; each is good to a few ulps."""
        K = self.base
        if self._norms is None:
            Kc, c = _centred(K)
            return Kc.gauge_batch(self.points[rows] - c)
        g = self._norms[rows]
        return g / K.radius if isinstance(K, Ball) else g

    @property
    def dim(self) -> int:
        return self.base.dim

    def radial_batch(self, U: Array) -> Array:
        """Radial function of X at unit directions U (0 is interior to X)."""
        t = self.base.ray_exit_batch(self.points[self.active], U)
        return t.min(axis=1)

    def radial(self, u) -> float:
        u = _as_point(u, self.dim)
        u = u / np.linalg.norm(u)
        return float(self.radial_batch(u[None, :])[0])

    def boundary_point(self, u) -> Array:
        u = _as_point(u, self.dim)
        u = u / np.linalg.norm(u)
        return self.radial(u) * u

    def outer_support_bound_batch(self, U: Array) -> Array:
        """Upper bound min_i h(K - x_i, u) on the support function of X."""
        return self.base.support_batch(U) - (U @ self.points[self.active].T).max(axis=1)

    def outer_support_bound(self, u) -> float:
        u = _as_point(u, self.dim)
        return float(self.outer_support_bound_batch(u[None, :])[0])

    def contains(self, x, tol: float = 1e-12) -> bool:
        return mink_diff_contains(self.base, self.points, x, tol)


# Depth of the band a disk sample is drawn from first, in units of
# n^(-2/3) r: the band is rho r <= |x - c| < r with 1 - rho = BAND_DEPTH
# n^(-2/3). The hull of n uniform rows misses the disk's inner part by
# about that order: 1 - (its inradius) / r read 4.3-5.3 n^(-2/3) in the
# median and at most 7.8 n^(-2/3) over 100 samples per n from 5000 to
# 10^6 (30 at 10^6).
BAND_DEPTH = 10.0


@functools.lru_cache(maxsize=32)
def _band_directions(m: int) -> Array:
    """direction_grid(2, m), built once per m, read-only."""
    U = direction_grid(2, m)
    U.setflags(write=False)
    return U


def _band_screen(K: Ball, band: Array, rho: float, directions: Array) -> Array | None:
    """Rows of `band` outside the polygon its rows extreme in `directions`
    span (`_screen_polygon`), ascending, when every edge of that polygon,
    moved inward by the screen's margin, clears the disk B(c, rho r +
    EPS_GP r) by SCREEN_SLACK times r + |c|, for K = B(c, r); None when
    the band or the polygon has fewer than three rows or corners, or the
    polygon does not clear that disk."""
    if band.shape[0] < 3:
        return None
    poly = _screen_polygon(band, directions)
    if poly is None:
        return None
    normal, bound = poly
    r, c = K.radius, K.center
    clear = (rho + EPS_GP) * r + SCREEN_SLACK * (r + float(np.abs(c).max()))
    if not (bound - normal @ c > np.hypot(normal[:, 0], normal[:, 1]) * clear).all():
        return None
    return _outside(band, normal, bound)


def _annulus_rows(K: Ball, rho: float, count: int, rng: np.random.Generator) -> Array:
    """`count` rows uniform in the annulus rho r <= |x - c| < r of K =
    B(c, r), by polar draws: r^2 uniform in [rho^2 r^2, r^2) and the angle
    uniform. A row whose computed distance from c rounds to r or more
    fails the sample check sqrt(sq) < r and is drawn again."""
    r, c = K.radius, K.center
    out = np.empty((count, 2))
    filled = 0
    while filled < count:
        u = rng.random((count - filled, 2))
        s = r * np.sqrt(rho * rho + (1.0 - rho * rho) * u[:, 0])
        a = TWO_PI * u[:, 1]
        rows = np.column_stack([c[0] + s * np.cos(a), c[1] + s * np.sin(a)])
        rows = rows[np.sqrt(K._sq_dist(rows)) < r]
        out[filled:filled + rows.shape[0]] = rows
        filled += rows.shape[0]
    return out


def _disk_sample(K: Ball, n: int, rng: np.random.Generator) -> IntersectionBody:
    """The intersection body of n rows uniform in a planar disk K = B(c, r),
    drawn band first.

    With 1 - rho = BAND_DEPTH n^(-2/3) (rho = 0 when that is negative), the
    band count B ~ Binomial(n, 1 - rho^2) is drawn, then B rows uniform in
    the annulus rho r <= |x - c| < r (`_annulus_rows`). When the polygon of
    the band's rows extreme in max(16, floor(4 n^(1/3))) directions clears
    B(c, rho r + EPS_GP r) (`_band_screen`), the draw stops: X is the band
    rows, and its `screen` is the band rows outside that polygon.
    Otherwise the n - B inner rows are drawn uniform in B(c, rho r) by
    `uniform_sample`, and X is built over the band rows followed by them,
    as over any sample.

    Why the output has the law of X over `uniform_sample(K, n, rng)`:
    - Given B, the band and the inner rows are independent uniform samples
      of the annulus and of the inner disk, so together they are n rows
      uniform in K, band rows first. The stop decision reads only the
      band. So the output is a function of a sample with exactly the full
      sampler's law, once a stop is shown to leave out only rows that
      change nothing.
    - The band's hull holds the polygon, which holds B(c, rho' r) with
      rho' >= rho + EPS_GP. So every point p of X has |p| <= (1 - rho') r:
      p + c + rho' r p / |p| must lie in K. An inner row y, |y - c| <
      rho r, has the disk B(c - y, r) in X's frame, and every point of X,
      each corner included, lies more than EPS_GP r inside its circle. So
      an inner row is no hull vertex and no copy of one, in no duplicate
      or near-tangent pair, and no third circle near a corner: whether or
      not `_disk_cycle`'s cocircularity screen takes it as a candidate
      (sq > reach^2), its measured gap exceeds the window. X, its arc
      cycle and witnesses, its hull rows and its radial and support bounds
      are those over all n rows; every decision that picks a row or
      excludes a replicate reads only band rows.
    - Rounding. The polygon's corners are band rows, and a row strictly
      inside every edge moved in by the margin is strictly inside the
      band's hull (`_akl_toussaint`). The clearance test and the inner
      rows' check (`uniform_sample` keeps the rows whose computed distance
      from c is below rho r) are good to a few ulps of r + |c|, and X's
      corners and the screen's gaps to well under SCREEN_SLACK r: the
      slack of the clearance, SCREEN_SLACK (r + |c|), covers them, so
      every inequality above holds strictly.

    Only the row order differs from `uniform_sample`'s, so arc owners
    index the rows as drawn here. The band holds about 2 BAND_DEPTH
    n^(-2/3) of the rows: 12% at n = 2000, 6.7% at 5000, 0.93% at 10^5.
    """
    r, c = K.radius, K.center
    depth = BAND_DEPTH * n ** (-2.0 / 3.0)
    rho = max(0.0, 1.0 - depth)
    count = int(rng.binomial(n, 1.0 - rho * rho))
    band = _annulus_rows(K, rho, count, rng)
    m = max(16, math.floor(4.0 * n ** (1.0 / 3.0)))
    screen = _band_screen(K, band, rho, _band_directions(m))
    if screen is not None:
        return IntersectionBody(K, band, _screen=screen)
    if count == n:
        return IntersectionBody(K, band)
    inner = uniform_sample(Ball(rho * r, c), n - count, rng)
    return IntersectionBody(K, np.concatenate([band, inner]))


@dataclass(frozen=True)
class MembershipVerdict:
    """Certified membership answer; `unknown` carries the certification gap."""

    status: str  # "in" | "out" | "unknown"
    margin: float

    def __bool__(self) -> bool:
        return self.status == "in"


def khull_contains(K: ConvexBody, points: Array, z, resolution: int = 256) -> MembershipVerdict:
    """Certified test of z against the hull of `points` with respect to K.

    z lies in the hull iff X + z is contained in K. "Out" is certified by a
    boundary probe of X landing outside K; "in" by the outer support-bound
    polytope of X fitting inside K - z with positive margin. Both gauges
    are taken about an interior point c of K (`_centred`), so K need not
    contain the origin: X + z lies in K iff X + z - c lies in K - c.
    """
    from scipy.spatial import HalfspaceIntersection, QhullError

    X = IntersectionBody(K, points)
    Kc, c = _centred(K)
    z = _as_point(z, K.dim) - c
    U = direction_grid(K.dim, resolution)
    r = X.radial_batch(U)
    probe_gauge = Kc.gauge_batch(r[:, None] * U + z[None, :])
    worst = float(probe_gauge.max())
    if worst > 1.0 + 1e-9:
        return MembershipVerdict("out", worst - 1.0)
    h = X.outer_support_bound_batch(U)
    halfspaces = np.column_stack([U, -h])
    try:
        verts = HalfspaceIntersection(halfspaces, np.zeros(K.dim)).intersections
    except QhullError as exc:
        raise NumericError("outer polytope construction failed") from exc
    vert_gauge = float(Kc.gauge_batch(verts + z[None, :]).max())
    if vert_gauge < 1.0:
        return MembershipVerdict("in", 1.0 - vert_gauge)
    return MembershipVerdict("unknown", vert_gauge - 1.0)


@dataclass(frozen=True, eq=False)
class Arc:
    """Circular boundary piece: owner index, circle center, CCW angle span."""

    owner: int
    center: Array
    a0: float
    a1: float

    def point_at(self, t: float, radius: float) -> Array:
        a = self.a0 + t * (self.a1 - self.a0)
        return self.center + radius * np.array([math.cos(a), math.sin(a)])

    @property
    def width(self) -> float:
        return self.a1 - self.a0


@dataclass(frozen=True, eq=False)
class ArcVertex:
    """Corner of an arc cycle with the unordered owner pair meeting there."""

    owners: tuple[int, int]
    point: Array


@dataclass(frozen=True, eq=False)
class ArcBoundary:
    """Closed, positively oriented cycle of circular arcs (d = 2).

    Arcs appear in traversal order; arc k ends where arc k+1 starts. A
    single-point hull degenerates to an empty cycle with that point set.
    """

    arcs: tuple[Arc, ...]
    vertices: tuple[ArcVertex, ...]
    radius: float
    degenerate_point: Array | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.degenerate_point is not None

    def arc_owners(self) -> set[int]:
        return {a.owner for a in self.arcs}

    def vertex_owner_pairs(self) -> set[frozenset[int]]:
        return {frozenset(v.owners) for v in self.vertices}

    def measure(self) -> tuple[float, float]:
        """Area and perimeter of the region the cycle bounds, a disc-polygon
        (Bezdek, Langi, Naszodi and Papez 2007), in closed form.

        By Green's theorem the area is half the integral of x dy - y dx
        around the cycle. Taken about its first corner v, the arc of w
        radians from corner p to corner q adds the triangle (v, p, q) and
        the circular segment between its chord and itself, r^2 (w - sin w)
        / 2; the perimeter is r times the sum of the w. The fan's triangles
        and the segments are never negative, so the sum does not cancel,
        wherever the cycle lies and however small it is next to r. Taken
        about the origin instead, each arc adds r (c_x (sin a1 - sin a0) -
        c_y (cos a1 - cos a0)) + r^2 w for its center c, whose two parts
        nearly cancel on a small cycle: over 200 uniform disk samples of
        2000 rows that form lost up to 6e-10 of the area, this one 1e-12.
        A single arc is its whole circle; a degenerate cycle measures 0.
        """
        r = self.radius
        if not self.vertices:
            return (math.pi * r * r, TWO_PI * r) if self.arcs else (0.0, 0.0)
        xy = [v.point.tolist() for v in self.vertices]
        vx, vy = xy[-1]  # where the first arc starts
        px = py = area = width = 0.0
        for arc, (qx, qy) in zip(self.arcs, xy):
            qx -= vx
            qy -= vy
            w = arc.a1 - arc.a0
            area += px * qy - qx * py + r * r * (w - math.sin(w))
            width += w
            px, py = qx, qy
        return 0.5 * area, r * width

    def to_json_dict(self) -> dict:
        return {
            "arcs": [
                {"owner": int(a.owner), "center": [float(c) for c in a.center],
                 "a0": float(a.a0), "a1": float(a.a1)}
                for a in self.arcs
            ],
            "vertices": [
                {"owners": [int(o) for o in v.owners],
                 "point": [float(c) for c in v.point]}
                for v in self.vertices
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, radius: float) -> "ArcBoundary":
        arcs = tuple(
            Arc(int(a["owner"]), np.asarray(a["center"], dtype=float),
                float(a["a0"]), float(a["a1"]))
            for a in data["arcs"]
        )
        vertices = tuple(
            ArcVertex((int(v["owners"][0]), int(v["owners"][1])),
                      np.asarray(v["point"], dtype=float))
            for v in data["vertices"]
        )
        return cls(arcs, vertices, radius)


@dataclass(frozen=True)
class DegeneracyWitness:
    """One near-degeneracy: kind, sample indices involved, witness point,
    and the measured slack that fell inside the tolerance window."""

    kind: str  # "duplicate" | "near-tangent" | "near-cocircular"
    indices: tuple[int, ...]
    witness: Array | None
    measure: float

    def describe(self) -> str:
        return f"{self.kind} at indices {self.indices} (measure {self.measure:.3e})"


def _require_disk(K: ConvexBody) -> Ball:
    if not isinstance(K, Ball) or K.dim != 2:
        raise DomainError("the exact arc pipeline requires a planar Ball")
    return K


def _dedupe_rows(pts: Array) -> Array:
    """Indices of first occurrences of distinct rows, original order.

    A stable lexicographic sort puts equal rows next to each other with
    the earliest one first, so the rows that differ from their sorted
    predecessor are exactly the first occurrences. Rows are compared as
    floats, -0.0 equal to 0.0, which is how np.unique(axis=0) compares
    them; the indices are the same as np.unique's return_index, sorted.
    """
    order = np.lexsort(pts.T[::-1])
    ranked = pts[order]
    first = np.ones(pts.shape[0], dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[first])


def _with_copies(pts: Array, members: Array, rows: Array) -> Array:
    """`members` plus every other row equal to one of theirs, ascending.

    qhull reports one copy of a repeated point as a hull vertex. The other
    copies are the same point: the polar hull keeps them as tied winners on
    every ray, and the arc pipeline dedupes them to their first occurrence.
    The copies are looked for among `rows`, which must hold `members` and
    every copy.
    """
    sub = pts[rows]
    keys = np.sort(pts[members, 0])
    pos = np.minimum(np.searchsorted(keys, sub[:, 0]), keys.size - 1)
    cand = np.flatnonzero(keys[pos] == sub[:, 0])
    if cand.size == members.size:
        return members
    found = cand[(sub[cand, None] == pts[members]).all(axis=2).any(axis=1)]
    return rows[found]


def _pair_dist(a: Array, b: Array) -> Array:
    """(len(a), len(b)) table of distances between planar rows of a and b.

    sqrt(dx * dx + dy * dy) from the coordinate columns: the operations
    np.linalg.norm(a[:, None] - b[None], axis=2) does, in the same order,
    so the same bits, without its 3-D temporary.
    """
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _ccw_cycle(points: Array, start: int) -> list[int]:
    """Indices of planar points in counter-clockwise order, from `start`.

    The split of Andrew (1979): rows sorted by (x, y), those on or right of
    the chord from the first to the last go out in that order and those
    left of it come back in reverse. Points in convex position come out in
    their cyclic order around the hull; collinear points, on which angles
    about their mean tie up to rounding, come out in order along the line,
    each way.
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    a = points[order[0]]
    ex, ey = points[order[-1]] - a
    rel = points[order] - a
    left = ex * rel[:, 1] - ey * rel[:, 0] > 0.0
    cycle = np.concatenate([order[~left], order[left][::-1]]).tolist()
    k = cycle.index(start)
    return cycle[k:] + cycle[:k]


def _monotone_chain(points: Array) -> list[int]:
    """Indices of hull vertices in CCW order; collinear middles dropped.

    The orientation test runs on Python floats, one IEEE operation at a
    time, exactly as it would on numpy float64 scalars."""
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    xy = points.tolist()

    def build(seq):
        out: list[int] = []
        for i in seq:
            px, py = xy[i]
            while len(out) >= 2:
                ox, oy = xy[out[-2]]
                ax, ay = xy[out[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    lower = build(order)
    upper = build(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DomainError("degenerate planar hull (fewer than 3 extreme points)")
    return hull


def _arc_sweep(r: float, act: Array, inner: Array
               ) -> tuple[list[tuple[int, int]], Array, list[tuple[int, float, float, int]]]:
    """The stack sweep over two or more equal disks of radius r centered at
    the rows of `act`, with `inner` a point within r of every center.

    The arc owners are a subsequence of the centers in counter-clockwise
    order around their hull (the ball-polygons of Bezdek, Langi, Naszodi
    and Papez 2007), so one stack sweep over that order finds them. It
    starts at the center farthest from `inner`, whose circle's point
    farthest from `inner` lies inside every other disk, so it owns an arc;
    a center is popped while the corner its neighbours make left of their
    step lies in its disk. Every corner is checked against every disk,
    which certifies the cycle; NumericError is raised when two disks
    coincide or a corner lies outside a disk, by more than EPS_GEO * r.

    Returns the corner steps (a, b) of consecutive stack rows, positions in
    `act`, in pair order (the `+` corner of each pair a < b in triu order,
    then the `-` ones), the corners in that order, and the arcs read off
    the stack from its lowest row: (owner, a0, a1, e), the arc of the owner
    running counter-clockwise from its corner with the row before it to
    its corner with the row after it, which is corner e.
    """
    cxy = act.tolist()
    limit = r + EPS_GEO * r

    def corner(a: int, b: int) -> tuple[float, float]:
        """The intersection of circles a and b left of the step from a to b,
        by the pair formula over (min, max): its `+` candidate when a < b."""
        (xi, yi), (xj, yj) = (cxy[a], cxy[b]) if a < b else (cxy[b], cxy[a])
        dx = xj - xi
        dy = yj - yi
        d = math.sqrt(dx * dx + dy * dy)
        if d == 0.0:
            raise NumericError("two active disks coincide")
        half = math.sqrt(max(r * r - 0.25 * d * d, 0.0))
        if a > b:
            half = -half
        return 0.5 * (xi + xj) + half * -(dy / d), 0.5 * (yi + yj) + half * (dx / d)

    def covers(b: int, p: tuple[float, float]) -> bool:
        dx = cxy[b][0] - p[0]
        dy = cxy[b][1] - p[1]
        return math.sqrt(dx * dx + dy * dy) <= limit

    far = act - inner
    s0 = int(np.argmax(far[:, 0] * far[:, 0] + far[:, 1] * far[:, 1]))
    seq = _ccw_cycle(act, s0)
    stack = [s0]
    for c in seq[1:] + [s0]:
        while len(stack) > 1 and stack[-2] != c and covers(stack[-1], corner(stack[-2], c)):
            stack.pop()
        if c != s0:
            stack.append(c)

    steps = sorted(zip(stack, stack[1:] + stack[:1]),
                   key=lambda s: (s[0] > s[1], min(s), max(s)))
    pts = np.array([corner(a, b) for a, b in steps])
    if not (_pair_dist(pts, act) <= limit).all():
        raise NumericError("a corner of the sweep lies outside an active disk")

    at = {s: v for v, s in enumerate(steps)}
    k0 = stack.index(min(stack))
    owners = stack[k0:] + stack[:k0]
    xy = pts.tolist()
    arcs = []
    for prev, o, nxt in zip(owners[-1:] + owners[:-1], owners, owners[1:] + owners[:1]):
        s, e = at[prev, o], at[o, nxt]
        cx, cy = cxy[o]
        a0 = math.atan2(xy[s][1] - cy, xy[s][0] - cx)
        a1 = math.atan2(xy[e][1] - cy, xy[e][0] - cx)
        if a1 < a0:
            a1 += TWO_PI
        arcs.append((o, a0, a1, e))
    return steps, pts, arcs


def _disk_cycle(radius: float, centers_all: Array, active: Array, inner: Array,
                witnesses: list[DegeneracyWitness], sq: Array | None = None,
                sweep: tuple | None = None) -> tuple[list[Arc], list[ArcVertex]]:
    """Arc cycle of the intersection of equal disks centered at
    centers_all[active]; `witnesses` collects near-degeneracies. `inner` is
    a point within the radius of every active center.

    Owner indices in the returned cycle refer to positions in centers_all.
    The pairs of active disks are scanned once for `duplicate` and
    `near-tangent` witnesses, and disjoint disks raise DomainError. The
    cycle comes from `_arc_sweep` over the active rows alone, which checks
    every corner against every active disk and fails with NumericError.
    In the X stage the active rows are those `_reach_rows` picks, or every
    hull row when it picks none; when they are its seed rows it hands
    over its seed sweep as `sweep`, used as it is instead of sweeping
    again. Cocircularity is screened against every disk, not only active
    ones, but measured only for the rows whose distance from
    `inner` lets their circle reach a corner; `sq`, if given, holds the
    squared distances of the rows of centers_all from `inner`, as
    dx * dx + dy * dy rounds them. The windows are EPS_GEO and EPS_GP
    times the radius, so the cycle and its witnesses do not depend on the
    unit of length.
    """
    r = radius
    eps_gp = EPS_GP * r
    act = centers_all[active]
    m = act.shape[0]
    if m == 1:
        return [Arc(int(active[0]), act[0], 0.0, TWO_PI)], []

    # One guarded pass: the diagonal reads r, inside both windows, so the
    # loops run only when some pair falls in one.
    dist = _pair_dist(act, act)
    np.fill_diagonal(dist, r)
    if ((dist < eps_gp) | (dist > 2.0 * r - eps_gp)).any():
        for i, j in zip(*np.nonzero(np.triu(dist < eps_gp, 1))):
            witnesses.append(DegeneracyWitness(
                "duplicate", (int(active[i]), int(active[j])), None, float(dist[i, j])))
        for i, j in zip(*np.nonzero(np.triu(dist > 2.0 * r - eps_gp, 1))):
            witnesses.append(DegeneracyWitness(
                "near-tangent", (int(active[i]), int(active[j])), None,
                float(2.0 * r - dist[i, j])))
        if np.any(dist >= 2.0 * r):
            raise DomainError("disjoint constraint disks; sample points not interior to K")

    steps, pts, spans = _arc_sweep(r, act, inner) if sweep is None else sweep
    own_i = np.array([min(s) for s in steps])
    own_j = np.array([max(s) for s in steps])

    # Cocircularity screen against every circle in the input. A circle
    # passes within eps_gp of a corner p only if its center is farther than
    # r - eps_gp - |p - inner| from `inner` (triangle inequality), so when
    # some rows are not active (the X stage) only those candidate rows are
    # measured; SCREEN_SLACK, at the scale of the coordinates, covers the
    # rounding of both distances. The candidates are ascending, so the
    # witnesses are those of the full table. When every row is active (the
    # hull stage) the table is small and is measured whole.
    xy = pts.tolist()
    n_all = centers_all.shape[0]
    if n_all > 2:
        rows, ids = centers_all, range(n_all)
        if m < n_all:
            ix, iy = inner.tolist()
            scale = max(abs(ix), abs(iy), *(abs(c) for p in xy for c in p))
            reach = (r - eps_gp - max(math.hypot(x - ix, y - iy) for x, y in xy)
                     - SCREEN_SLACK * (r + scale))
            if reach > 0.0:
                if sq is None:
                    sq = centers_all[:, 0] - ix
                    dy = centers_all[:, 1] - iy
                    sq *= sq
                    dy *= dy
                    sq += dy
                cand = np.flatnonzero(sq > reach * reach)
                rows, ids = centers_all[cand], cand.tolist()
        gap = _pair_dist(pts, rows)
        gap -= r
        np.abs(gap, out=gap)
        near = gap < eps_gp
        for v in np.flatnonzero(near.any(axis=1)):
            pair = (int(active[own_i[v]]), int(active[own_j[v]]))
            cols = [k for k in np.flatnonzero(near[v]).tolist() if ids[k] not in pair]
            # a copy of an active row is that row's circle again, not a third one
            cols = [k for k in cols if ids[k] in active
                    or not (act == centers_all[ids[k]]).all(axis=1).any()]
            if cols:
                witnesses.append(DegeneracyWitness(
                    "near-cocircular", (*pair, *(ids[k] for k in cols)), pts[v],
                    float(gap[v, cols].min())))

    # Each arc ends at the cycle's vertex e, the corner of its owner and the
    # next stack row.
    arcs = [Arc(int(active[o]), act[o], a0, a1) for o, a0, a1, _ in spans]
    verts = [ArcVertex((int(active[own_i[e]]), int(active[own_j[e]])), pts[e])
             for _, _, _, e in spans]
    return arcs, verts


# Screen rows of the seed sweep that bounds X ahead of the X cycle: the ones
# farthest from the origin of the centers, i.e. the sample rows nearest the
# disk's boundary. X's arc owners are among those, pi^2 / 2 of them on
# average. On uniform samples of 5000 the nearest 12 bound X about as
# tightly as 16 do (10.5 and 9.5 rows reach X, over 100 samples) and never
# fell back there, where 6 rows let 18 reach it and fell back on 2; the
# seed sweep and the X cycle cost about the same for 8 to 16.
SEED_ROWS = 12


def _reach_rows(r: float, centers: Array, screen: Array, sq: Array
                ) -> tuple[Array, tuple | None] | None:
    """X's active rows among the screen rows, ascending, with their sweep
    when it is the seed sweep (None when it is not); None when the
    certificate or the bound below fails.

    `centers` are the disk centers in the frame where the origin lies in
    every disk, `sq` their squared norms, and `screen` holds every hull
    vertex and every copy of one. The certificate: the screen rows' sorted
    x coordinates are more than EPS_GP * r apart, so are the rows, which
    rules out a repeated hull row and a `duplicate` witness; and at most
    one of them lies within EPS_GP * r of the circle of radius r about the
    origin, where both rows of a `near-tangent` pair must lie. The bound:
    the sweep over the SEED_ROWS screen rows farthest from the origin has
    three or more arcs and corners inside every seed disk, so its arcs run
    over the boundary of the seed disks' intersection, which holds X. When
    none of them holds the point of its circle farthest from the origin,
    |x| on that boundary peaks at a corner, so the largest corner norm rho
    bounds |x| on X. A disk whose center lies within reach = r - rho -
    EPS_GP * r - slack of the origin holds B(0, rho + EPS_GP * r), and X in
    its interior: the intersection of the other disks is then X too (a
    convex set whose intersection with a disk is non-empty and interior to
    the disk lies inside it), and the disk's circle passes no corner of X
    within EPS_GP * r. Dropping such disks one at a time, the disks of
    any screen rows that include every row farther than reach from the
    origin intersect in X. The seed rows are the seed.size screen rows of
    largest norm, so they include every such row exactly when at most
    seed.size rows are that far, ties included; the seed rows and their
    sweep are then X's. Otherwise the rows are the hull vertices of the
    rows that far, with no sweep.
    """
    eps_gp = EPS_GP * r
    c = centers[screen]
    sq = sq[screen]
    # the seed corners are certified to EPS_GEO * r; SCREEN_SLACK covers
    # the rounding of the norms and the distances
    slack = EPS_GEO * r + SCREEN_SLACK * (r + float(np.abs(c).max()))
    if (np.diff(np.sort(c[:, 0])) <= eps_gp).any():
        return None
    if np.count_nonzero(sq > (r - eps_gp - slack) ** 2) > 1:
        return None
    seed = np.arange(screen.size)
    if screen.size > SEED_ROWS:
        seed = np.sort(np.argpartition(sq, -SEED_ROWS)[-SEED_ROWS:])
    if seed.size < 3:
        return None
    sc = c[seed]
    try:
        sweep = _arc_sweep(r, sc, np.zeros(2))
    except NumericError:
        return None
    _, pts, spans = sweep
    if len(spans) < 3:
        return None
    for o, a0, a1, _ in spans:
        t = math.atan2(sc[o, 1], sc[o, 0]) - a0
        if t < 0.0:
            t += TWO_PI
        if t <= a1 - a0:
            return None  # the arc holds its circle's point farthest from the origin
    rho = max(math.hypot(px, py) for px, py in pts.tolist())
    reach = r - rho - eps_gp - slack
    if reach <= 0.0:
        return None
    far = sq > reach * reach
    if np.count_nonzero(far) <= seed.size:
        return screen[seed], sweep
    near = screen[far]
    try:
        return near[np.sort(_monotone_chain(centers[near]))], None
    except DomainError:
        return None  # all on a line


@dataclass(frozen=True, eq=False)
class _DiskPass:
    """One build of the X arc cycle of a planar disk sample: the choice of
    its rows (the screen rows that reach X, or the deduped hull rows) and
    the corner construction.

    `boundary` is None when the cycle failed, because two active disks
    coincide or a corner lies outside an active disk, and `error` then
    holds the NumericError. `witnesses` are the near-degeneracies of the
    cycle; `dropped` pairs each repeated hull-vertex row dropped before it
    with the row's first occurrence, as (first, dropped), by dropped row.
    Repeated interior rows are not dropped: they cannot touch X.
    """

    points: Array
    dropped: tuple[tuple[int, int], ...]
    witnesses: tuple[DegeneracyWitness, ...]
    boundary: ArcBoundary | None
    error: NumericError | None

    def checked_boundary(self) -> ArcBoundary:
        """The cycle, after the warnings disk_intersection_boundary gives;
        a cycle that failed raises its NumericError here."""
        if self.dropped:
            warnings.warn(f"deduplicated {len(self.dropped)} repeated sample points",
                          GeneralPositionWarning, stacklevel=3)
        if self.error is not None:
            raise self.error
        for w in self.witnesses:
            warnings.warn(w.describe(), GeneralPositionWarning, stacklevel=3)
        return self.boundary


def _disk_pass(X: IntersectionBody) -> _DiskPass:
    """Build the arc cycle of X, the intersection body of a sample interior
    to a planar disk.

    X has checked the sample, keeping the squared center distances
    (`X.sq`), and screened it (`X.screen`; a `_disk_sample` hands over
    its band screen). When its certificate holds, the cycle is
    built over the screen rows `_reach_rows` picks: then no row is
    repeated and the cycle, its witnesses and errors are those over every
    hull row. On most uniform samples (about 84% at n = 5000) at most
    SEED_ROWS rows can reach X; the picked rows are then the seed rows
    it swept to bound X, and that sweep is X's, so X is swept once.
    Otherwise they are the hull vertices among the rows that can reach
    X, then about 20 of the 57 hull vertices of a uniform sample of 5000,
    and are swept again. When the certificate or the bound fails, X is
    pruned to its hull rows (`X.active`), copies of hull vertices
    included, since X over the sample is X over its hull, and those few
    rows are deduplicated for the cycle, each dropped row paired with its
    first occurrence. The cocircularity screen picks
    its candidate rows from `X.sq`. Arc owners index the original sample,
    at the first occurrence of a repeated row.
    K need not contain the origin.
    """
    K = _require_disk(X.base)
    pts = X.points
    # K.center - pts, a column at a time: the same bits without the broadcast
    centers = np.empty_like(pts)
    for c in range(2):
        np.subtract(K.center[c], pts[:, c], out=centers[:, c])
    reach = _reach_rows(K.radius, centers, X.screen, X.sq)
    dropped: tuple[tuple[int, int], ...] = ()
    if reach is None:
        active, sweep = X.active[_dedupe_rows(pts[X.active])], None
        if active.size < X.active.size:
            kept = pts[active]
            dropped = tuple((int(active[(kept == pts[d]).all(axis=1).argmax()]), int(d))
                            for d in np.setdiff1d(X.active, active))
    else:
        active, sweep = reach
    witnesses: list[DegeneracyWitness] = []
    boundary = error = None
    try:
        # the origin is inside every disk: each sample row is interior to
        # K, and X.sq holds the squared norms of the centers
        arcs, verts = _disk_cycle(K.radius, centers, active, np.zeros(2), witnesses,
                                  X.sq, sweep)
        boundary = ArcBoundary(tuple(arcs), tuple(verts), K.radius)
    except NumericError as exc:
        error = exc
    return _DiskPass(pts, dropped, tuple(witnesses), boundary, error)


def _hull_stage(K: Ball, points: Array,
                xb: ArcBoundary) -> tuple[ArcBoundary, tuple[DegeneracyWitness, ...]]:
    """Hull cycle of a disk sample from its X cycle xb, and the hull-stage
    near-degeneracies, returned rather than warned.

    Every sample row owning an arc of xb must lie on the hull cycle, inside
    all hull disks and on at least one hull circle, and the cycle must have
    one arc per corner of xb; a failure raises NumericError.
    """
    if len(xb.vertices) < 2:
        # X has no corners only when every sample row is the same point.
        return ArcBoundary((), (), K.radius, degenerate_point=points[0]), ()
    vpts = np.array([v.point for v in xb.vertices])
    witnesses: list[DegeneracyWitness] = []
    # a sample row is inside every disk: each corner v of X has x + v in K
    arcs, verts = _disk_cycle(K.radius, K.center[None, :] - vpts, np.arange(vpts.shape[0]),
                              points[0], witnesses)
    d = _pair_dist(points[sorted(xb.arc_owners())], np.array([a.center for a in arcs]))
    # corner placement is O(sqrt(eps))-sensitive; relative to the radius
    tol = math.sqrt(EPS_GEO) * 10 * K.radius
    if np.any(d.min(axis=1) > K.radius + tol) or np.any(np.abs(d - K.radius).min(axis=1) > tol):
        raise NumericError("hull boundary failed the owner-incidence validation")
    if len(arcs) != len(vpts):
        raise NumericError(f"facet count mismatch: {len(arcs)} hull arcs vs {len(vpts)} corners")
    return ArcBoundary(tuple(arcs), tuple(verts), K.radius), tuple(witnesses)


def disk_intersection_boundary(K: ConvexBody, points: Array) -> ArcBoundary:
    """Exact arc-cycle boundary of X = intersection of K - x_i, K a planar disk.

    Sample points are pruned to convex-hull vertices before the corner
    construction, and repeated hull vertices are deduplicated with a
    warning (repeated interior points cannot touch X and pass silently);
    near-degeneracies, within windows relative to the disk radius, raise
    GeneralPositionWarning but the cycle is still returned.
    Arc owners are indices into the original sample, first occurrences for
    repeated rows.
    """
    return _disk_pass(IntersectionBody(_require_disk(K), points)).checked_boundary()


def khull_boundary_2d(K: ConvexBody, points: Array) -> ArcBoundary:
    """Arc-cycle boundary of the hull of the sample with respect to a disk K.

    The hull is the intersection of the translates K - v over all boundary
    points v of X; for equal disks the corner translates suffice because
    every constraint arc subtends less than a half turn. Owners of the
    returned arcs index the corner list of the X boundary. A sample whose
    X boundary has no corners hulls to the single sample point itself.
    Near-degeneracies of either cycle raise GeneralPositionWarning.
    """
    xpass = _disk_pass(IntersectionBody(_require_disk(K), points))
    qb, witnesses = _hull_stage(K, xpass.points, xpass.checked_boundary())
    for w in witnesses:
        warnings.warn("hull stage: " + w.describe(), GeneralPositionWarning, stacklevel=2)
    return qb

