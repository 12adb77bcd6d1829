"""Poisson hyperplane tessellations driven by a body's surface measure,
their zero cells, and the scaled statistics that converge to them.

Hyperplanes {<x, u> = t} carry intensity (1/V_d(K)) dt x S_{d-1}(K, du).
The inversion t, u -> u/t maps the process to a point cloud whose convex
hull is the polar of the zero cell, so cell statistics reduce to hull
statistics of the inverted points.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .body import (ConvexBody, SurfaceMeasureSampler, direction_grid, _radial_min,
                   _radial_volume)
from .errors import DomainError, GeneralPositionWarning, NumericError
from .faces import FVector, TaggedPolytope, tagged_hull_from_points
from .hull import IntersectionBody
from . import faces

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class HyperplaneSample:
    """Truncated draw of the hyperplane process: distances t in (0, T],
    unit normals u, plus the truncation level."""

    body: ConvexBody
    T: float
    t: Array
    u: Array

    @property
    def size(self) -> int:
        return self.t.shape[0]


def sample_hyperplanes(K: ConvexBody, T: float, rng: np.random.Generator,
                       sampler: SurfaceMeasureSampler | None = None) -> HyperplaneSample:
    """Draw the process restricted to distances (0, T]; T is checked as
    `zero_cell` checks T0 (`_layer_mean`), before any draw."""
    if sampler is None:
        sampler = K.surface_sampler()
    rate = _layer_mean(K, sampler, T)
    t, u = _draw_layer(sampler, rate, 0.0, T, rng, K.dim)
    return HyperplaneSample(K, T, t, u)


# The largest mean hyperplane count of the first layer `zero_cell` draws;
# its distances and normals then take about 320 MB in d = 3.
MAX_LAYER_MEAN = 1e7


def _layer_mean(K: ConvexBody, sampler: SurfaceMeasureSampler, T0: float) -> float:
    """T0 * total_mass / volume, the mean hyperplane count of the first
    layer of a zero-cell draw; DomainError unless T0 is finite and positive
    and that mean is at most MAX_LAYER_MEAN."""
    if not 0.0 < T0 < math.inf:
        raise DomainError(f"truncation T0 must be finite and positive, got {T0!r}")
    mean = T0 * sampler.total_mass / K.volume()
    if not mean <= MAX_LAYER_MEAN:
        raise DomainError(f"T0 = {T0!r} puts a mean of {mean:.3g} hyperplanes in the first "
                          f"layer, more than {MAX_LAYER_MEAN:.0e}")
    return mean


def _draw_layer(sampler: SurfaceMeasureSampler, rate: float, lo: float, hi: float,
                rng: np.random.Generator, d: int) -> tuple[Array, Array]:
    """One Poisson layer of hyperplanes with distances in (lo, hi]: the
    count, then the distances, then the normals, in that generator order."""
    n = int(rng.poisson(rate))
    t = rng.uniform(lo, hi, n)
    u = sampler.draw(rng, n) if n else np.empty((0, d))
    return t, u


@dataclass(frozen=True, eq=False)
class ZeroCell:
    """Zero cell Z of a tessellation draw, with its polar hull.

    `bare` is the certified bare hull of the inverted points u/t and `zv`
    the polars of its facets, the vertices of Z (see `zero_cell`). The
    rest is read off them, each on first read and then kept: `dual` is
    the tagged hull, vertex owners being hyperplane indices; `cell` is Z
    itself, whose vertex zv[F], owned by F, polarizes dual facet F: the
    hull of zv in d = 2, read off the dual by polarity in d = 3.
    `fvector()` and `volumes`, all a CSV row reads, come off the bare hull
    without either, with the values and the bits that `dual` and
    `intrinsic_volumes(cell)` give; a d = 3 dual whose triangles qhull
    merged reads them off `dual` and `cell`. A d = 2 cell of fewer than
    `faces.LEFT_SUM_MAX` vertices sums its area and perimeter on the
    Python floats of zv (`faces._cycle_measure`).
    `certified` records that every vertex of Z has norm at most the
    truncation actually explored, so no unsampled hyperplane could cut
    the cell. It is always True: `zero_cell` raises `NumericError` rather
    than return an uncertified cell. The field stays because the
    `certified` CSV column and the benchmark's row check read it.
    """

    bare: faces._BareHull
    zv: Array
    certified: bool
    truncation: float
    n_hyperplanes: int

    @cached_property
    def dual(self) -> TaggedPolytope:
        return faces._tag_hull(self.bare, np.arange(self.n_hyperplanes))

    @cached_property
    def cell(self) -> TaggedPolytope:
        if self.zv.shape[1] == 2 or _merged(self.bare):
            return tagged_hull_from_points(self.zv)
        return _polar_cell(self.bare, self.dual, self.zv)

    def fvector(self) -> FVector:
        """f-vector of Z: the reversed f-vector of the dual hull."""
        nv = self.bare.vertices.size
        if self.zv.shape[1] == 2:
            return (nv, nv)
        if _merged(self.bare):
            return tuple(reversed(self.dual.fvector()))
        # each triangle is a facet and each adjacent pair an edge
        return (self.bare.offsets.size, self.bare.pairs[0].size, nv)

    @cached_property
    def volumes(self) -> IntrinsicVolumes:
        """`intrinsic_volumes(self.cell)`, bit for bit."""
        if self.zv.shape[1] == 2:
            area, perim = faces._cycle_measure(self.zv)
            return IntrinsicVolumes((1.0, 0.5 * perim, area))
        if _merged(self.bare):
            return intrinsic_volumes(self.cell)
        polar = _polar_faces(self.bare, self.zv)
        s, _, t = self.bare.pairs
        v1 = _angle_sum(self.zv, np.column_stack([s, t]), polar.normals, polar.sides)
        return IntrinsicVolumes((1.0, v1 / (2.0 * math.pi), 0.5 * polar.surface,
                                 polar.volume))


def zero_cell(K: ConvexBody, rng: np.random.Generator, T0: float = 5.0,
              sampler: SurfaceMeasureSampler | None = None,
              max_doublings: int = 20) -> ZeroCell:
    """Sample the zero cell, extending the truncation until certified.

    Each extension appends an independent layer with distances in
    (T, 2T]; runs where the inverted points fail to enclose the origin
    are extended the same way, never discarded.

    Each attempt builds only the bare dual hull (its vertices and facet
    planes), which is all the radius test reads. The facet planes are
    those a fully tagged dual would carry, so the verdicts are those of
    tagging every attempt. A planar dual of up to `faces.SHORT_POLYGON`
    vertices is built, tested and polarized in one pass over its Python
    floats (`faces._short_polygon`), with the bits of the array code. The
    certified bare hull is kept, and the tagged dual and the cell are
    built on first read of `dual` and `cell`; a CSV row's f-vector and
    intrinsic volumes need neither (see `ZeroCell`).

    In d = 2 the cell is the hull of zv, which reads no dual. In d = 3
    it is built from the tagged dual by polarity, with no second hull
    (`_polar_cell`): dual facet F = {<a, y> = b} becomes cell vertex
    zv[F] = a/b with owner F, dual vertex p becomes the cell facet
    {<p, x> = 1}, and each dual edge becomes the cell edge between the
    vertices of its two facets. The vertices, owners, edges and facet
    vertex sets are those of the hull of zv, the facets come in
    dual-vertex order with normal p/|p| and offset 1/|p|, and the volume
    and surface are summed over the edges, so they and V_1 differ from
    that hull's in the last bits. `simplices` fans each facet from its
    lowest vertex over its edges. A d = 3 dual whose triangles qhull
    merged as coplanar keeps the hull of zv, since polarity would place
    its cell only to within the merge tolerance.
    """
    if sampler is None:
        sampler = K.surface_sampler()
    layer_rate = _layer_mean(K, sampler, T0)
    d = K.dim

    t, u = _draw_layer(sampler, layer_rate, 0.0, T0, rng, d)
    T = T0
    for _ in range(max_doublings):
        bare = _try_dual_hull(u, t, d)
        if bare is not None:
            zv, radius = _polars(bare)
            if radius <= T:
                break
        # the measure of (T, 2T] is T
        t2, u2 = _draw_layer(sampler, layer_rate * (T / T0), T, 2.0 * T, rng, d)
        t = np.concatenate([t, t2])
        u = np.concatenate([u, u2])
        T *= 2.0
    else:
        raise NumericError(f"zero cell not certified after {max_doublings} extensions")

    return ZeroCell(bare=bare, zv=zv, certified=True, truncation=T,
                    n_hyperplanes=int(t.shape[0]))


def _merged(bare: faces._BareHull) -> bool:
    """Whether qhull merged coplanar triangles of a d = 3 dual hull."""
    return bare.offsets.size < bare.group.size


class _PolarFaces(NamedTuple):
    """The facets of the cell polar to a d = 3 dual with no merged
    triangles, read off the dual (see `zero_cell`)."""

    simplices: Array  # the dual's triangles over its vertices' ranks
    normals: Array    # (V, 3) cell facet p: unit normal p/|p| ...
    offsets: Array    # (V,) ... and offset 1/|p|
    sides: Array      # (E, 2) the cell facets at each cell edge: the dual's edges
    volume: float
    surface: float


def _polar_faces(bare: faces._BareHull, zv: Array) -> _PolarFaces:
    """Facet planes, edge sides, volume and surface of the cell polar to
    a d = 3 bare dual with no merged triangles; zv holds the polars of
    the dual facets."""
    vp = bare.points[bare.vertices]
    inv = 1.0 / faces._rownorm(vp)
    normals = vp * inv[:, None]
    tri = faces._local_simplices(bare)
    # Cell edge i joins zv[s[i]] and zv[t[i]], the dual triangles s < t
    # that meet at dual edge i, which joins the cell facets sides[i].
    s, k, t = bare.pairs
    sides = faces._pair_edges(tri, s, k)
    s, t = np.concatenate([s, s]), np.concatenate([t, t])  # once per side
    side, other = sides.T.ravel(), sides[:, ::-1].T.ravel()
    # Facet p's area is the sum over its edges e of |e| h / 2, h the signed
    # distance in its plane from its foot point p/|p|^2 to the line of e,
    # along the plane's unit normal to e that points across e.
    corner = zv[s]
    diff = zv[t] - corner
    n_in, n_out = normals[side], normals[other]
    across = n_out - faces._rowdot(n_in, n_out)[:, None] * n_in
    h = faces._rowdot(corner - n_in * inv[side][:, None], across) / faces._rownorm(across)
    area = np.bincount(side, weights=0.5 * np.sqrt(faces._rowdot(diff, diff)) * h,
                       minlength=inv.size)
    return _PolarFaces(tri, normals, inv, sides,
                       volume=float(np.add.reduce(area * inv)) / 3.0,
                       surface=float(np.add.reduce(area)))


def _polar_cell(bare: faces._BareHull, dual: TaggedPolytope, zv: Array) -> TaggedPolytope:
    """The cell polar to a certified d = 3 dual hull with no merged
    triangles, read off the dual; zv holds the polars of the dual facets
    (see `zero_cell`)."""
    nf = zv.shape[0]
    polar = _polar_faces(bare, zv)
    nv = polar.offsets.size
    # cell facet p holds the cell vertices of the dual triangles at p
    key = np.sort((polar.simplices * nf + np.arange(nf)[:, None]).ravel())
    verts = (key % nf).tolist()
    ends = np.searchsorted(key, np.arange(1, nv + 1) * nf).tolist()
    starts = [0, *ends[:-1]]
    s, _, t = bare.pairs
    fans = faces._fans(key[starts] % nf, polar.sides.T.ravel(),
                       np.tile(np.column_stack([s, t]), (2, 1)))
    return TaggedPolytope(
        dim=3, points=zv, owners=np.arange(nf),
        facets=tuple(tuple(verts[a:b]) for a, b in zip(starts, ends)),
        facet_normals=polar.normals, facet_offsets=polar.offsets,
        edges=dual.edge_facets, edge_facets=dual.edges,
        simplices=tuple(map(tuple, fans.tolist())),
        volume=polar.volume, surface=polar.surface)


# A dual hull encloses the origin strictly when its smallest facet offset
# exceeds this share of its largest vertex norm.
DUAL_OFFSET_REL = 1e-12


def _try_dual_hull(u: Array, t: Array, d: int) -> faces._BareHull | None:
    """Bare hull of the inverted points if it strictly encloses the origin.

    The smallest facet offset is compared with the hull's own extent, its
    largest vertex norm: both scale as 1/r when K is scaled by r with
    T0 proportional to r, so the verdict does not depend on units. A
    short planar dual brings both from its float pass.
    """
    if t.shape[0] < d + 1:
        return None
    try:
        dual = faces._bare_hull(u / t[:, None])
    except DomainError:
        return None
    if dual.floats is not None:
        extent, low = dual.floats.extent, dual.floats.low
    else:
        extent = float(faces._rownorm(dual.points[dual.vertices]).max())
        low = np.min(dual.offsets)
    if low <= DUAL_OFFSET_REL * extent:
        return None
    return dual


def _polars(dual: faces._BareHull) -> tuple[Array, float]:
    """The polars of the facets of a dual that encloses the origin, the
    cell's vertices, and their largest norm: each facet {<a, y> = b}
    polarizes to a/b. A short planar dual has them from its float pass."""
    if dual.floats is not None:
        return dual.floats.polars, dual.floats.radius
    zv = dual.normals / dual.offsets[:, None]
    return zv, float(faces._rownorm(zv).max())


@dataclass(frozen=True)
class IntrinsicVolumes:
    """(V_0, ..., V_d) normalized so the Steiner polynomial uses unit-ball
    coefficients kappa_{d-j}."""

    values: tuple[float, ...]

    def __getitem__(self, j: int) -> float:
        return self.values[j]


def intrinsic_volumes(P: TaggedPolytope) -> IntrinsicVolumes:
    """Intrinsic volumes of a full-dimensional polytope, d in {2, 3}.

    d=2: (1, perimeter/2, area). d=3: V_1 sums edge length times exterior
    dihedral angle over 2 pi; coplanar triangulation edges contribute
    nothing since their angle vanishes.

    The d = 3 terms are computed over all edges at once but rounded as the
    per-edge loop in `tests/oracles.py` rounds them: each length is the
    square root of the edge's own dot product, each angle is `math.acos`
    of the clipped dot product of its facet normals, and the terms are
    summed left to right in edge order. So V_1 is bit-identical to the
    loop's; `np.arccos` or a pairwise `np.sum` would not be.
    """
    if P.dim == 2:
        return IntrinsicVolumes((1.0, 0.5 * P.surface, P.volume))
    if P.dim != 3:
        raise DomainError("intrinsic volumes are provided for d in {2, 3}")
    v1 = 0.0
    if P.edges:
        v1 = _angle_sum(P.points, np.array(P.edges), P.facet_normals, np.array(P.edge_facets))
    return IntrinsicVolumes((1.0, v1 / (2.0 * math.pi), 0.5 * P.surface, P.volume))


def _angle_sum(points: Array, ends: Array, normals: Array, sides: Array) -> float:
    """Sum over the edges of a d = 3 polytope of length times exterior
    dihedral angle: edge i joins points ends[i] and its facets sides[i]
    have unit normals in `normals`. Rounded as `intrinsic_volumes` says."""
    diff = points[ends[:, 0]] - points[ends[:, 1]]
    length = np.sqrt(faces._rowdot(diff, diff))
    cos = np.clip(faces._rowdot(normals[sides[:, 0]], normals[sides[:, 1]]), -1.0, 1.0)
    angle = np.array(list(map(math.acos, cos.tolist())))
    return float(np.add.accumulate(length * angle)[-1])


def intrinsic_volumes_of_cell(z: ZeroCell) -> IntrinsicVolumes:
    return z.volumes


@dataclass(frozen=True, eq=False)
class ScaledSampleStatistics:
    """Per-sample record: volumes of the n-scaled intersection body, the
    family f-vector, and the inner/outer polygon gap diagnostic."""

    n: int
    volumes: IntrinsicVolumes
    fvector: FVector
    fvector_exact: bool
    outer_gap: float


def scaled_sample_statistics(K: ConvexBody, points: Array, n_scale: int | None = None,
                             directions: int | None = None,
                             fvector_resolution: int = 256) -> ScaledSampleStatistics:
    """Statistics of one sample: intrinsic volumes of n X_n and the family
    f-vector of the sample's hull with respect to K.

    The f-vector is read off X by its body's family route (`faces._family`),
    exact for planar disks. There a failed X cycle raises its NumericError,
    and near-degeneracies of X warn GeneralPositionWarning; V1 and V2 are
    exact too, read off X's arc cycle (`ArcBoundary.measure`), and the
    outer gap is 0.0. Any other X is probed radially on the shared direction
    grid and measured by its inscribed polytope; in d = 2 that polygon is
    the cycle of the radial points in grid order, with the bits of their
    hull. The gap to the outer support-bound polytope is reported as the
    discretization diagnostic.
    """
    X = IntersectionBody(K, points)
    n = X.points.shape[0] if n_scale is None else int(n_scale)
    stats, report = _scaled_statistics(X, n, directions, fvector_resolution)
    if not report.ok:
        warnings.warn(report.describe(), GeneralPositionWarning, stacklevel=2)
    return stats


def _scaled_statistics(X: IntersectionBody, n: int, directions: int | None, fvector_resolution: int
                       ) -> tuple[ScaledSampleStatistics, faces.GeneralPositionReport]:
    """`scaled_sample_statistics` of X's sample scaled by n, and its family's report."""
    family = faces._family(X, fvector_resolution)
    if family.error is not None:
        raise family.error
    if family.exact:
        area, perim = family.report.boundary.measure()
        vols = IntrinsicVolumes((1.0, 0.5 * perim * n, area * n * n))
        gap = 0.0
    else:
        vols, gap = _radial_statistics(X, n, directions)
    return ScaledSampleStatistics(n=n, volumes=vols, fvector=family.fvector,
                                  fvector_exact=family.exact, outer_gap=gap), family.report


def _radial_statistics(X: IntersectionBody, n: int,
                       directions: int | None) -> tuple[IntrinsicVolumes, float]:
    """The intrinsic volumes of the radial polytope of n X, and its gap to
    the outer support-bound polytope."""
    d = X.dim
    if directions is None:
        directions = 512 if d == 2 else 2048
    U = direction_grid(d, directions)
    r = X.radial_batch(U) * n
    P = r[:, None] * U  # in d = 2 counter-clockwise, as the grid runs
    if d == 2:
        area, perim = faces._polygon_measure(P[faces._cycle_order(P)])
        vols = IntrinsicVolumes((1.0, 0.5 * perim, area))
    else:
        vols = intrinsic_volumes(tagged_hull_from_points(P))
    r_out = _radial_min(U, X.outer_support_bound_batch(U) * n)
    return vols, float(_radial_volume(r_out, d) - _radial_volume(r, d))
