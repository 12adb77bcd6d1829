"""Poisson hyperplane tessellations driven by a body's surface measure,
their zero cells, and the scaled statistics that converge to them.

Hyperplanes {<x, u> = t} carry intensity (1/V_d(K)) dt x S_{d-1}(K, du).
The inversion t, u -> u/t maps the process to a point cloud whose convex
hull is the polar of the zero cell, so cell statistics reduce to hull
statistics of the inverted points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (Ball, ConvexBody, SurfaceMeasureSampler, direction_grid, _radial_min,
                   _radial_volume)
from .errors import DomainError, NumericError
from .faces import FVector, TaggedPolytope, tagged_hull_from_points
from .hull import IntersectionBody
from . import faces, hull

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
    """Draw the process restricted to distances (0, T]."""
    if T <= 0.0:
        raise DomainError("truncation T must be positive")
    if sampler is None:
        sampler = K.surface_sampler()
    rate = T * sampler.total_mass / K.volume()
    t, u = _draw_layer(sampler, rate, 0.0, T, rng, K.dim)
    return HyperplaneSample(K, T, t, u)


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

    `dual` is the hull of the inverted points u/t, vertex owners being
    hyperplane indices; `cell` is Z itself, read off the dual by polarity
    (see `zero_cell`): vertex F of Z, owned by F, polarizes dual facet F.
    `certified` records that every vertex of Z has norm at most the
    truncation actually explored, so no unsampled hyperplane could cut
    the cell. It is always True: `zero_cell` raises `NumericError` rather
    than return an uncertified cell. The field stays because the
    `certified` CSV column and the benchmark's row check read it.
    """

    dual: TaggedPolytope
    cell: TaggedPolytope
    certified: bool
    truncation: float
    n_hyperplanes: int

    def fvector(self) -> FVector:
        """f-vector of Z: the reversed f-vector of the dual hull."""
        return tuple(reversed(self.dual.fvector()))


def zero_cell(K: ConvexBody, rng: np.random.Generator, T0: float = 5.0,
              sampler: SurfaceMeasureSampler | None = None,
              max_doublings: int = 20) -> ZeroCell:
    """Sample the zero cell, extending the truncation until certified.

    Each extension appends an independent layer with distances in
    (T, 2T]; runs where the inverted points fail to enclose the origin
    are extended the same way, never discarded.

    Each attempt builds only the bare dual hull (its vertices and facet
    planes), which is all the radius test reads; the certified one is then
    tagged. The facet planes are those a fully tagged dual would carry, so
    the verdicts are those of tagging every attempt.

    The cell is built from the tagged dual by polarity, with no second
    hull (`_polar_cell`): dual facet F = {<a, y> = b} becomes cell vertex
    zv[F] = a/b with owner F, dual vertex p becomes the cell facet
    {<p, x> = 1}, and each dual edge becomes the cell edge between the
    vertices of its two facets. In d = 2 the cell is the cycle zv, with
    the hull order and arithmetic of the hull of zv, so every field is
    that hull's bit for bit; where a turn of the cycle is not strictly
    left, the monotone chain runs instead. In d = 3 the vertices, owners,
    edges and facet vertex sets are those of the hull of zv, the facets
    come in dual-vertex order with normal p/|p| and offset 1/|p|, and
    the volume and surface are summed over the edges, so they and V_1
    differ from that hull's in the last bits. `simplices` fans each facet
    from its lowest vertex over its edges. A d = 3 dual whose triangles
    qhull merged as coplanar keeps the hull of zv, since polarity would
    place its cell only to within the merge tolerance.
    """
    if sampler is None:
        sampler = K.surface_sampler()
    if T0 <= 0.0:
        raise DomainError("truncation T0 must be positive")
    d = K.dim
    layer_rate = T0 * sampler.total_mass / K.volume()

    t, u = _draw_layer(sampler, layer_rate, 0.0, T0, rng, d)
    T = T0
    for _ in range(max_doublings):
        dual = _try_dual_hull(u, t, d)
        if dual is not None:
            # each dual facet {<a,y> = b} polarizes to the cell vertex a/b
            zv = dual.normals / dual.offsets[:, None]
            radius = float(faces._rownorm(zv).max())
            if radius <= T:
                break
        # the measure of (T, 2T] is T
        t2, u2 = _draw_layer(sampler, layer_rate * (T / T0), T, 2.0 * T, rng, d)
        t = np.concatenate([t, t2])
        u = np.concatenate([u, u2])
        T *= 2.0
    else:
        raise NumericError(f"zero cell not certified after {max_doublings} extensions")

    tagged = faces._tag_hull(dual, np.arange(t.shape[0]))
    return ZeroCell(dual=tagged, cell=_polar_cell(dual, tagged, zv),
                    certified=True, truncation=T, n_hyperplanes=int(t.shape[0]))


def _polar_cell(bare: faces._BareHull, dual: TaggedPolytope, zv: Array) -> TaggedPolytope:
    """The cell polar to a certified dual hull, read off the dual; zv
    holds the polars of the dual facets (see `zero_cell`)."""
    if dual.dim == 2:
        return faces._tagged_cycle(zv)
    if bare.offsets.size < bare.group.size:
        return tagged_hull_from_points(zv, owners=np.arange(zv.shape[0]))
    nf = zv.shape[0]
    inv = 1.0 / faces._rownorm(dual.points)
    normals = dual.points * inv[:, None]
    # cell facet p holds the cell vertices of the dual triangles at p
    tri = np.searchsorted(bare.vertices, bare.qhull.simplices)
    key = np.sort((tri * nf + np.arange(nf)[:, None]).ravel())
    verts = (key % nf).tolist()
    ends = np.searchsorted(key, np.arange(1, inv.size + 1) * nf).tolist()
    starts = [0, *ends[:-1]]
    # Cell edge i joins zv[s[i]] and zv[t[i]], the dual triangles s < t
    # that meet at dual edge i, which joins the cell facets sides[i].
    s, _, t = bare.pairs
    s, t = np.concatenate([s, s]), np.concatenate([t, t])  # once per side
    sides = np.array(dual.edges)
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
    fans = faces._fans(key[starts] % nf, side, np.column_stack([s, t]))
    return TaggedPolytope(
        dim=3, points=zv, owners=np.arange(nf),
        facets=tuple(tuple(verts[a:b]) for a, b in zip(starts, ends)),
        facet_normals=normals, facet_offsets=inv,
        edges=dual.edge_facets, edge_facets=dual.edges,
        simplices=tuple(map(tuple, fans.tolist())),
        volume=float(np.add.reduce(area * inv)) / 3.0, surface=float(np.add.reduce(area)))


# A dual hull encloses the origin strictly when its smallest facet offset
# exceeds this share of its largest vertex norm.
DUAL_OFFSET_REL = 1e-12


def _try_dual_hull(u: Array, t: Array, d: int) -> faces._BareHull | None:
    """Bare hull of the inverted points if it strictly encloses the origin.

    The smallest facet offset is compared with the hull's own extent, its
    largest vertex norm: both scale as 1/r when K is scaled by r with
    T0 proportional to r, so the verdict does not depend on units.
    """
    if t.shape[0] < d + 1:
        return None
    try:
        dual = faces._bare_hull(u / t[:, None])
    except DomainError:
        return None
    extent = float(faces._rownorm(dual.points[dual.vertices]).max())
    if np.min(dual.offsets) <= DUAL_OFFSET_REL * extent:
        return None
    return dual


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
        ends = np.array(P.edges)
        sides = np.array(P.edge_facets)
        diff = P.points[ends[:, 0]] - P.points[ends[:, 1]]
        length = np.sqrt(faces._rowdot(diff, diff))
        cos = np.clip(faces._rowdot(P.facet_normals[sides[:, 0]],
                                    P.facet_normals[sides[:, 1]]), -1.0, 1.0)
        angle = np.array(list(map(math.acos, cos.tolist())))
        v1 = float(np.add.accumulate(length * angle)[-1])
    return IntrinsicVolumes((1.0, v1 / (2.0 * math.pi), 0.5 * P.surface, P.volume))


def intrinsic_volumes_of_cell(z: ZeroCell) -> IntrinsicVolumes:
    return intrinsic_volumes(z.cell)


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

    X_n is probed radially on the shared direction grid and measured by its
    inscribed polytope; in d = 2 that polygon is the cycle of the radial
    points in grid order, with the bits of their hull. The gap to the
    outer support-bound polytope is reported as the discretization
    diagnostic. The f-vector uses the exact arc pipeline for planar disks
    and the tagged polar hull otherwise.
    """
    X = IntersectionBody(K, points)
    n = X.points.shape[0] if n_scale is None else int(n_scale)
    d = K.dim
    if directions is None:
        directions = 512 if d == 2 else 2048
    U = direction_grid(d, directions)
    r = X.radial_batch(U) * n
    P = r[:, None] * U  # in d = 2 counter-clockwise, as the grid runs
    inner = faces._tagged_cycle(P) if d == 2 else tagged_hull_from_points(P)
    vols = intrinsic_volumes(inner)
    r_out = _radial_min(U, X.outer_support_bound_batch(U) * n)
    gap = _radial_volume(r_out, d) - _radial_volume(r, d)

    # both f-vector routes read X's hull rows; the sample is pruned once
    exact = isinstance(K, Ball) and d == 2
    if exact:
        fv = faces.fvector_exact_2d(hull._disk_pass(X).checked_boundary())
    else:
        fv = faces.fvector_from_tagged_hull(faces._polar_hull(X, fvector_resolution))
    return ScaledSampleStatistics(n=n, volumes=vols, fvector=fv,
                                  fvector_exact=exact, outer_gap=float(gap))
