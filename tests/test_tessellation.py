import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.stats import ks_2samp

import oracles
from khull import (Ball, DomainError, Ellipsoid, NumericError, PNormBall, Polytope,
                   direction_grid, kappa, intrinsic_volumes, intrinsic_volumes_of_cell,
                   sample_hyperplanes, scaled_sample_statistics,
                   tagged_hull_from_points, uniform_sample, zero_cell)
from khull import faces, tessellation
from khull.experiments import _replicate_rng
from khull.body import _radial_min
from khull.hull import IntersectionBody
from khull.tessellation import _draw_layer, _try_dual_hull

TRIANGLE = Polytope([[-1.0, -1.0], [2.0, -0.5], [0.0, 1.5]])


class TestSampleHyperplanes:
    def test_nonpositive_truncation_rejected(self, unit_disk, rng):
        with pytest.raises(DomainError):
            sample_hyperplanes(unit_disk, 0.0, rng)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 1e300, 0.0, -1.0])
    def test_bad_truncation_rejected_before_any_draw(self, unit_disk, T):
        # T is checked as zero_cell checks T0, so a NaN, infinite or huge
        # T fails with DomainError rather than in the Poisson draw
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            sample_hyperplanes(unit_disk, T, rng)
        assert rng.bit_generator.state == state

    def test_sample_shape(self, unit_disk, rng):
        s = sample_hyperplanes(unit_disk, 10.0, rng)
        assert s.size == s.t.shape[0] == s.u.shape[0]
        assert np.all(s.t > 0.0) and np.all(s.t <= 10.0)
        np.testing.assert_allclose(np.linalg.norm(s.u, axis=1), 1.0,
                                   atol=1e-12)

    def test_disk_rate_two_per_unit_length(self, unit_disk, rng):
        # perimeter over area = 2pi/pi = 2, so E[N] = 2T
        counts = np.array([sample_hyperplanes(unit_disk, 10.0, rng).size
                           for _ in range(10_000)])
        se = math.sqrt(20.0 / counts.size)
        assert abs(counts.mean() - 20.0) <= 3.0 * se

    def test_square_rate_and_atomic_normals(self, square, rng):
        counts = []
        for _ in range(10_000):
            s = sample_hyperplanes(square, 5.0, rng)
            counts.append(s.size)
            if s.size:
                aligned = np.isclose(np.abs(s.u), 1.0) | np.isclose(s.u, 0.0)
                assert np.all(aligned.all(axis=1))
        counts = np.asarray(counts)
        se = math.sqrt(10.0 / counts.size)
        assert abs(counts.mean() - 10.0) <= 3.0 * se

    def test_uniform_offsets(self, unit_disk, rng):
        t = np.concatenate([sample_hyperplanes(unit_disk, 4.0, rng).t
                            for _ in range(2000)])
        frac = float(np.mean(t < 2.0))
        assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(t.size)


class TestZeroCell:
    def test_nonpositive_t0_rejected(self, unit_disk, rng):
        with pytest.raises(DomainError):
            zero_cell(unit_disk, rng, T0=-1.0)

    @pytest.mark.parametrize("T0", [math.nan, math.inf, 1e17, 1e300])
    def test_unusable_t0_rejected_before_any_draw(self, unit_disk, unit_ball3, T0):
        # NaN and inf are no truncation; 1e17 and 1e300 would put about
        # 2e17 and 2e300 hyperplanes in the first layer
        for K in (unit_disk, unit_ball3):
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            with pytest.raises(DomainError, match="T0"):
                zero_cell(K, rng, T0=T0)
            assert rng.bit_generator.state == state

    def test_first_layer_mean_bound(self, unit_disk):
        # the disk's layer mean is 2 T0 / r: T0 = 5e6 is the largest allowed
        sampler = unit_disk.surface_sampler()
        assert tessellation._layer_mean(unit_disk, sampler, 5.0) == 10.0
        assert tessellation._layer_mean(unit_disk, sampler, 5e6) == tessellation.MAX_LAYER_MEAN
        with pytest.raises(DomainError):
            tessellation._layer_mean(unit_disk, sampler, 5.000001e6)

    def test_certification_exhaustion(self, unit_disk, rng):
        with pytest.raises(NumericError):
            zero_cell(unit_disk, rng, T0=1e-6, max_doublings=0)

    def test_reversal_and_constraints_2d(self, unit_disk, rng):
        for _ in range(50):
            z = zero_cell(unit_disk, rng, T0=5.0)
            assert z.certified
            f_cell = z.cell.fvector()
            f_dual = z.dual.fvector()
            assert z.fvector() == f_cell == tuple(reversed(f_dual))
            assert z.cell.euler_ok() and z.dual.euler_ok()
            # origin strictly inside
            assert z.cell.facet_offsets.min() > 0.0
            # every cell vertex honors every sampled halfspace <a,p> <= 1
            prods = z.cell.points @ z.dual.points.T
            assert prods.max() <= 1.0 + 1e-9
            # truncation certificate is the real thing
            norms = np.linalg.norm(z.cell.points, axis=1)
            assert norms.max() <= z.truncation + 1e-12

    def test_reversal_3d(self, unit_ball3, rng):
        for _ in range(20):
            z = zero_cell(unit_ball3, rng, T0=5.0)
            v, e, f = z.cell.fvector()
            assert v - e + f == 2
            assert z.fvector() == tuple(reversed(z.dual.fvector()))
            prods = z.cell.points @ z.dual.points.T
            assert prods.max() <= 1.0 + 1e-9

    def test_facets_lie_on_sampled_hyperplanes(self, unit_disk, rng):
        z = zero_cell(unit_disk, rng, T0=5.0)
        # each dual vertex u/t supports one cell facet at distance t
        for p in z.dual.points:
            t = 1.0 / np.linalg.norm(p)
            u = p * t
            touching = np.isclose(z.cell.points @ u, t, atol=1e-9).sum()
            assert touching == 2

    def test_disk_mean_vertex_count(self, unit_disk):
        rng = np.random.default_rng(7)
        f0 = np.array([zero_cell(unit_disk, rng, T0=5.0).fvector()[0]
                       for _ in range(1500)])
        se = f0.std(ddof=1) / math.sqrt(f0.size)
        assert abs(f0.mean() - math.pi ** 2 / 2.0) <= 3.0 * se

    def test_ball3_mean_vertex_count(self, unit_ball3):
        rng = np.random.default_rng(11)
        f0 = np.array([zero_cell(unit_ball3, rng, T0=5.0).fvector()[0]
                       for _ in range(400)])
        se = f0.std(ddof=1) / math.sqrt(f0.size)
        assert abs(f0.mean() - 4.0 * math.pi ** 2 / 3.0) <= 3.0 * se

    def test_square_cell_is_always_a_box(self, square):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = zero_cell(square, rng, T0=5.0)
            assert z.fvector()[0] == 4

    def test_triangle_cell_is_always_a_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = zero_cell(TRIANGLE, rng, T0=5.0)
            assert z.fvector()[0] == 3

    def test_layering_invariance_ks(self, unit_disk):
        rng = np.random.default_rng(13)
        samples = {
            T0: np.array([zero_cell(unit_disk, rng, T0=T0).fvector()[0]
                          for _ in range(10_000)])
            for T0 in (2.0, 5.0, 10.0)
        }
        for a, b in ((2.0, 5.0), (5.0, 10.0), (2.0, 10.0)):
            stat = ks_2samp(samples[a], samples[b]).statistic
            assert stat < 0.05

    def test_scale_free_vertex_count(self, unit_disk):
        rng = np.random.default_rng(17)
        big = Ball(2.0, np.zeros(2))
        f_small = np.array([zero_cell(unit_disk, rng, T0=5.0).fvector()[0]
                            for _ in range(800)])
        f_big = np.array([zero_cell(big, rng, T0=5.0).fvector()[0]
                          for _ in range(800)])
        se = math.hypot(f_small.std(ddof=1) / math.sqrt(f_small.size),
                        f_big.std(ddof=1) / math.sqrt(f_big.size))
        assert abs(f_small.mean() - f_big.mean()) <= 3.0 * se

    def test_certification_is_scale_free(self):
        # K scaled by r with T0 = 5r draws the same layers scaled by r, so
        # the same cells must certify; at r = 1e13 an absolute window on
        # the dual's offsets (about 1e-14 there) never lets a cell certify
        rows = {}
        for r, T0 in ((1e-6, 5e-6), (1.0, 5.0), (1e6, 5e6), (1e11, 5e11), (1e13, 5e13)):
            K = Ball(r, np.zeros(2))
            cells = [zero_cell(K, np.random.default_rng(s), T0=T0, max_doublings=8)
                     for s in range(50)]
            assert all(z.certified for z in cells)
            rows[r] = [(z.fvector(), z.n_hyperplanes, z.truncation / T0) for z in cells]
        for r in rows:
            assert rows[r] == rows[1.0], r


def _attempts(K, seeds, T0, layers):
    """The inverted point clouds a zero-cell loop would test: a first layer
    at (0, T0], then `layers - 1` doublings, for each seed."""
    sampler = K.surface_sampler()
    rate = T0 * sampler.total_mass / K.volume()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        t, u = _draw_layer(sampler, rate, 0.0, T0, rng, K.dim)
        T = T0
        for _ in range(layers):
            yield u, t
            t2, u2 = _draw_layer(sampler, rate * (T / T0), T, 2.0 * T, rng, K.dim)
            t, u = np.concatenate([t, t2]), np.concatenate([u, u2])
            T *= 2.0


def _tagged_verdict(u, t, d):
    """Certification read off a fully tagged dual: None when the hull is
    degenerate or fails to enclose the origin, else the cell radius."""
    if t.shape[0] < d + 1:
        return None
    try:
        dual = oracles.tagged_hull(u / t[:, None])
    except DomainError:
        return None
    extent = float(np.max(np.linalg.norm(dual.points, axis=1)))
    if np.min(dual.facet_offsets) <= tessellation.DUAL_OFFSET_REL * extent:
        return None
    return float(np.max(np.linalg.norm(dual.facet_normals / dual.facet_offsets[:, None], axis=1)))


# Bodies of the zero-cell reference test, with T0 proportional to their size.
ROTATION = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
REFERENCE_BODIES = {
    "disk": (Ball(1.0, np.zeros(2)), 1.0),
    "ball3": (Ball(1.0, np.zeros(3)), 1.0),
    "ellipse": (Ellipsoid([2.0, 1.0], np.zeros(2)), 1.0),
    "ball3-r1e-6": (Ball(1e-6, np.zeros(3)), 1e-6),
    "ball3-r1e6": (Ball(1e6, np.zeros(3)), 1e6),
    "ellipsoid3-rotated": (Ellipsoid([1.5, 1.0, 0.7], [3.0, -2.0, 0.5], ROTATION), 1.0),
}


def assert_polar_cell(cell, zv):
    """A d = 3 cell built by polarity against the hull of its vertices zv:
    the same vertices and owners bit for bit, the same f-vector, facet
    vertex sets and edges, and volumes equal to rounding."""
    ref = oracles.tagged_hull(zv)
    for name in ("points", "owners"):
        a, b = getattr(cell, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert cell.fvector() == ref.fvector()
    assert set(cell.facets) == set(ref.facets)
    assert set(cell.edges) == set(ref.edges)
    # facets pair up by vertex set; each edge joins the same two facets
    facet_of = {f: g for g, f in enumerate(ref.facets)}
    rename = [facet_of[f] for f in cell.facets]
    ref_sides = dict(zip(ref.edges, ref.edge_facets))
    for e, (g1, g2) in zip(cell.edges, cell.edge_facets):
        assert sorted((rename[g1], rename[g2])) == list(ref_sides[e])
    for got, want in ((cell.volume, ref.volume), (cell.surface, ref.surface),
                      (intrinsic_volumes(cell)[1], intrinsic_volumes(ref)[1])):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # the simplices fan every facet: k - 2 triangles on a k-gon
    assert len(cell.simplices) == sum(len(f) - 2 for f in cell.facets)
    assert all(any(set(s) <= set(f) for f in cell.facets) for s in cell.simplices)


class TestBareCertification:
    @pytest.mark.parametrize("K, seeds, T0", [
        (Ball(1.0, np.zeros(2)), range(150), 0.5),
        (Ball(1.0, np.zeros(3)), range(80), 1.0),
        (Ellipsoid([2.0, 1.0], np.zeros(2)), range(120), 0.5),
    ], ids=["disk", "ball3", "ellipse"])
    def test_bare_verdict_matches_tagged_dual(self, K, seeds, T0):
        # 2100 attempts in all, from clouds too small to enclose the origin
        # to clouds of about a hundred points
        verdicts = []
        for u, t in _attempts(K, seeds, T0, layers=6):
            bare = _try_dual_hull(u, t, K.dim)
            want = _tagged_verdict(u, t, K.dim)
            if bare is None:
                assert want is None
            else:
                got = float(np.max(np.linalg.norm(bare.normals / bare.offsets[:, None], axis=1)))
                assert got == want
            verdicts.append(want is None)
        assert len(verdicts) >= 400 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("K, T0", REFERENCE_BODIES.values(), ids=REFERENCE_BODIES.keys())
    def test_dual_and_cell_match_references(self, K, T0, monkeypatch):
        clouds = []

        def recording(u, t, d):
            clouds.append(u / t[:, None])
            return _try_dual_hull(u, t, d)

        monkeypatch.setattr(tessellation, "_try_dual_hull", recording)
        rng = np.random.default_rng(41)
        for _ in range(15):
            z = zero_cell(K, rng, T0=T0)
            dual = oracles.tagged_hull(clouds[-1])
            oracles.assert_same_polytope(z.dual, dual)
            zv = dual.facet_normals / dual.facet_offsets[:, None]
            if K.dim == 2 or len(z.dual.facets) < len(z.dual.simplices):
                # a d = 3 dual with merged triangles keeps the hull of zv
                oracles.assert_same_polytope(z.cell, oracles.tagged_hull(zv))
            else:
                assert_polar_cell(z.cell, zv)
            if K.dim == 3:
                assert intrinsic_volumes_of_cell(z)[1] == oracles.intrinsic_v1_3d(z.cell)

    def test_merged_dual_keeps_hull_of_polar_vertices(self, unit_ball3):
        # qhull merges two of this dual's triangles as coplanar
        z = zero_cell(unit_ball3, np.random.default_rng(390), T0=5.0)
        assert len(z.dual.facets) < len(z.dual.simplices)
        zv = z.dual.facet_normals / z.dual.facet_offsets[:, None]
        oracles.assert_same_polytope(z.cell, oracles.tagged_hull(zv))

    def test_vertex_inside_merged_facet_is_dropped(self, unit_ball3):
        # master seed 2639, job 0: a dual vertex lies in three triangles of
        # one merged facet and on no edge; the dual read (7, 12, 8)
        rng, _ = _replicate_rng(2639, 0)
        z = zero_cell(unit_ball3, rng, T0=5.0)
        assert z.dual.fvector() == (6, 12, 8) and z.dual.euler_ok()
        assert z.fvector() == z.cell.fvector() == (8, 12, 6)
        assert all(len(f) == 3 for f in z.dual.facets)
        assert len(z.dual.simplices) == 8

    @staticmethod
    def _reference_cells():
        """Fifteen cells of each reference body, the merged dual of seed
        390 and the lone-vertex dual of master seed 2639, job 0."""
        for K, T0 in REFERENCE_BODIES.values():
            rng = np.random.default_rng(41)
            for _ in range(15):
                yield zero_cell(K, rng, T0=T0)
        ball3 = REFERENCE_BODIES["ball3"][0]
        yield zero_cell(ball3, np.random.default_rng(390), T0=5.0)
        yield zero_cell(ball3, _replicate_rng(2639, 0)[0], T0=5.0)

    def test_row_fields_match_dual_and_cell(self):
        merged = 0
        for z in self._reference_cells():
            vols, fv = z.volumes, z.fvector()
            built = {"dual", "cell"} & set(vars(z))
            # only a merged d = 3 dual reads its row off the dual and the cell
            is_merged = z.zv.shape[1] == 3 and tessellation._merged(z.bare)
            assert built == ({"dual", "cell"} if is_merged else set())
            merged += is_merged
            want = intrinsic_volumes(z.cell)
            assert np.array(vols.values).tobytes() == np.array(want.values).tobytes()
            assert intrinsic_volumes_of_cell(z) is vols
            assert fv == tuple(reversed(z.dual.fvector()))
        assert merged == 2

    @staticmethod
    def _counted(monkeypatch, module, name):
        calls = []
        build = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_simplicial_dual_cell_builds_no_hull(self, unit_disk, unit_ball3, monkeypatch):
        # a d = 2 cell is the one hull of zv and reads no dual
        hulls = self._counted(monkeypatch, tessellation, "tagged_hull_from_points")
        seen = set()
        # small T0: most cells extend; the seed 390 cell has a merged dual
        for K, seed, T0, cells in ((unit_disk, 3, 0.5, 20), (unit_ball3, 3, 0.5, 20),
                                   (unit_ball3, 390, 5.0, 1)):
            rng = np.random.default_rng(seed)
            for _ in range(cells):
                hulls.clear()
                z = zero_cell(K, rng, T0=T0)
                z.cell  # built on first read
                assert ("dual" in vars(z)) == (K.dim == 3 and not tessellation._merged(z.bare))
                merged = K.dim == 3 and len(z.dual.facets) < len(z.dual.simplices)
                assert len(hulls) == (merged or K.dim == 2)
                seen.add(merged)
        assert seen == {False, True}

    def test_one_bare_hull_per_attempt(self, unit_disk, unit_ball3, monkeypatch):
        attempts = self._counted(monkeypatch, tessellation, "_try_dual_hull")
        bare = self._counted(monkeypatch, faces, "_bare_hull")
        extended = 0
        for K in (unit_disk, unit_ball3):
            rng = np.random.default_rng(3)
            for _ in range(20):
                attempts.clear()
                bare.clear()
                z = zero_cell(K, rng, T0=0.5)
                if len(z.dual.facets) < len(z.dual.simplices):
                    continue  # its cell is a hull of its own
                # an attempt with fewer than d + 1 hyperplanes builds nothing
                assert len(bare) == sum(t.shape[0] > K.dim for _, t, _ in attempts)
                extended += len(attempts) > 1
        assert extended >= 10


class TestPlanarFloatPass:
    @pytest.mark.parametrize("K", [
        Ball(1.0, np.zeros(2)), Ellipsoid([2.0, 1.0], np.zeros(2)),
        Ball(1e-3, np.array([5.0, -3.0])),
        Polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    ], ids=["disk", "ellipse", "small-off-centre-disk", "square"])
    def test_cells_match_array_route(self, K, monkeypatch):
        # the float pass of each certification attempt and the float sums
        # of the volumes against the array code, on the same draws: every
        # verdict, vertex and volume bit for bit
        sampler = K.surface_sampler()
        T0 = 5.0 * (K.radius if isinstance(K, Ball) else 1.0)

        def cells():
            rng = np.random.default_rng(17)
            out = []
            for _ in range(150):
                z = zero_cell(K, rng, T0=T0, sampler=sampler)
                out.append((z.truncation, z.n_hyperplanes, z.fvector(), z.zv.tobytes(),
                            np.array(z.volumes.values).tobytes(), z.bare.vertices.tobytes()))
            return out

        got = cells()
        with monkeypatch.context() as m:
            m.setattr(faces, "SHORT_POLYGON", 2)
            m.setattr(faces, "LEFT_SUM_MAX", 0)
            want = cells()
        assert got == want


class TestIntrinsicVolumes:
    def test_unit_square(self):
        T = tagged_hull_from_points(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        v = intrinsic_volumes(T)
        assert v[0] == pytest.approx(1.0, abs=1e-12)
        assert v[1] == pytest.approx(2.0, abs=1e-12)
        assert v[2] == pytest.approx(1.0, abs=1e-12)

    def test_unit_cube(self):
        corners = np.array([[x, y, z] for x in (0.0, 1.0)
                            for y in (0.0, 1.0) for z in (0.0, 1.0)])
        v = intrinsic_volumes(tagged_hull_from_points(corners))
        for j, want in enumerate((1.0, 3.0, 3.0, 1.0)):
            assert v[j] == pytest.approx(want, abs=1e-9)

    def test_thin_rectangle_approaches_segment(self):
        length, width = 2.3, 1e-6
        T = tagged_hull_from_points(
            np.array([[0.0, 0.0], [length, 0.0], [length, width],
                      [0.0, width]]))
        v = intrinsic_volumes(T)
        assert v[1] == pytest.approx(length, abs=1e-5)
        assert v[2] == pytest.approx(length * width, rel=1e-9)

    def test_monotone_under_inclusion(self, rng):
        inner = oracles.random_polytope(rng, 2, 8)
        outer = 2.0 * inner
        vi = intrinsic_volumes(tagged_hull_from_points(inner))
        vo = intrinsic_volumes(tagged_hull_from_points(outer))
        assert all(vi[j] <= vo[j] + 1e-12 for j in range(3))

    def test_zero_cell_volumes(self, unit_disk, rng):
        z = zero_cell(unit_disk, rng, T0=5.0)
        v = intrinsic_volumes_of_cell(z)
        assert v[0] == 1.0
        assert v[1] > 0.0 and v[2] > 0.0

    def test_steiner_formula_d2(self, rng):
        for _ in range(10):
            P = oracles.random_polytope(rng, 2, 9)
            v = intrinsic_volumes(tagged_hull_from_points(P))
            for r in (0.1, 0.2, 0.4):
                mc, se = oracles.mc_dilated_volume(P, r, 40_000, rng)
                steiner = sum(kappa(2 - j) * r ** (2 - j) * v[j]
                              for j in range(3))
                assert abs(mc - steiner) <= 3.0 * se

    def test_steiner_formula_d3(self, rng):
        for _ in range(10):
            P = oracles.random_polytope(rng, 3, 10)
            v = intrinsic_volumes(tagged_hull_from_points(P))
            for r in (0.1, 0.2, 0.4):
                mc, se = oracles.mc_dilated_volume(P, r, 25_000, rng)
                steiner = sum(kappa(3 - j) * r ** (3 - j) * v[j]
                              for j in range(4))
                assert abs(mc - steiner) <= 3.0 * se


class TestScaledSampleStatistics:
    def test_single_point_scaling(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 1, rng) * 0.5
        stats = scaled_sample_statistics(unit_disk, pts)
        # X is a full disk translate; inscribed polygon area within rel 1e-3
        assert stats.n == 1
        assert stats.volumes[2] == pytest.approx(math.pi, rel=1e-3)
        assert stats.fvector == (1, 0)
        assert stats.outer_gap >= 0.0

    def test_explicit_scale_override(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 5, rng) * 0.9
        base = scaled_sample_statistics(unit_disk, pts, n_scale=1)
        scaled = scaled_sample_statistics(unit_disk, pts, n_scale=7)
        assert scaled.volumes[1] == pytest.approx(7.0 * base.volumes[1],
                                                  rel=1e-9)
        assert scaled.volumes[2] == pytest.approx(49.0 * base.volumes[2],
                                                  rel=1e-9)
        assert scaled.fvector == base.fvector

    def test_volume_scales_with_sample_size(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 30, rng) * 0.9
        stats = scaled_sample_statistics(unit_disk, pts)
        assert stats.n == 30
        assert stats.fvector_exact
        f0, f1 = stats.fvector
        assert f0 == f1 >= 2
        assert stats.outer_gap >= 0.0
        assert stats.outer_gap < 0.05 * stats.volumes[2]

    def test_ball3_approximate_path(self, unit_ball3, rng):
        pts = uniform_sample(unit_ball3, 12, rng) * 0.9
        stats = scaled_sample_statistics(unit_ball3, pts)
        assert not stats.fvector_exact
        assert len(stats.fvector) == 3
        assert stats.volumes[3] > 0.0


SQUARE = Polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
# A disk pair near the rim's opposite ends: X is a thin lens.
LENS = np.array([[0.999, 1e-4], [-0.999, -2e-4]])


class TestRadialPolygon:
    """The d = 2 radial polygon of `scaled_sample_statistics`, which measures
    every planar X but a disk's, is measured in the grid's counter-clockwise
    cycle order (`_cycle_order`); V1 and V2 must be those of the monotone
    chain's hull of the same points, bit for bit. A disk's X is measured on
    its arc cycle instead, with no radial probe and no polygon."""

    @staticmethod
    def both_routes(K, pts, monkeypatch):
        starts, polygons = [], []
        find, order = faces._cycle_start, faces._cycle_order

        def recording(points):
            starts.append(find(points))
            return starts[-1]

        def ordering(points):
            polygons.append(points)
            return order(points)

        with monkeypatch.context() as m:
            m.setattr(faces, "_cycle_start", recording)
            m.setattr(faces, "_cycle_order", ordering)
            got = scaled_sample_statistics(K, pts).volumes
        assert len(starts) == len(polygons) == 1
        want = oracles.tagged_hull(polygons[0])
        assert (got[1], got[2]) == (0.5 * want.surface, want.volume)
        return starts[0] is None

    @staticmethod
    def exact_route(K, pts, monkeypatch):
        def unread(*args):
            raise AssertionError("the exact route reads no radial probe or polygon")

        with monkeypatch.context() as m:
            for name in ("radial_batch", "outer_support_bound_batch"):
                m.setattr(IntersectionBody, name, unread)
            m.setattr(faces, "_cycle_order", unread)
            stats = scaled_sample_statistics(K, pts)
        area, perim = faces._family(IntersectionBody(K, pts), 256).report.boundary.measure()
        n = pts.shape[0]
        assert stats.volumes.values == (1.0, 0.5 * perim * n, area * n * n)
        assert stats.outer_gap == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 2000])
    def test_disk(self, unit_disk, n, monkeypatch):
        rng = np.random.default_rng(n)
        for _ in range(3):
            self.exact_route(unit_disk, uniform_sample(unit_disk, n, rng), monkeypatch)

    def test_lens(self, unit_disk, monkeypatch):
        self.exact_route(unit_disk, LENS, monkeypatch)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 2000])
    def test_ellipse(self, ellipse21, n, monkeypatch):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert not self.both_routes(ellipse21, uniform_sample(ellipse21, n, rng),
                                        monkeypatch)

    @pytest.mark.parametrize("K", [SQUARE, TRIANGLE, PNormBall(8.0, 1.0, np.zeros(2))],
                             ids=["square", "triangle", "pball8"])
    def test_collinear_radial_points_fall_back(self, K, monkeypatch):
        # flat sides put consecutive radial points on one line, where the
        # chain drops the middle ones; the p-ball is flat only to rounding
        rng = np.random.default_rng(6)
        fell = [self.both_routes(K, uniform_sample(K, n, rng), monkeypatch)
                for n in (1, 10, 2000)]
        assert all(fell) if isinstance(K, Polytope) else any(fell)


# Bodies whose outer support bounds feed `_radial_min`, at both grid sizes.
RADIAL_BODIES = {
    "disk": Ball(1.0, np.zeros(2)),
    "ellipse": Ellipsoid([2.0, 1.0], np.zeros(2)),
    "square": SQUARE,
    "small-off-centre-disk": Ball(0.1, np.array([0.3, 0.2])),
    "ball3": Ball(1.0, np.zeros(3)),
    "off-centre-ellipsoid3": Ellipsoid([2.0, 1.0, 0.5], [0.5, -0.2, 0.1]),
    "cube": Polytope([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                      for z in (-1.0, 1.0)]),
}


class TestRadialMin:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [8, 64, 512, 2048])
    def test_matches_full_table(self, d, m):
        U = direction_grid(d, m)
        rng = np.random.default_rng(10 * m + d)
        for scale in (1.0, 2000.0):
            for _ in range(3):
                h = scale * rng.uniform(0.2, 1.8, m)
                assert np.array_equal(_radial_min(U, h), oracles.full_radial_min(U, h))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 500])
    @pytest.mark.parametrize("name", RADIAL_BODIES)
    def test_outer_bounds_match_full_table(self, name, n):
        K = RADIAL_BODIES[name]
        U = direction_grid(K.dim, 512 if K.dim == 2 else 2048)
        rng = np.random.default_rng(n)
        for _ in range(3):
            h = IntersectionBody(K, uniform_sample(K, n, rng)).outer_support_bound_batch(U) * n
            got, want = _radial_min(U, h), oracles.full_radial_min(U, h)
            if n >= 100:
                assert np.array_equal(got, want)
            else:
                # qhull sorts vertices from interior points to within its
                # rounding tolerance, and few sample points leave many
                # points of Q = conv{u_k / h_k} that close to its boundary
                # (all of them at n = 1 on the disk and the ball). A point
                # dropped there is the table's least ratio only by a tie
                # within rounding, so the helper may read a tied vertex's
                # ratio, a last bit or two higher. No sample tried so far
                # has differed.
                assert np.all(got >= want)
                assert np.all(got - want <= 2.0 * np.spacing(want))

    def test_no_block_of_one_row(self):
        # this sample's Q has 33 vertices at m = 2048, one more than a block
        # of 2^16 entries holds; alone in a block of its own, the last one's
        # dots came from a matrix-vector product, 1 ulp off in 4 directions
        K = RADIAL_BODIES["off-centre-ellipsoid3"]
        U = direction_grid(3, 2048)
        rng = np.random.default_rng(100)
        for _ in range(24):
            pts = uniform_sample(K, 100, rng)
        h = IntersectionBody(K, pts).outer_support_bound_batch(U) * 100
        assert ConvexHull(U / h[:, None]).vertices.size == 33
        assert np.array_equal(_radial_min(U, h), oracles.full_radial_min(U, h))

    @pytest.mark.parametrize("m", [512, 2048])
    @pytest.mark.parametrize("K", [Ellipsoid([2.0, 1.0], np.zeros(2)),
                                   PNormBall(4.0, 1.0, np.zeros(2)),
                                   Ellipsoid([2.0, 1.0, 0.5], np.zeros(3)),
                                   PNormBall(4.0, 1.0, np.zeros(3))],
                             ids=["ellipse", "pball4", "ellipsoid3", "pball4-3"])
    def test_support_curves_match_full_table(self, K, m):
        # u_k / h(K, u_k) lies on the boundary of the polar of K, so every
        # point of Q is a vertex and the whole table is read in blocks
        U = direction_grid(K.dim, m)
        h = K.support_batch(U)
        assert ConvexHull(U / h[:, None]).vertices.size == m
        assert np.array_equal(_radial_min(U, h), oracles.full_radial_min(U, h))

    @pytest.mark.parametrize("d, m", [(2, 64), (3, 64)])
    def test_unbounded_region_raises(self, d, m):
        h = np.full(m, np.inf)
        with pytest.raises(NumericError):
            _radial_min(direction_grid(d, m), h)
        with pytest.raises(NumericError):
            oracles.full_radial_min(direction_grid(d, m), h)
