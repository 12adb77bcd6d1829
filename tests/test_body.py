import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import oracles
from conftest import all_kinds_2d, smooth_kinds_2d
from khull import (Ball, DomainError, Ellipsoid, PNormBall, Polytope,
                   UnsupportedKindError, direction_grid, kappa, sphere_area,
                   uniform_sample)

ROOT2 = math.sqrt(2.0)


def unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


class TestConstruction:
    def test_ball_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            Ball(0.0, np.zeros(2))
        with pytest.raises(DomainError):
            Ball(-1.0, np.zeros(2))

    def test_ellipsoid_rejects_bad_axes_and_rotation(self):
        with pytest.raises(DomainError):
            Ellipsoid([2.0, 0.0], np.zeros(2))
        with pytest.raises(DomainError):
            Ellipsoid([2.0, 1.0], np.zeros(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_pball_exponent_range(self):
        with pytest.raises(DomainError):
            PNormBall(1.0, 1.0, np.zeros(2))
        with pytest.raises(DomainError):
            PNormBall(math.inf, 1.0, np.zeros(2))

    def test_polytope_rejects_lower_dimensional_input(self):
        with pytest.raises(DomainError):
            Polytope([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

    def test_constants(self):
        assert kappa(2) == pytest.approx(math.pi, abs=1e-15)
        assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-15)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, abs=1e-15)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, abs=1e-15)

    def test_direction_grid_rows_are_unit(self):
        for d, m in ((2, 64), (3, 257)):
            U = direction_grid(d, m)
            assert U.shape == (m, d)
            np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
        with pytest.raises(DomainError):
            direction_grid(4, 16)


class TestSupport:
    def test_unit_ball_support_is_one(self, unit_disk, rng):
        for theta in rng.uniform(0.0, 2.0 * math.pi, 32):
            assert unit_disk.support(unit(theta)) == pytest.approx(1.0, abs=1e-12)

    def test_square_corner_support(self, square):
        assert square.support(unit(math.pi / 4)) == pytest.approx(ROOT2, abs=1e-12)

    def test_ellipse_long_axis_support(self, ellipse21):
        assert ellipse21.support([1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
        dense, _ = oracles.dense_support_search(ellipse21, [1.0, 0.0])
        assert dense <= 2.0 + 1e-12
        assert dense == pytest.approx(2.0, abs=1e-6)

    def test_zero_direction_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            unit_disk.support([0.0, 0.0])

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           theta=st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_positive_homogeneity(self, scale, theta):
        K = Ellipsoid([1.5, 0.7], np.array([0.1, 0.2]))
        u = unit(theta)
        assert K.support(scale * u) == pytest.approx(
            scale * K.support(u), rel=1e-12)


class TestSupportPoint:
    def test_ball_support_point_is_direction(self, unit_disk, rng):
        for theta in rng.uniform(0.0, 2.0 * math.pi, 16):
            u = unit(theta)
            np.testing.assert_allclose(unit_disk.support_point(u), u, atol=1e-12)

    def test_ellipsoid_axis_point(self, ellipse21):
        np.testing.assert_allclose(ellipse21.support_point([0.0, 1.0]),
                                   [0.0, 1.0], atol=1e-12)

    def test_pball_maximizer_certified_by_dense_search(self, pball4):
        u = unit(math.pi / 4)
        y = pball4.support_point(u)
        h = pball4.support(u)
        assert h == pytest.approx(2.0 ** 0.25, abs=1e-12)
        assert float(u @ y) == pytest.approx(h, abs=1e-12)
        assert pball4.gauge(y) == pytest.approx(1.0, abs=1e-12)
        dense_val, _ = oracles.dense_support_search(pball4, u)
        assert dense_val <= float(u @ y) + 1e-9

    def test_polytope_support_point_unsupported(self, square):
        with pytest.raises(UnsupportedKindError):
            square.support_point([1.0, 0.0])


class TestGauge:
    def test_unit_ball_gauge_is_norm(self, unit_disk, rng):
        X = rng.uniform(-2.0, 2.0, size=(64, 2))
        np.testing.assert_allclose(unit_disk.gauge_batch(X),
                                   np.linalg.norm(X, axis=1), atol=1e-12)

    def test_radius_two_ball(self):
        K = Ball(2.0, np.zeros(2))
        assert K.gauge([1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_square_boundary_point(self, square):
        assert square.gauge([0.5, -1.0]) == pytest.approx(1.0, abs=1e-12)
        assert oracles.lp_gauge(square.vertices, [0.5, -1.0]) == pytest.approx(
            1.0, abs=1e-9)

    def test_gauge_of_origin_is_zero(self):
        for K in all_kinds_2d():
            assert K.gauge(np.zeros(2)) == 0.0

    def test_gauge_matches_lp_on_random_polytopes(self, rng):
        for _ in range(10):
            P = Polytope(oracles.random_polytope(rng, 2, 12))
            X = rng.uniform(-1.5, 1.5, size=(20, 2))
            lp = np.array([oracles.lp_gauge(P.vertices, x) for x in X])
            np.testing.assert_allclose(P.gauge_batch(X), lp, atol=1e-7)


class TestGaugeSupportProperties:
    """Bulk random-probe invariants shared by all kinds."""

    def test_boundary_scaling_thousand_probes(self, rng):
        kinds = all_kinds_2d()
        per = 1000 // len(kinds) + 1
        for K in kinds:
            X = rng.uniform(-2.0, 2.0, size=(per, 2))
            g = K.gauge_batch(X)
            keep = g > 1e-9
            scaled = X[keep] / g[keep, None]
            np.testing.assert_allclose(K.gauge_batch(scaled), 1.0, atol=1e-9)

    def test_support_point_attains_support_thousand_probes(self, rng):
        kinds = smooth_kinds_2d()
        per = 1000 // len(kinds) + 1
        for K in kinds:
            for theta in rng.uniform(0.0, 2.0 * math.pi, per):
                u = unit(theta)
                y = K.support_point(u)
                assert float(u @ y) == pytest.approx(K.support(u), abs=1e-9)

    def test_polar_support_equals_gauge_on_random_polytopes(self, rng):
        for _ in range(20):
            P = Polytope(oracles.random_polytope(rng, 2, 10))
            Q = P.polar()
            for x in rng.uniform(-1.0, 1.0, size=(50, 2)):
                if float(x @ x) < 1e-12:
                    continue
                assert Q.support(x) == pytest.approx(P.gauge(x), abs=1e-9)


class TestPolytopePolar:
    def test_square_polar_is_cross_polytope(self, square):
        polar = square.polar()
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert oracles.same_point_set(polar.vertices, expected)

    def test_translated_square_polar_vertices(self):
        a = 0.3
        P = Polytope(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
                     + np.array([a, 0.0]))
        expected = np.array([
            [1.0 / (1.0 + a), 0.0],
            [0.0, 1.0],
            [1.0 / (a - 1.0), 0.0],
            [0.0, -1.0],
        ])
        assert oracles.same_point_set(P.polar().vertices, expected, tol=1e-9)

    def test_scaled_cross_polytope_polar(self):
        P = Polytope([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
        expected = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert oracles.same_point_set(P.polar().vertices, expected, tol=1e-9)
        ref = oracles.halfspace_polar_vertices(P.vertices)
        assert oracles.same_point_set(np.sort(ref, axis=0),
                                      np.sort(expected, axis=0), tol=1e-9)

    def test_involution_on_random_polytopes(self, rng):
        for _ in range(20):
            V = oracles.random_polytope(rng, 2, 9)
            P = Polytope(V)
            back = P.polar().polar()
            assert oracles.same_point_set(
                np.sort(back.vertices, axis=0), np.sort(V, axis=0), tol=1e-9)

    def test_involution_3d(self, rng):
        V = oracles.random_polytope(rng, 3, 16)
        back = Polytope(V).polar().polar()
        assert oracles.same_point_set(
            np.sort(back.vertices, axis=0), np.sort(V, axis=0), tol=1e-9)

    def test_polar_requires_interior_origin(self):
        P = Polytope([[1.0, 1.0], [3.0, 1.0], [2.0, 3.0]])
        with pytest.raises(DomainError):
            P.polar()


class TestNormals:
    def test_ball_normal_is_radial(self, unit_disk):
        u = unit(1.1)
        np.testing.assert_allclose(unit_disk.normal_at(u), u, atol=1e-12)

    def test_ellipsoid_axis_normal(self, ellipse21):
        np.testing.assert_allclose(ellipse21.normal_at([2.0, 0.0]),
                                   [1.0, 0.0], atol=1e-12)

    def test_pball_normal_matches_fd_gradient(self, pball4, rng):
        for theta in rng.uniform(0.0, 2.0 * math.pi, 12):
            w = unit(theta)
            x = w / pball4.gauge(w)
            n = pball4.normal_at(x)
            fd = oracles.fd_gauge_gradient(pball4, x)
            np.testing.assert_allclose(n, fd / np.linalg.norm(fd), atol=1e-5)

    def test_off_boundary_point_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            unit_disk.normal_at([0.5, 0.0])

    def test_polytope_normal_at_unsupported(self, square):
        with pytest.raises(UnsupportedKindError):
            square.normal_at([1.0, 0.0])


class TestSurfaceSampler:
    def test_circle_total_mass(self, unit_disk):
        s = unit_disk.surface_sampler()
        assert s.total_mass == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert s.total_mass_se == 0.0

    def test_sphere_total_mass(self, unit_ball3):
        assert unit_ball3.surface_sampler().total_mass == pytest.approx(
            4.0 * math.pi, abs=1e-12)

    def test_square_atoms(self, square):
        s = square.surface_sampler()
        normals, weights = s.atoms
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert oracles.same_point_set(normals, expected, tol=1e-9)
        np.testing.assert_allclose(weights, 2.0, atol=1e-9)
        assert s.total_mass == pytest.approx(8.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_facet_atoms_match_loop(self, d):
        # lattice vertices and a prism put several simplices in one facet
        rng = np.random.default_rng(30 + d)
        t = 2.0 * math.pi * np.arange(6) / 6
        hexagon = np.column_stack([np.cos(t), np.sin(t)])
        shapes = [rng.standard_normal((30, d)), np.round(2.0 * rng.standard_normal((40, d))),
                  hexagon if d == 2 else np.vstack([np.column_stack([hexagon, z * np.ones(6)])
                                                    for z in (-1.0, 1.0)])]
        for V in shapes:
            P = Polytope(V)
            normals, weights = P._facet_atoms
            ref_normals, ref_weights = oracles.loop_facet_atoms(P)
            assert normals.tobytes() == ref_normals.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()
            assert not (normals.flags.writeable or weights.flags.writeable)
            assert P.surface_sampler().atoms[0] is normals

    def test_ellipse_total_mass_is_perimeter(self, ellipse21):
        s = ellipse21.surface_sampler()
        perimeter = 9.688448220547675
        assert oracles.ellipse_perimeter(2.0, 1.0) == pytest.approx(
            perimeter, abs=1e-12)
        assert s.total_mass_se < 0.01
        assert s.total_mass == pytest.approx(perimeter, abs=4.0 * s.total_mass_se)

    @pytest.mark.parametrize("axes, center, rotated", [
        ([2.0, 1.0], [0.0, 0.0], False),
        ([1.5, 1.0, 0.7], [0.0, 0.0, 0.0], False),
        ([3.0, 0.2, 1.1], [5.0, -3.0, 2.0], True),
        ([1e-6, 3e-6], [1.0, 1.0], False),
    ])
    def test_blocked_mass_matches_one_shot(self, monkeypatch, axes, center, rotated):
        import khull.body as body

        R = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        E = Ellipsoid(axes, center, R if rotated else None)
        s = E.surface_sampler()
        assert (s.total_mass, s.total_mass_se) == oracles.one_shot_surface_mass(E)
        # several blocks and a short last one
        monkeypatch.setattr(body, "SAMPLER_BLOCK", 1000)
        for size in (999, 1000, 1001, 4500):
            s = E.surface_sampler(size)
            assert (s.total_mass, s.total_mass_se) == oracles.one_shot_surface_mass(E, size)

    @pytest.mark.parametrize("p, scale, center", [
        (4.0, 1.0, [0.0, 0.0]),
        (4.0, 1.0, [0.0, 0.0, 0.0]),
        (1.5, 2.5, [0.3, -0.2]),
        (7.0, 0.4, [0.1, 0.0, -0.1]),
    ])
    def test_blocked_pball_mass_matches_one_shot(self, monkeypatch, p, scale, center):
        import khull.body as body

        K = PNormBall(p, scale, center)
        s = K.surface_sampler()
        assert (s.total_mass, s.total_mass_se) == oracles.one_shot_surface_mass(K)
        monkeypatch.setattr(body, "SAMPLER_BLOCK", 1000)
        for size in (999, 1000, 1001, 4500):
            s = K.surface_sampler(size)
            assert (s.total_mass, s.total_mass_se) == oracles.one_shot_surface_mass(K, size)

    def test_ball_draws_uniform_chi_square(self, unit_disk, rng):
        draws = unit_disk.surface_sampler().draw(rng, 100_000)
        np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
        angles = np.arctan2(draws[:, 1], draws[:, 0])
        counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
        _, pvalue = chisquare(counts)
        assert pvalue > 0.001

    def test_polytope_draws_hit_only_atoms(self, square, rng):
        draws = square.surface_sampler().draw(rng, 4000)
        axis_hits = np.isclose(np.abs(draws), 1.0) | np.isclose(draws, 0.0)
        assert np.all(axis_hits.all(axis=1))
        frac_e1 = np.mean(np.abs(draws[:, 0]) > 0.5)
        assert abs(frac_e1 - 0.5) < 3.0 * 0.5 / math.sqrt(4000)

    def test_smooth_draws_are_unit_normals(self, ellipse21, pball4, rng):
        for K in (ellipse21, pball4):
            draws = K.surface_sampler().draw(rng, 512)
            np.testing.assert_allclose(np.linalg.norm(draws, axis=1), 1.0,
                                       atol=1e-12)


class TestUniformSample:
    def test_ball_mean_is_center(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 1_000_000, rng)
        np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=3e-3)

    def test_square_left_half_fraction(self, square, rng):
        pts = uniform_sample(square, 40_000, rng)
        frac = float(np.mean(pts[:, 0] < 0.0))
        assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(40_000)

    def test_sub_disk_coverage(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 40_000, rng)
        frac = float(np.mean(np.linalg.norm(pts, axis=1) < 0.5))
        se = math.sqrt(0.25 * 0.75 / 40_000)
        assert abs(frac - 0.25) <= 3.0 * se

    def test_samples_strictly_inside_every_kind(self, rng):
        for K in all_kinds_2d():
            pts = uniform_sample(K, 500, rng)
            assert all(K.contains(x) for x in pts)

    def test_negative_count_rejected(self, unit_disk, rng):
        with pytest.raises(DomainError):
            uniform_sample(unit_disk, -1, rng)

    def test_bounding_box_built_once_read_only(self):
        for K in all_kinds_2d() + [Ball(2.0, np.array([1.0, -1.0, 0.5]))]:
            lo, hi = K.bounding_box()
            eye = np.eye(K.dim)
            assert lo.tobytes() == (-K.support_batch(-eye)).tobytes()
            assert hi.tobytes() == K.support_batch(eye).tobytes()
            again = K.bounding_box()
            assert again[0] is lo and again[1] is hi
            assert not (lo.flags.writeable or hi.flags.writeable)


class TestSamplingKernels:
    """`uniform_sample` and `Ball._interior_batch` against the
    `rng.uniform` loop and the `np.linalg.norm` test in tests/oracles.py,
    byte for byte."""

    @staticmethod
    def assert_same_draws(K) -> None:
        for n in (1, 7, 400, 5000):
            for seed in range(3):
                got = uniform_sample(K, n, np.random.default_rng(seed))
                want = oracles.reference_uniform_sample(K, n, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("off_centre", [False, True])
    @pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("d", [2, 3])
    def test_ball(self, d, r, off_centre):
        c = 3.0 * r * np.arange(1.0, d + 1.0) if off_centre else np.zeros(d)
        K = Ball(r, c)
        self.assert_same_draws(K)
        X = np.random.default_rng(d).uniform(c - 1.5 * r, c + 1.5 * r, (2000, d))
        for tol in (0.0, 1e-9 * r):
            assert (K._interior_batch(X, tol).tobytes()
                    == oracles.ball_interior(K, X, tol).tobytes())

    def test_other_bodies(self, ellipse21, pball4, square):
        for K in (ellipse21, pball4, square, ellipse21.translate([2.0, -1.0])):
            self.assert_same_draws(K)

    def test_d3_ellipsoid_and_pball(self):
        rot = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        for K in (Ellipsoid([1.0, 0.7, 0.4], np.zeros(3)),
                  Ellipsoid([2.0, 0.5, 1.5], np.array([1.0, -2.0, 0.5]), rot),
                  PNormBall(4.0, 1.0, np.zeros(3)),
                  PNormBall(1.5, 2.0, np.array([-3.0, 0.0, 1.0]))):
            self.assert_same_draws(K)

    @pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 33])
    def test_small_counts(self, n, unit_disk, unit_ball3, square):
        # below the minimum batch of 32 rows, and n = 0 (no draw at all)
        for K in (unit_disk, unit_ball3, square):
            for seed in range(5):
                got = uniform_sample(K, n, np.random.default_rng(seed))
                want = oracles.reference_uniform_sample(K, n, np.random.default_rng(seed))
                assert got.shape == (n, K.dim)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body, n, seed", [
        (Ball(1.0, np.zeros(2)), 40, 252),
        (Ellipsoid([1.0, 0.7, 0.4], np.zeros(3)), 60, 28),
        (PNormBall(4.0, 1.0, np.zeros(3)), 60, 1234),
    ])
    def test_short_first_batch_refills(self, body, n, seed, monkeypatch):
        # at these seeds the first batch holds fewer than n interior rows
        kind = type(body)
        tested = []
        inner = kind._interior_batch

        def counted(self, X, tol=0.0):
            tested.append(X.shape[0])
            return inner(self, X, tol)

        monkeypatch.setattr(kind, "_interior_batch", counted)
        got = uniform_sample(body, n, np.random.default_rng(seed))
        batches = list(tested)
        want = oracles.reference_uniform_sample(body, n, np.random.default_rng(seed))
        assert len(batches) >= 2
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_within_ulps_of_the_sphere(self, d):
        rng = np.random.default_rng(40 + d)
        U = rng.normal(size=(500, d))
        U /= np.linalg.norm(U, axis=1)[:, None]
        for r in (1e-6, 1.0, 1e6):
            for c in (np.zeros(d), 3.0 * r * np.arange(1.0, d + 1.0)):
                K = Ball(r, c)
                X = np.concatenate([c + r * (1.0 + k * 2.0 ** -52) * U for k in range(-4, 5)])
                got = K._interior_batch(X)
                assert got.tobytes() == oracles.ball_interior(K, X).tobytes()
                assert got.any() and not got.all()


class TestTranslateReflect:
    def test_translate_shifts_support(self):
        for K in all_kinds_2d():
            v = np.array([0.05, -0.03])
            Kt = K.translate(v)
            u = unit(0.7)
            assert Kt.support(u) == pytest.approx(
                K.support(u) + float(u @ v), abs=1e-12)

    def test_reflect_flips_support(self):
        for K in all_kinds_2d():
            Kr = K.reflect()
            u = unit(2.1)
            assert Kr.support(u) == pytest.approx(K.support(-u), abs=1e-12)

    def test_volumes(self, unit_disk, ellipse21, square, pball4):
        assert unit_disk.volume() == pytest.approx(math.pi, abs=1e-12)
        assert ellipse21.volume() == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert square.volume() == pytest.approx(4.0, abs=1e-12)
        expected_p4 = (2.0 * math.gamma(1.25)) ** 2 / math.gamma(1.5)
        assert pball4.volume() == pytest.approx(expected_p4, abs=1e-12)
