import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import all_kinds_2d, smooth_kinds_2d
from khull import (ArcBoundary, Ball, DomainError, Ellipsoid, GeneralPositionWarning,
                   IntersectionBody, NumericError, PNormBall, Polytope, direction_grid,
                   disk_intersection_boundary, fvector_approx, fvector_exact_2d,
                   general_position_check_2d, kfacet_count_2d, khull_boundary_2d,
                   khull_contains, mink_diff_contains, uniform_sample)
from khull import hull
from khull.hull import EPS_GEO, EPS_GP

A_LENS = 0.8
LENS_HALF_WIDTH = math.sqrt(1.0 - A_LENS ** 2)  # 0.6


@pytest.fixture
def lens_points():
    return np.array([[0.0, A_LENS], [0.0, -A_LENS]])


@pytest.fixture
def square_sample():
    # one sample point per square edge, asymmetric offsets
    return np.array([[0.3, 0.0], [0.0, 0.2], [-0.4, 0.0], [0.0, -0.5]])


class TestMinkDiffContains:
    def test_ball_singleton(self, unit_disk):
        assert mink_diff_contains(unit_disk, np.zeros((1, 2)), [0.5, 0.0])

    def test_square_minus_own_vertices_is_origin(self, square):
        V = square.vertices
        assert mink_diff_contains(square, V, [0.0, 0.0])
        assert not mink_diff_contains(square, V, [1e-6, 0.0])
        assert not mink_diff_contains(square, V, [0.0, -1e-6])

    def test_disk_minus_axis_boundary_points_is_origin(self, unit_disk):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert mink_diff_contains(unit_disk, A, [0.0, 0.0])
        assert not mink_diff_contains(unit_disk, A, [1e-6, 0.0])

    def test_square_sample_gives_box(self, square, square_sample):
        # K minus {(a,0),(0,b),(-c,0),(0,-d)} is [c-1,1-a] x [d-1,1-b]
        a, b, c, d = 0.3, 0.2, 0.4, 0.5
        lo = np.array([c - 1.0, d - 1.0])
        hi = np.array([1.0 - a, 1.0 - b])
        eps = 1e-6
        for corner in ([lo[0], lo[1]], [hi[0], lo[1]], [lo[0], hi[1]],
                       [hi[0], hi[1]], [0.0, 0.0]):
            assert mink_diff_contains(square, square_sample, corner)
        for outside in ([hi[0] + eps, 0.0], [0.0, hi[1] + eps],
                        [lo[0] - eps, 0.0], [0.0, lo[1] - eps]):
            assert not mink_diff_contains(square, square_sample, outside)


class TestIntersectionBody:
    def test_singleton_radial_is_one(self, unit_disk):
        X = IntersectionBody(unit_disk, np.zeros((1, 2)))
        U = direction_grid(2, 64)
        np.testing.assert_allclose(X.radial_batch(U), 1.0, atol=1e-9)

    def test_lens_radial_along_x(self, unit_disk, lens_points):
        X = IntersectionBody(unit_disk, lens_points)
        assert X.radial([1.0, 0.0]) == pytest.approx(LENS_HALF_WIDTH, abs=1e-9)
        assert X.radial([-1.0, 0.0]) == pytest.approx(LENS_HALF_WIDTH, abs=1e-9)

    def test_radial_point_sits_on_boundary(self, rng):
        for K in smooth_kinds_2d():
            pts = uniform_sample(K, 6, rng) * 0.9 + 0.1 * np.asarray(K.center)
            X = IntersectionBody(K, pts)
            for theta in rng.uniform(0.0, 2.0 * math.pi, 20):
                u = np.array([math.cos(theta), math.sin(theta)])
                r = X.radial(u)
                worst = max(K.gauge(xi + r * u) for xi in pts)
                assert worst == pytest.approx(1.0, abs=1e-9)
                assert mink_diff_contains(K, pts, r * u, tol=1e-9)

    def test_outer_bound_lens_vertical(self, unit_disk, lens_points):
        X = IntersectionBody(unit_disk, lens_points)
        assert X.outer_support_bound([0.0, 1.0]) == pytest.approx(
            1.0 - A_LENS, abs=1e-12)

    def test_outer_bound_exact_for_singleton(self, ellipse21, rng):
        xi = np.array([[0.3, -0.2]])
        X = IntersectionBody(ellipse21, xi)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 16):
            u = np.array([math.cos(theta), math.sin(theta)])
            expected = ellipse21.support(u) - float(xi[0] @ u)
            assert X.outer_support_bound(u) == pytest.approx(expected, abs=1e-12)
            assert X.radial(u) <= X.outer_support_bound(u) + 1e-9

    def test_radial_below_outer_bound_thousand_directions(self, rng):
        kinds = smooth_kinds_2d()
        per = 1000 // len(kinds) + 1
        for K in kinds:
            pts = uniform_sample(K, 8, rng)
            X = IntersectionBody(K, pts)
            U = direction_grid(2, per)
            r = X.radial_batch(U)
            h = X.outer_support_bound_batch(U)
            assert np.all(r <= h + 1e-9)

    def test_sample_point_outside_base_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            IntersectionBody(unit_disk, np.array([[1.5, 0.0]]))
        with pytest.raises(DomainError):
            IntersectionBody(unit_disk.translate([5.0, 5.0]), np.array([[0.0, 0.0]]))

    def test_bad_sample_rejected_before_any_prune(self, monkeypatch, unit_disk,
                                                  unit_ball3):
        calls = []
        monkeypatch.setattr(hull, "_prune_to_hull", lambda pts, rows: calls.append(1))
        for K, pts in ((unit_disk, np.array([[0.0, 0.0], [1.5, 0.0]])),
                       (unit_ball3, np.array([[0.0, 0.0, 1.0]])),
                       (unit_ball3, np.zeros((0, 3))),
                       (unit_ball3, np.zeros((2, 2)))):
            with pytest.raises(DomainError):
                IntersectionBody(K, pts)
        assert calls == []

    def test_active_pruned_once_when_read(self, monkeypatch, unit_disk, rng):
        calls = []
        prune = hull._prune_to_hull
        monkeypatch.setattr(hull, "_prune_to_hull",
                            lambda pts, rows: calls.append(1) or prune(pts, rows))
        pts = uniform_sample(unit_disk, 500, rng)
        X = IntersectionBody(unit_disk, pts)
        assert calls == []
        U = direction_grid(2, 64)
        X.radial_batch(U)
        X.outer_support_bound_batch(U)
        hull._disk_pass(X)
        np.testing.assert_array_equal(X.active, prune(pts, hull._akl_toussaint(pts)))
        assert calls == [1]

    def test_off_centre_base_matches_centred(self, ellipse21, rng):
        # X is made of translations, so shifting K and the sample with it
        # leaves X unchanged; K need not contain the origin
        c = np.array([5.0, 5.0])
        pts = uniform_sample(ellipse21, 50, rng)
        U = direction_grid(2, 64)
        X = IntersectionBody(ellipse21, pts)
        Y = IntersectionBody(ellipse21.translate(c), pts + c)
        np.testing.assert_array_equal(Y.active, X.active)
        np.testing.assert_allclose(Y.radial_batch(U), X.radial_batch(U), rtol=1e-9)


class TestKhullContains:
    def test_sample_points_never_out(self, unit_disk, rng):
        # extreme sample points sit exactly on the hull boundary, so the
        # certified verdict there is Unknown with a vanishing gap, never Out
        pts = uniform_sample(unit_disk, 10, rng) * 0.9
        for xi in pts:
            verdict = khull_contains(unit_disk, pts, xi)
            assert verdict.status in ("in", "unknown")
            if verdict.status == "unknown":
                assert verdict.margin < 1e-3

    def test_pairwise_midpoints_are_in(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 10, rng) * 0.9
        mids = 0.5 * (pts[:5] + pts[5:])
        for z in mids:
            verdict = khull_contains(unit_disk, pts, z)
            assert verdict.status == "in"
            assert bool(verdict)

    def test_lens_in_out(self, unit_disk, lens_points):
        # rightmost point of the two-point hull is (1 - sqrt(1-a^2), 0)
        rightmost = 1.0 - LENS_HALF_WIDTH
        inside = khull_contains(unit_disk, lens_points, [rightmost - 0.05, 0.0])
        outside = khull_contains(unit_disk, lens_points, [rightmost + 0.05, 0.0])
        assert inside.status == "in"
        assert outside.status == "out"
        assert not bool(outside)

    def test_square_hull_pattern(self, square, square_sample):
        # hull of the four edge points is the box [-c,a] x [-d,b]
        for z in ([0.0, 0.0], [0.25, 0.15], [-0.35, -0.45], [0.1, -0.2]):
            assert khull_contains(square, square_sample, z).status == "in"
        for z in ([0.35, 0.0], [0.0, 0.25], [-0.45, 0.0], [0.0, -0.55]):
            assert khull_contains(square, square_sample, z).status == "out"
        # corner sliver may fail certification but must never flip to "out"
        assert khull_contains(square, square_sample, [0.29, 0.19]).status != "out"

    def test_verdict_margin_positive(self, unit_disk, lens_points):
        verdict = khull_contains(unit_disk, lens_points, [0.0, 0.0])
        assert verdict.status == "in"
        assert verdict.margin > 0.0


class TestPlacement:
    """The membership tests answer the same when K, the sample and the hull
    query move together, including to where K no longer contains the
    origin. A translation x of X does not move: X is made of translations."""

    @staticmethod
    def answers(K, pts, xs, zs) -> tuple[list, list, list]:
        X = IntersectionBody(K, pts)
        return ([mink_diff_contains(K, pts, x) for x in xs],
                [X.contains(x) for x in xs],
                [khull_contains(K, pts, z) for z in zs])

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (5.0, 5.0), (1e3, -2e3)])
    def test_translation_leaves_answers(self, offset):
        rng = np.random.default_rng(5151)
        shifts = [np.asarray(offset)]
        bodies = [(K, shifts[0]) for K in all_kinds_2d()]
        bodies.append((Ball(1.0, np.zeros(3)), np.array([*offset, offset[0]])))
        for K, t in bodies:
            pts = uniform_sample(K, 50, rng)
            c = pts.mean(axis=0)
            X = IntersectionBody(K, pts)
            U = direction_grid(K.dim, 8)
            lo, hi = K.bounding_box()
            # translations well inside and well outside X; hull queries near
            # the sample mean (in) and beyond the bounding box (out)
            xs = [s * X.boundary_point(u) for u in U for s in (0.5, 1.5)]
            zs = [c, c + 0.5 * (pts[0] - c), 2.0 * hi - lo, 2.0 * lo - hi]
            mink, member, verdicts = self.answers(K, pts, xs, zs)
            assert mink == member == [True, False] * len(U)
            assert [v.status for v in verdicts] == ["in", "in", "out", "out"]
            moved = self.answers(K.translate(t), pts + t, xs, [z + t for z in zs])
            assert moved[0] == mink and moved[1] == member
            assert [v.status for v in moved[2]] == [v.status for v in verdicts]
            np.testing.assert_allclose([v.margin for v in moved[2]],
                                       [v.margin for v in verdicts], rtol=1e-6, atol=1e-9)
            if not t.any():
                assert moved[2] == verdicts

    def test_body_off_the_origin(self):
        # before recentring these raised "requires the origin in the interior"
        K = Ball(1.0, np.array([5.0, 5.0]))
        pts = uniform_sample(K, 50, np.random.default_rng(12))
        assert mink_diff_contains(K, pts, [0.0, 0.0])
        assert IntersectionBody(K, pts).contains([0.0, 0.0])
        assert khull_contains(K, pts, pts.mean(axis=0)).status == "in"
        assert khull_contains(K, pts, [5.0, 6.5]).status == "out"


class TestDiskIntersectionBoundary:
    def test_singleton_full_circle(self, unit_disk):
        b = disk_intersection_boundary(unit_disk, np.array([[0.2, -0.1]]))
        assert len(b.arcs) == 1
        assert len(b.vertices) == 0
        assert b.arc_owners() == {0}
        arc = b.arcs[0]
        assert arc.width == pytest.approx(2.0 * math.pi, abs=1e-12)
        np.testing.assert_allclose(arc.center, [-0.2, 0.1], atol=1e-12)

    def test_lens_structure(self, unit_disk, lens_points):
        b = disk_intersection_boundary(unit_disk, lens_points)
        assert len(b.arcs) == 2
        assert len(b.vertices) == 2
        assert b.arc_owners() == {0, 1}
        assert b.vertex_owner_pairs() == {frozenset({0, 1})}
        got = np.sort(np.array([v.point for v in b.vertices]), axis=0)
        want = np.array([[-LENS_HALF_WIDTH, 0.0], [LENS_HALF_WIDTH, 0.0]])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_arcs_form_closed_cycle(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 10, rng) * 0.9
        b = disk_intersection_boundary(unit_disk, pts)
        n = len(b.arcs)
        assert n == len(b.vertices)
        total = sum(a.width for a in b.arcs)
        assert total > 0.0
        for i, arc in enumerate(b.arcs):
            nxt = b.arcs[(i + 1) % n]
            end = arc.point_at(1.0, b.radius)
            start = nxt.point_at(0.0, b.radius)
            np.testing.assert_allclose(end, start, atol=1e-9)

    def test_arc_points_inside_all_other_disks(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 8, rng) * 0.9
        b = disk_intersection_boundary(unit_disk, pts)
        for arc in b.arcs:
            for t in (0.25, 0.5, 0.75):
                x = arc.point_at(t, b.radius)
                assert unit_disk.gauge(x + pts[arc.owner]) == pytest.approx(
                    1.0, abs=1e-9)
                assert mink_diff_contains(unit_disk, pts, x, tol=1e-9)

    def test_duplicate_points_deduplicated_with_warning(self, unit_disk):
        pts = np.array([[0.0, 0.5], [0.0, -0.5], [0.0, 0.5]])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            b = disk_intersection_boundary(unit_disk, pts)
        assert any("deduplicated" in str(w.message) for w in rec)
        assert len(b.arcs) == 2
        assert b.arc_owners() <= {0, 1, 2}

    def test_sample_outside_interior_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            disk_intersection_boundary(unit_disk, np.array([[1.0, 0.0]]))

    def test_interior_repeat_is_not_deduplicated(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 40, rng) * 0.9
        inner = int(np.argmin(np.linalg.norm(pts, axis=1)))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            b = disk_intersection_boundary(unit_disk, np.vstack([pts, pts[inner]]))
        assert not any("deduplicated" in str(w.message) for w in rec)
        assert _same_cycle(b, disk_intersection_boundary(unit_disk, pts))

    def test_cocircular_triple_warns_and_closes(self, unit_disk):
        # three circles through one corner: the cycle closes at it, and the
        # third circle is reported, not raised
        c = np.array([-0.3, 0.0])
        pts = np.array([c + [math.cos(t), math.sin(t)] for t in (0.0, 0.45, -0.45)])
        with pytest.warns(GeneralPositionWarning, match="near-cocircular"):
            b = disk_intersection_boundary(unit_disk, pts)
        assert b.arc_owners() == {1, 2} and len(b.vertices) == 2
        with pytest.warns(GeneralPositionWarning, match="near-cocircular"):
            q = khull_boundary_2d(unit_disk, pts)
        assert len(q.arcs) == 2

    def test_repeated_hull_vertex_is_one_duplicate(self, unit_disk, rng):
        # the copy's circle is the original's, so it is no third circle at
        # the original's corners
        pts = uniform_sample(unit_disk, 100, rng)
        b = disk_intersection_boundary(unit_disk, pts)
        report = general_position_check_2d(unit_disk, np.vstack([pts, pts[min(b.arc_owners())]]))
        assert [w.kind for w in report.witnesses] == ["duplicate"]
        assert _same_cycle(report.boundary, b)


class TestSampleValidation:
    """Every disk entry point, and the approximate f-vector, checks the
    sample through the intersection body."""

    ENTRY_POINTS = {
        "general_position_check_2d": general_position_check_2d,
        "disk_intersection_boundary": disk_intersection_boundary,
        "khull_boundary_2d": khull_boundary_2d,
        "kfacet_count_2d": kfacet_count_2d,
        "fvector_approx": fvector_approx,
    }
    BAD_SAMPLES = {
        "empty": np.empty((0, 2)),
        "empty-flat": np.array([]),
        "dimension-3": np.full((4, 3), 0.1),
        "dimension-1": np.full((4, 1), 0.1),
        "outside": np.array([[0.1, 0.2], [1.5, 0.0], [-0.3, 0.1]]),
    }

    @pytest.mark.parametrize("sample", BAD_SAMPLES)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_bad_sample_raises_domain_error(self, unit_disk, entry, sample):
        with pytest.raises(DomainError):
            self.ENTRY_POINTS[entry](unit_disk, self.BAD_SAMPLES[sample])


def _disk_record(K, pts) -> tuple:
    """What the exact disk pipeline reports on a sample: the screen's
    verdict and witness kinds, the f-vector and the k-facet count, or the
    error a step raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeneralPositionWarning)
        report = general_position_check_2d(K, pts)
        kinds = sorted(w.kind for w in report.witnesses)
        fv = None if report.boundary is None else fvector_exact_2d(report.boundary)
        try:
            kf = kfacet_count_2d(K, pts)
        except NumericError as exc:
            kf = str(exc)
    return report.ok, kinds, fv, kf


class TestScaleInvariance:
    """Scaling and translating a disk sample together with the disk leaves
    the exact pipeline's answers as they are: its windows are relative to
    the radius."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([2, 3, 10, 100, 1000, 5000]),
           exponent=st.floats(min_value=-6.0, max_value=6.0),
           shift=st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                           st.floats(min_value=-3.0, max_value=3.0)))
    @settings(max_examples=60, deadline=None)
    def test_scaled_and_translated_disk(self, seed, n, exponent, shift):
        unit_disk = Ball(1.0, np.zeros(2))
        pts = uniform_sample(unit_disk, n, np.random.default_rng(seed))
        s = 10.0 ** exponent
        c = s * np.array(shift)
        assert _disk_record(Ball(s, c), s * pts + c) == _disk_record(unit_disk, pts)


class TestKhullBoundary2d:
    def test_single_point_degenerate(self, unit_disk):
        b = khull_boundary_2d(unit_disk, np.array([[0.3, 0.1]]))
        assert b.is_degenerate
        np.testing.assert_allclose(b.degenerate_point, [0.3, 0.1], atol=1e-12)

    def test_lens_hull_two_kfacets(self, unit_disk, lens_points):
        b = khull_boundary_2d(unit_disk, lens_points)
        assert len(b.arcs) == 2
        centers = np.sort(np.array([a.center for a in b.arcs]), axis=0)
        np.testing.assert_allclose(
            centers, [[-LENS_HALF_WIDTH, 0.0], [LENS_HALF_WIDTH, 0.0]],
            atol=1e-9)
        # both sample points sit on the hull boundary
        for xi in lens_points:
            dists = [abs(np.linalg.norm(xi - a.center) - 1.0) for a in b.arcs]
            assert min(dists) < 1e-9

    def test_duality_arc_and_vertex_counts(self, unit_disk, rng):
        for n in (3, 5, 10, 25):
            pts = uniform_sample(unit_disk, n, rng) * 0.9
            bx = disk_intersection_boundary(unit_disk, pts)
            bq = khull_boundary_2d(unit_disk, pts)
            assert len(bq.arcs) == len(bx.vertices)
            assert len(bq.vertices) == len(bx.arcs)

    def test_hull_arc_owners_lie_on_boundary(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 12, rng) * 0.9
        bx = disk_intersection_boundary(unit_disk, pts)
        bq = khull_boundary_2d(unit_disk, pts)
        on_boundary = set()
        for i, xi in enumerate(pts):
            for arc in bq.arcs:
                if abs(np.linalg.norm(xi - arc.center) - 1.0) < 1e-9:
                    on_boundary.add(i)
                    break
        assert on_boundary == bx.arc_owners()

    def test_no_straight_segments(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 9, rng) * 0.9
        for b in (disk_intersection_boundary(unit_disk, pts),
                  khull_boundary_2d(unit_disk, pts)):
            assert b.radius == pytest.approx(1.0)
            for arc in b.arcs:
                assert arc.width > 0.0


class TestIdempotence:
    """Hull of the hull adds nothing: membership in K minus Q matches
    membership in K minus the sample, tested with exact arc maximization."""

    def test_thousand_probes(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 12, rng) * 0.9
        bq = khull_boundary_2d(unit_disk, pts)
        probes = rng.uniform(-1.0, 1.0, size=(1000, 2))
        skipped = 0
        for x in probes:
            worst = max(
                oracles.arc_max_norm(a.center, bq.radius, a.a0, a.a1, x)
                for a in bq.arcs)
            if abs(worst - 1.0) < 1e-6:
                skipped += 1
                continue
            assert mink_diff_contains(unit_disk, pts, x) == (worst <= 1.0)
        assert skipped < 50

    def test_rehulling_is_stable(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 8, rng) * 0.9
        bq = khull_boundary_2d(unit_disk, pts)
        # sample points on dQ re-hull to the same arc structure
        corners = np.array([v.point for v in bq.vertices])
        bx = disk_intersection_boundary(unit_disk, pts)
        assert len(corners) == len(bx.arcs)


class TestArcBoundaryJson:
    def test_round_trip(self, unit_disk, rng):
        pts = uniform_sample(unit_disk, 7, rng) * 0.9
        b = disk_intersection_boundary(unit_disk, pts)
        data = json.loads(json.dumps(b.to_json_dict()))
        assert set(data.keys()) == {"arcs", "vertices"}
        assert set(data["arcs"][0].keys()) == {"owner", "center", "a0", "a1"}
        assert set(data["vertices"][0].keys()) == {"owners", "point"}
        back = ArcBoundary.from_json_dict(data, radius=b.radius)
        assert len(back.arcs) == len(b.arcs)
        for a0, a1 in zip(b.arcs, back.arcs):
            assert a0.owner == a1.owner
            np.testing.assert_allclose(a0.center, a1.center, atol=0.0)
            assert a0.a0 == a1.a0 and a0.a1 == a1.a1
        for v0, v1 in zip(b.vertices, back.vertices):
            assert v0.owners == v1.owners
            np.testing.assert_allclose(v0.point, v1.point, atol=0.0)


# Disk radii and centres, in units of the radius, at which X's measure is checked.
MEASURE_SCALES = [1e-6, 1.0, 1e6]
MEASURE_CENTRES = [(0.0, 0.0), (3.0, -2.0)]


class TestArcMeasure:
    """`ArcBoundary.measure`, the area and perimeter of X's disc-polygon,
    against closed forms and X's radial polygon."""

    @pytest.mark.parametrize("r", MEASURE_SCALES)
    @pytest.mark.parametrize("centre", MEASURE_CENTRES)
    def test_single_row_is_the_disk(self, r, centre):
        c = r * np.array(centre)
        area, perim = disk_intersection_boundary(Ball(r, c), c + r * np.array([[0.3, -0.2]])
                                                 ).measure()
        assert area == pytest.approx(math.pi * r * r, rel=1e-12)
        assert perim == pytest.approx(2.0 * math.pi * r, rel=1e-12)

    @pytest.mark.parametrize("r", MEASURE_SCALES)
    @pytest.mark.parametrize("centre", MEASURE_CENTRES)
    @pytest.mark.parametrize("d", [0.1, 0.8, 1.6, 1.98])
    def test_two_rows_are_the_lens(self, r, centre, d):
        # disks of radius r whose centres lie d r apart meet in a lens of
        # half-angle acos(d / 2) about each centre
        e = np.array([math.cos(0.3), math.sin(0.3)])
        c = r * np.array(centre)
        pts = c + r * np.array([0.5 * d * e, -0.5 * d * e])
        area, perim = disk_intersection_boundary(Ball(r, c), pts).measure()
        half = math.acos(0.5 * d)
        assert area == pytest.approx(r * r * (2.0 * half - 0.5 * d * math.sqrt(4.0 - d * d)),
                                     rel=1e-12)
        assert perim == pytest.approx(4.0 * r * half, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10, 200, 2000])
    def test_radial_polygon(self, unit_disk, n):
        # X's radial polygon with X's corners added misses only slivers of
        # its arcs, by a share that falls as 1/m^2 on m directions, so its
        # measure at 2^15 and 2^16 directions extrapolates to X's
        rng = np.random.default_rng(n)
        for _ in range(3):
            pts = uniform_sample(unit_disk, n, rng)
            xb = disk_intersection_boundary(unit_disk, pts)
            X = IntersectionBody(unit_disk, pts)
            corners = np.array([v.point for v in xb.vertices])
            est = []
            for m in (2 ** 15, 2 ** 16):
                U = direction_grid(2, m)
                T = oracles.tagged_hull(np.concatenate([X.radial_batch(U)[:, None] * U,
                                                        corners]))
                est.append(np.array([T.volume, T.surface]))
            np.testing.assert_allclose(xb.measure(), (4.0 * est[1] - est[0]) / 3.0,
                                       rtol=1e-8)

    @pytest.mark.parametrize("n", [10, 2000])
    def test_scale_and_place_invariant(self, unit_disk, n):
        # the same unit-disk sample, scaled and moved with the disk; the
        # corners move by a few ulps of the coordinates
        u = uniform_sample(unit_disk, n, np.random.default_rng(7))
        area, perim = disk_intersection_boundary(unit_disk, u).measure()
        for r in MEASURE_SCALES:
            for centre in MEASURE_CENTRES:
                c = r * np.array(centre)
                got = disk_intersection_boundary(Ball(r, c), c + r * u).measure()
                assert got[0] == pytest.approx(area * r * r, rel=1e-9)
                assert got[1] == pytest.approx(perim * r, rel=1e-9)

    def test_degenerate_cycle_measures_zero(self, unit_disk):
        with pytest.warns(GeneralPositionWarning, match="deduplicated"):
            qb = khull_boundary_2d(unit_disk, np.array([[0.2, 0.1]] * 3))
        assert qb.is_degenerate
        assert qb.measure() == (0.0, 0.0)


def _same_cycle(got: ArcBoundary, want: ArcBoundary) -> bool:
    """Identical arcs (owner, a0, a1) and corners (owners, point), exactly."""
    return (len(got.arcs) == len(want.arcs)
            and len(got.vertices) == len(want.vertices)
            and all(a.owner == b.owner and a.a0 == b.a0 and a.a1 == b.a1
                    for a, b in zip(got.arcs, want.arcs))
            and all(u.owners == v.owners and np.array_equal(u.point, v.point)
                    for u, v in zip(got.vertices, want.vertices)))


class TestDedupeRows:
    @staticmethod
    def reference(pts):
        return np.sort(np.unique(pts, axis=0, return_index=True)[1])

    def test_matches_unique_with_injected_repeats(self, unit_disk, rng):
        from khull.hull import _dedupe_rows

        base = uniform_sample(unit_disk, 200, rng)
        for pos in (0, 100, 199):
            for src in (0, 57, 199):
                if src == pos:
                    continue
                pts = base.copy()
                pts[pos] = pts[src]
                got = _dedupe_rows(pts)
                np.testing.assert_array_equal(got, self.reference(pts))
                assert got.size == 199

    def test_signed_zero_and_tied_first_column(self):
        from khull.hull import _dedupe_rows

        pts = np.array([[0.0, 0.5], [0.3, -0.0], [-0.0, 0.5], [0.3, 0.0],
                        [0.3, 0.1], [0.3, -0.0]])
        np.testing.assert_array_equal(_dedupe_rows(pts), self.reference(pts))
        np.testing.assert_array_equal(_dedupe_rows(pts), [0, 1, 4])

    def test_single_row(self):
        from khull.hull import _dedupe_rows

        pts = np.array([[0.25, -0.5]])
        np.testing.assert_array_equal(_dedupe_rows(pts), self.reference(pts))


def _pass_fields(xpass) -> tuple:
    """Every field of a `_DiskPass`, as values that compare exactly with ==."""
    return (xpass.points.tobytes(), xpass.dropped,
            _witness_fields(xpass.witnesses), _cycle_fields(xpass.boundary),
            None if xpass.error is None else str(xpass.error))


def _witness_fields(witnesses) -> list:
    return [(w.kind, w.indices, None if w.witness is None else w.witness.tobytes(),
             w.measure) for w in witnesses]


def _cycle_fields(b) -> tuple | None:
    if b is None:
        return None
    return ([(a.owner, a.center.tobytes(), a.a0, a.a1) for a in b.arcs],
            [(v.owners, v.point.tobytes()) for v in b.vertices], b.radius,
            None if b.degenerate_point is None else b.degenerate_point.tobytes())


def _hull_stage_fields(stage, K, pts, xb) -> tuple:
    """(hull cycle, witnesses) of a hull stage, or the message it raised."""
    try:
        qb, witnesses = stage(K, pts, xb)
    except NumericError as exc:
        return ("raised", str(exc))
    return _cycle_fields(qb), _witness_fields(witnesses)


def _with_repeats(pts: np.ndarray, rng) -> np.ndarray:
    """The sample with copies of some hull vertices inserted, some ahead of
    the original row and some after it."""
    verts = oracles.plain_prune(pts)
    out = pts
    for src in rng.choice(verts, size=min(3, verts.size), replace=False):
        at = int(rng.integers(0, out.shape[0] + 1))
        out = np.insert(out, at, pts[src], axis=0)
    return out


def assert_matches_reference(K, pts: np.ndarray) -> set[str]:
    """`_disk_pass` and the hull stage against the all-pairs reference,
    field for field, and the kinds of the reference's witnesses.

    Where the reference reports an anomaly, three circles meet at a corner:
    its screen keeps three corners there and the cycle fails, while the
    sweep closes the cycle and reports the triple near-cocircular, with the
    same indices, point and gap as one of the reference's witnesses.
    """
    import khull.hull as hull

    got = hull._disk_pass(IntersectionBody(K, pts))
    want = oracles.reference_disk_pass(K, pts)
    kinds = {w.kind for w in want.witnesses}
    if "anomaly" in kinds:
        assert got.error is None and got.boundary is not None
        assert got.dropped == want.dropped
        assert got.witnesses
        assert {w.kind for w in got.witnesses} == {"near-cocircular"}
        assert set(_witness_fields(got.witnesses)) <= set(_witness_fields(want.witnesses))
        hull._hull_stage(K, pts, got.boundary)  # the hull cycle closes and validates too
        return kinds
    assert _pass_fields(got) == _pass_fields(want)
    if want.boundary is not None:
        assert (_hull_stage_fields(hull._hull_stage, K, pts, got.boundary)
                == _hull_stage_fields(oracles.reference_hull_stage, K, pts, want.boundary))
    return kinds


class TestReferenceDiskPass:
    """`hull._disk_pass` and the hull stage against the reference pipeline
    in tests/oracles.py, field for field."""

    @staticmethod
    def samples(disk):
        from khull.experiments import _replicate_rng

        c = np.array([-0.3, 0.0])
        cases = [np.array([[0.0, A_LENS], [0.0, -A_LENS]]),
                 np.array([c + [math.cos(t), math.sin(t)] for t in (0.0, 0.45, -0.45)])]
        rng = np.random.default_rng(7070)
        for n in (1, 2, 3, 10, 100, 1000, 5000):
            cases += [uniform_sample(disk, n, rng) for _ in range(3)]
        cases += [_with_repeats(uniform_sample(disk, n, rng), rng) for n in (3, 10, 100, 5000)]
        # a third circle 6.04e-8 from a corner (near-cocircular witness), and
        # an owner meeting one corner (anomaly witness, the cycle fails)
        cases.append(uniform_sample(disk, 5000, _replicate_rng(256, 0)[0]))
        cases.append(uniform_sample(disk, 2000, _replicate_rng(404, 1444)[0]))
        return cases

    def test_every_field_equal(self, unit_disk):
        samples = self.samples(unit_disk)
        kinds = [assert_matches_reference(unit_disk, pts) for pts in samples]
        assert set().union(*kinds) >= {"near-cocircular", "anomaly"}
        # the reference fails only on the exact triple and on seed 404 job 1444
        assert [k for k, s in enumerate(kinds) if "anomaly" in s] == [1, len(samples) - 1]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_pair_dist_matches_norm(self, scale):
        from khull.hull import _pair_dist

        rng = np.random.default_rng(8181)
        a = rng.uniform(-scale, scale, (40, 2))
        b = rng.uniform(-scale, scale, (70, 2))
        a[:5] = -0.0
        b[3, 0] = -0.0
        b[4] = a[7]
        want = np.linalg.norm(a[:, None] - b[None], axis=2)
        got = _pair_dist(a, b)
        assert got.tobytes() == want.tobytes()


class TestSweepParity:
    """The stack sweep of `_disk_cycle` against the all-pairs reference, for
    the X cycle and the hull stage: sample families at three scales,
    centred and off-centre, and seeded samples."""

    @staticmethod
    def families() -> list[np.ndarray]:
        """Unit-disk samples: uniform ones, and shapes whose order around
        their hull is degenerate or whose circles nearly touch."""
        unit = Ball(1.0, np.zeros(2))
        rng = np.random.default_rng(9090)
        out = [uniform_sample(unit, n, rng) for n in (8, 50, 2000, 5000, 20000) for _ in range(2)]
        t = rng.uniform(-0.6, 0.6, 40)
        slope = np.array([math.cos(1.1), math.sin(1.1)])
        out += [np.column_stack([t, np.zeros_like(t)]),          # collinear, on an axis
                0.7 * np.column_stack([t, t]),                     # on the diagonal
                np.array([0.1, -0.15]) + t[:, None] * slope,       # on any line
                np.array([[0.3, -0.2], [-0.5, 0.4]])]              # two points
        for k in (5, 12, 64):                                      # rings
            a = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False) + 0.3
            out.append(0.7 * np.column_stack([np.cos(a), np.sin(a)]))
        g = np.linspace(-0.5, 0.5, 7)
        out.append(np.array([(x, y) for x in g for y in g]))      # lattice
        for gap in (1e-3, 1e-9, 0.0):                              # near-antipodal
            out.append(np.array([[0.99 - gap, 0.0], [-0.99 + gap, 1e-12]]))
        return out

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, -2.0)])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_families(self, scale, shift):
        c = scale * np.array(shift)
        K = Ball(scale, c)
        for pts in self.families():
            assert "anomaly" not in assert_matches_reference(K, scale * pts + c)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([2, 3, 10, 100, 1000, 5000]),
           exponent=st.floats(min_value=-6.0, max_value=6.0),
           shift=st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                           st.floats(min_value=-3.0, max_value=3.0)))
    @settings(max_examples=60, deadline=None)
    def test_seeded_samples(self, seed, n, exponent, shift):
        pts = uniform_sample(Ball(1.0, np.zeros(2)), n, np.random.default_rng(seed))
        s = 10.0 ** exponent
        c = s * np.array(shift)
        assert_matches_reference(Ball(s, c), s * pts + c)


class TestCandidateScreen:
    """The cocircularity screen of `_disk_cycle` measures only the rows whose
    circle can reach a corner. Its witnesses (kind, indices, order, point,
    measure) and its cycle must be those of `oracles.reference_disk_cycle`,
    which measures the full corners x rows table, in the X stage (inner =
    the origin) and in the hull stage (inner = the first sample row)."""

    @staticmethod
    def stage_inputs(K, pts, stage: str):
        """(centers, active rows, inner point) of one stage, built as the
        package builds them."""
        import khull.hull as hull

        X = IntersectionBody(K, pts)
        if stage == "x":
            active = X.active[hull._dedupe_rows(pts[X.active])]
            return K.center[None, :] - pts, active, np.zeros(2)
        xb = hull._disk_pass(X).boundary
        vpts = np.array([v.point for v in xb.vertices])
        return K.center[None, :] - vpts, np.arange(vpts.shape[0]), pts[0]

    @staticmethod
    def assert_same(r, centers, active, inner) -> list:
        """Both cycles on the same input, every field equal; the witnesses."""
        import khull.hull as hull

        got, want = [], []
        arcs, verts = hull._disk_cycle(r, centers, active, inner, got)
        ref_arcs, ref_verts = oracles.reference_disk_cycle(
            r, centers, active, EPS_GEO * r, EPS_GP * r, want)
        assert _witness_fields(got) == _witness_fields(want)
        assert (_cycle_fields(ArcBoundary(tuple(arcs), tuple(verts), r))
                == _cycle_fields(ArcBoundary(tuple(ref_arcs), tuple(ref_verts), r)))
        return got

    @pytest.mark.parametrize("stage", ["x", "hull"])
    @pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, -2.0), (1e3, -2e3)])
    @pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
    def test_planted_third_circle(self, r, shift, stage):
        # The third circle passes EPS_GP * r * frac inside the corner farthest
        # from `inner`, its center on the segment from that corner towards
        # `inner`: as close to `inner` as the triangle inequality lets a
        # circle through the window be, so a screen without the corner's
        # reach drops it. The planted row goes in the middle of the rows
        # and after the last one. Then two circles are planted, one at each
        # of two corners whose pair order is not their cycle order: the
        # witnesses come in pair order, the order of the reference's screen.
        import khull.hull as hull

        K = Ball(r, r * np.array(shift))
        rng = np.random.default_rng(6262)
        for n in (50, 2000):
            pts = r * uniform_sample(Ball(1.0, np.zeros(2)), n, rng) + K.center
            centers, active, inner = self.stage_inputs(K, pts, stage)
            # The hull stage's rows are the corners of X in cycle order, so
            # its corners come in pair order; reversed rows put them out of it.
            rows = centers[::-1] if stage == "hull" else centers
            arcs, verts = hull._disk_cycle(r, rows, active, inner, [])
            # vertex k ends arc k: the step between the owners of arcs k, k + 1
            keys = [(a.owner > b.owner, min(a.owner, b.owner), max(a.owner, b.owner))
                    for a, b in zip(arcs, arcs[1:] + arcs[:1])]
            i, j = next((i, j) for j in range(len(keys)) for i in range(j)
                        if keys[i] > keys[j])
            thirds = [verts[k].point + (r - 0.5 * EPS_GP * r)
                      * (inner - verts[k].point) / np.linalg.norm(inner - verts[k].point)
                      for k in (i, j)]
            planted = {rows.shape[0], rows.shape[0] + 1}
            named = [w.indices[2:] for w in
                     self.assert_same(r, np.concatenate([rows, thirds]), active, inner)
                     if planted & set(w.indices[2:])]
            assert named == [(rows.shape[0] + 1,), (rows.shape[0],)]

            verts = hull._disk_cycle(r, centers, active, inner, [])[1]
            p = max((v.point for v in verts), key=lambda q: float(np.linalg.norm(q - inner)))
            toward = (inner - p) / np.linalg.norm(inner - p)
            for frac in (0.5, 0.99, 1.01):
                third = p + (r - frac * EPS_GP * r) * toward
                for at in (centers.shape[0] // 2, centers.shape[0]):
                    planted = np.insert(centers, at, third, axis=0)
                    moved = np.where(active >= at, active + 1, active)
                    witnesses = self.assert_same(r, planted, moved, inner)
                    named = [w for w in witnesses
                             if w.kind == "near-cocircular" and at in w.indices[2:]]
                    assert bool(named) == (frac < 1.0)

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, -2.0), (1e3, -2e3)])
    @pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
    def test_seed_256_replicate_0(self, r, shift):
        # a third circle 6.04e-8 r from a corner of X
        from khull.experiments import _replicate_rng

        K = Ball(r, r * np.array(shift))
        pts = r * uniform_sample(Ball(1.0, np.zeros(2)), 5000, _replicate_rng(256, 0)[0])
        pts += K.center
        kinds = [{w.kind for w in self.assert_same(r, *self.stage_inputs(K, pts, stage))}
                 for stage in ("x", "hull")]
        assert kinds[0] == {"near-cocircular"}
        assert "anomaly" not in assert_matches_reference(K, pts)

    def test_measures_few_rows(self, monkeypatch):
        # at n = 5000 the screen's table is narrower than the active rows'
        import khull.hull as hull

        widths = []
        pair_dist = hull._pair_dist

        def counted(a, b):
            widths.append(b.shape[0])
            return pair_dist(a, b)

        monkeypatch.setattr(hull, "_pair_dist", counted)
        rng = np.random.default_rng(7373)
        for r, shift in ((1.0, (0.0, 0.0)), (1e6, (1e3, -2e3))):
            K = Ball(r, r * np.array(shift))
            for _ in range(5):
                pts = r * uniform_sample(Ball(1.0, np.zeros(2)), 5000, rng) + K.center
                widths.clear()
                hull._disk_pass(IntersectionBody(K, pts))
                assert max(widths) < 200


class TestReachRows:
    """`_disk_pass` builds the X cycle over the screen rows that can reach X
    when its certificate and bound hold, and over every hull row (read from
    `X.active`) otherwise. Both must give the fields of
    `oracles.reference_disk_pass`; the inputs below make it fall back."""

    @staticmethod
    def fell_back(K, pts: np.ndarray) -> bool:
        X = IntersectionBody(K, pts)
        hull._disk_pass(X)
        return "active" in vars(X)

    @staticmethod
    def fallback_cases() -> dict[str, np.ndarray]:
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(4242)
        unit = Ball(1.0, np.zeros(2))
        base = uniform_sample(unit, 5000, rng)
        owners = disk_intersection_boundary(unit, base).arc_owners()
        cycle = ConvexHull(base).vertices.tolist()
        ext = set(np.argmax(hull._SCREEN_DIRECTIONS @ base.T, axis=1).tolist())
        # a hull vertex that owns no arc and is no corner of the screen polygon
        v = next(i for i in cycle if i not in owners and i not in ext)
        x, y = base[v]
        # a point near the circle across the x axis, its x within EPS_GP of v's
        across = [x + 0.5 * EPS_GP, -math.copysign(math.sqrt(1.0 - x * x) * (1.0 - 1e-6), y)]
        step = base[cycle[(cycle.index(v) + 1) % len(cycle)]] - base[v]
        step /= np.linalg.norm(step)
        t = rng.uniform(0.0, 2.0 * math.pi)
        rim = (1.0 - 0.3 * EPS_GP) * np.array([math.cos(t), math.sin(t)])
        turn = np.array([[math.cos(2.5), -math.sin(2.5)], [math.sin(2.5), math.cos(2.5)]])
        inner = 0.2 * uniform_sample(unit, 3000, rng)
        return {
            "copy of an idle hull vertex": np.insert(base, 17, base[v], axis=0),
            # both stay hull vertices, 0.5 EPS_GP apart: a duplicate witness
            "near duplicate": np.insert(
                base, 17, base[v] + 0.5 * EPS_GP * step
                + 1e-3 * EPS_GP * np.array([step[1], -step[0]]), axis=0),
            # far apart, but their x coordinates are within EPS_GP
            "same x": np.insert(base, 17, across, axis=0),
            "two rows by the circle": np.concatenate([base, [rim, turn @ rim]]),
            "near-tangent pair": np.concatenate([base, [rim, -rim]]),
            # the rows near the origin hold the lens of the two far ones
            "two-owner lens": np.concatenate([inner[:1500], [[0.0, 0.8]], inner[1500:],
                                              [[0.0, -0.8]]]),
        }

    @pytest.mark.parametrize("scale, shift", [(1.0, (0.0, 0.0)), (1e-6, (3.0, -2.0)),
                                              (1e6, (1e3, -2e3))])
    def test_fallbacks_match_reference(self, scale, shift):
        K = Ball(scale, scale * np.array(shift))
        kinds = {}
        for name, pts in self.fallback_cases().items():
            pts = scale * pts + K.center
            assert self.fell_back(K, pts), name
            kinds[name] = assert_matches_reference(K, pts)
        assert kinds["near duplicate"] == {"duplicate"}
        assert kinds["near-tangent pair"] == {"near-tangent"}

    @pytest.mark.parametrize("scale, shift", [(1.0, (0.0, 0.0)), (1e-6, (3.0, -2.0)),
                                              (1e6, (1e3, -2e3))])
    def test_seeded_samples_never_read_active(self, scale, shift):
        K = Ball(scale, scale * np.array(shift))
        rng = np.random.default_rng(1616)
        for _ in range(6):
            pts = scale * uniform_sample(Ball(1.0, np.zeros(2)), 5000, rng) + K.center
            assert not self.fell_back(K, pts)
            assert_matches_reference(K, pts)

    # The direct disk passes that fall back, at most, of 200 seeded uniform
    # samples per n. The planar screen runs at every n, so the certificate
    # reads no row inside its polygon: over 10^4 samples per n, 14, 2 and 5
    # fell back at n = 50, 400 and 999, at most 2, 1 and 1 in any 200 in a
    # row.
    DIRECT_FALLBACKS = {50: 2, 400: 1, 999: 1}

    @pytest.mark.parametrize("n", sorted(DIRECT_FALLBACKS))
    def test_direct_samples_rarely_fall_back(self, unit_disk, n):
        rng = np.random.default_rng(2828 + n)
        fell = sum(self.fell_back(unit_disk, uniform_sample(unit_disk, n, rng))
                   for _ in range(200))
        assert fell <= self.DIRECT_FALLBACKS[n]


def _edge_rows(pts: np.ndarray, rng, per_edge: int = 4) -> np.ndarray:
    """Rows on the edges of the polygon the screen spans over `pts`, and
    within a few units of rounding either side of them."""
    from scipy.spatial import ConvexHull
    from khull.hull import _SCREEN_DIRECTIONS

    ext = pts[np.unique(np.argmax(_SCREEN_DIRECTIONS @ pts.T, axis=1))]
    v = ext[ConvexHull(ext).vertices]
    rows = []
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        out = np.array([e[1], -e[0]]) / math.hypot(*e)
        for t in rng.uniform(0.05, 0.95, per_edge):
            q = a + t * e
            rows += [q + s * 1e-16 * np.abs(q).max() * out for s in (-2, -1, 0, 1, 2, 4)]
    return np.array(rows)


class TestPrunePrefilter:
    """`_prune_to_hull` runs qhull on the rows the planar screen keeps; its
    rows must be the vertices of one qhull call over every row and every
    row equal to one of them."""

    @staticmethod
    def assert_parity(pts: np.ndarray) -> None:
        from khull.hull import _akl_toussaint, _prune_to_hull

        want = oracles.plain_prune(pts)
        copies = np.flatnonzero((pts[:, None] == pts[want]).all(axis=2).any(axis=1))
        assert np.array_equal(_prune_to_hull(pts, _akl_toussaint(pts)), copies)

    @staticmethod
    def screened(pts: np.ndarray) -> int:
        """How many rows the screen drops."""
        return pts.shape[0] - hull._akl_toussaint(pts).size

    @pytest.mark.parametrize("n", [1000, 2000, 5000, 20000])
    def test_disk(self, n, unit_disk):
        rng = np.random.default_rng(9100 + n)
        for _ in range(3 if n < 20000 else 1):
            pts = uniform_sample(unit_disk, n, rng)
            self.assert_parity(pts)
        assert self.screened(pts) > n // 2

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_scales_and_off_centre(self, scale):
        rng = np.random.default_rng(9200)
        for center in ([0.0, 0.0], [5.0, -3.0]):
            disk = Ball(scale, np.array(center) * scale)
            pts = uniform_sample(disk, 3000, rng)
            self.assert_parity(pts)
            assert self.screened(pts) > 2000

    @pytest.mark.parametrize("kind", ["ellipse", "pball4", "square"])
    def test_other_bodies(self, kind, ellipse21, pball4, square):
        K = {"ellipse": ellipse21, "pball4": pball4, "square": square}[kind]
        rng = np.random.default_rng(9300)
        for _ in range(3):
            pts = uniform_sample(K, 3000, rng)
            self.assert_parity(pts)
            assert self.screened(pts) > 2000

    def test_repeated_hull_vertices(self, unit_disk):
        rng = np.random.default_rng(9400)
        for n in (2000, 5000):
            pts = _with_repeats(uniform_sample(unit_disk, n, rng), rng)
            pts = _with_repeats(pts, rng)
            self.assert_parity(pts)

    def test_rows_on_and_near_polygon_edges(self, unit_disk):
        # the screen's margin keeps rows within rounding of an edge; with
        # no margin it drops some of them and qhull finds another vertex
        rng = np.random.default_rng(9500)
        for _ in range(20):
            pts = uniform_sample(unit_disk, 1500, rng)
            self.assert_parity(np.vstack([pts, _edge_rows(pts, rng)]))

    def test_rows_exactly_on_square_edges(self):
        # the corners are extreme in every screen direction, so the screen
        # polygon is the square; rows with one coordinate +-1 lie on it
        rng = np.random.default_rng(9600)
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        t = rng.integers(-64, 65, 200) / 64.0
        side = np.column_stack([np.ones(50), t[:50]])
        edge = np.vstack([side, -side, side[:, ::-1], -side[:, ::-1]])
        for scale in (1e-6, 1.0, 1e6):
            pts = rng.permutation(np.vstack([rng.uniform(-1, 1, (1500, 2)), corners, edge]))
            self.assert_parity(pts * scale)

    @pytest.mark.parametrize("jitter", [0.0, 1e-12, 1e-3])
    def test_lattice(self, jitter):
        rng = np.random.default_rng(9700)
        g = np.arange(40) / 8.0
        pts = np.column_stack([np.repeat(g, 40), np.tile(g, 40)])
        pts = pts + jitter * rng.standard_normal(pts.shape)
        for scale in (1e-6, 1.0, 1e6):
            self.assert_parity(rng.permutation(pts) * scale)

    def test_screened_at_every_planar_n(self, unit_disk, unit_ball3):
        rng = np.random.default_rng(9800)
        for n in (4, 10, 999, 1000):
            pts = uniform_sample(unit_disk, n, rng)
            self.assert_parity(pts)
            X = IntersectionBody(unit_disk, pts)
            np.testing.assert_array_equal(X.screen, hull._akl_toussaint(pts))
            np.testing.assert_array_equal(X.active, oracles.plain_prune(pts))
            if n >= 999:
                assert self.screened(pts) > n // 2
        # a d = 3 sample keeps every row
        pts = uniform_sample(unit_ball3, 1000, rng)
        np.testing.assert_array_equal(IntersectionBody(unit_ball3, pts).screen, np.arange(1000))

    def test_thin_and_degenerate_samples_keep_every_row(self):
        rng = np.random.default_rng(9900)
        x = rng.uniform(-1, 1, 2000)
        for pts in (np.column_stack([x, 0.5 * x]),            # collinear
                    np.column_stack([x, 1e-15 * rng.standard_normal(2000)]),
                    np.zeros((2000, 2))):
            assert self.screened(pts) == 0
            self.assert_parity(pts)


class TestBandScreen:
    """`hull._disk_sample` draws a disk sample band first: its band rows,
    at rho r or more from the center, and the inner rows only when the
    polygon of the band's extreme rows does not clear B(c, rho r + EPS_GP
    r) (`_band_screen`). A draw that stops must give what the same sample
    with its inner rows drawn gives; it falls back rarely, and then X is
    built over every row with the full screen."""

    # The seeded draws that fall back to the inner rows, at most, of
    # DRAWS per n. Over 4000 unit-disk draws per n, 95 fell back at
    # n = 10 (rho = 0 there: the polygon must hold the center), and none
    # at n = 30, 50, 100, 400, 1000, 2000, 5000 or (of 300) 10^5.
    FALLBACKS = {10: 4, 50: 0, 400: 0, 1000: 0, 2000: 0, 5000: 0}
    DRAWS = 40

    @staticmethod
    def rho(n: int) -> float:
        return max(0.0, 1.0 - hull.BAND_DEPTH * n ** (-2.0 / 3.0))

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, -2.0), (1e3, -2e3)])
    @pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
    def test_uniform_disks(self, r, shift):
        K = Ball(r, r * np.array(shift))
        rng = np.random.default_rng(5353)
        for n, bound in self.FALLBACKS.items():
            fallbacks = 0
            for _ in range(self.DRAWS):
                X = hull._disk_sample(K, n, rng)
                if X._screen is None:
                    fallbacks += 1
                    assert X.points.shape[0] == n
                    continue
                # the rows the band screen keeps hold every hull row
                assert set(oracles.plain_prune(X.points).tolist()) <= set(X.screen.tolist())
                assert np.all(np.sqrt(K._sq_dist(X.points)) >= self.rho(n) * r * (1 - 1e-12))
            assert fallbacks <= bound, n

    @staticmethod
    def full_cases() -> dict[str, np.ndarray]:
        rng = np.random.default_rng(5454)
        unit = Ball(1.0, np.zeros(2))
        inner = 0.9 * uniform_sample(unit, 2000, rng)
        rim = 0.97 * np.array([[math.cos(t), math.sin(t)] for t in (0.3, 2.4, 4.5)])
        half = uniform_sample(unit, 3000, rng)
        half[:, 1] = np.abs(half[:, 1])
        return {
            "half disk": half,
            "empty band": inner,
            "two band rows": np.concatenate([inner[:700], rim[:2], inner[700:]]),
            # a triangle whose edges pass 0.485 r from the center
            "polygon short of the inner disk": np.concatenate([inner, rim]),
        }

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (3.0, -2.0), (1e3, -2e3)])
    @pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
    def test_full_screen_cases(self, r, shift):
        # with the band at 0.93 r, none of these bands clears the inner
        # disk; X over every row takes the full screen
        K = Ball(r, r * np.array(shift))
        for name, pts in self.full_cases().items():
            pts = r * pts + K.center
            band = pts[np.sqrt(K._sq_dist(pts)) >= 0.93 * r]
            assert hull._band_screen(K, band, 0.93, hull._SCREEN_DIRECTIONS) is None, name
            np.testing.assert_array_equal(IntersectionBody(K, pts).screen,
                                          hull._akl_toussaint(pts))
            assert_matches_reference(K, pts)

    @pytest.mark.parametrize("r, shift", [(1e-6, (3.0, -2.0)), (1.0, (3.0, -2.0)),
                                          (1e6, (1e3, -2e3))])
    def test_stop_rule(self, r, shift):
        # rows drawn uniform in B(c, rho r) after a draw that stopped
        # change nothing the replicate reads
        from khull.faces import _family

        def fields(X) -> tuple:
            family = _family(X, 256)
            return (family.fvector, family.columns, family.sizes,
                    _witness_fields(family.report.witnesses), family.report.describe(),
                    _cycle_fields(family.report.boundary),
                    None if family.error is None else str(family.error))

        K = Ball(r, r * np.array(shift))
        rng = np.random.default_rng(5656)
        for n in (50, 400, 1000, 2000, 5000):
            rho = self.rho(n)
            for _ in range(3):
                X = hull._disk_sample(K, n, rng)
                assert X._screen is not None
                want = fields(X)
                band = X.points.shape[0]
                for count in (1, n - band, 2 * n):
                    inner = uniform_sample(Ball(rho * r, K.center), count, rng)
                    got = fields(IntersectionBody(K, np.concatenate([X.points, inner])))
                    assert got == want, (n, count)

    @pytest.mark.parametrize("r, shift", [(1.0, (0.0, 0.0)), (1e-6, (3.0, -2.0)),
                                          (1e6, (1e3, -2e3))])
    def test_squares_are_those_of_the_cycle(self, r, shift):
        # the X cycle's candidate test sums dx * dx + dy * dy over the
        # centers K.center - x, about the origin; X keeps the same bits
        K = Ball(r, r * np.array(shift))
        pts = r * uniform_sample(Ball(1.0, np.zeros(2)), 3000, np.random.default_rng(5555))
        pts += K.center
        centers = K.center[None, :] - pts
        dx, dy = centers[:, 0] - 0.0, centers[:, 1] - 0.0
        assert IntersectionBody(K, pts).sq.tobytes() == (dx * dx + dy * dy).tobytes()


def _homogeneity_p(a: list[int], b: list[int]) -> float:
    """p-value of the chi-square test that two integer samples share a pmf;
    values are pooled from each end until every bin holds 20 draws."""
    from scipy.stats import chi2_contingency

    values = sorted(set(a) | set(b))
    table = np.array([[a.count(v) for v in values], [b.count(v) for v in values]])
    bins = [table[:, 0]]
    for col in table[:, 1:].T:
        if bins[-1].sum() < 20:
            bins[-1] = bins[-1] + col
        else:
            bins.append(col)
    if len(bins) > 1 and bins[-1].sum() < 20:
        bins[-2] = bins[-2] + bins.pop()
    return float(chi2_contingency(np.array(bins).T)[1])


class TestDiskSampleLaw:
    """The two-sample oracle of `hull._disk_sample` (the slow test of this
    file, a few seconds): over independent seeded draws, the pmfs of X's
    f1 and of the sample's hull-vertex count match those of X over
    `uniform_sample`, by a chi-square test of homogeneity."""

    DRAWS = 1500

    @staticmethod
    def counts(draw, seeds) -> tuple[list[int], list[int]]:
        from khull.faces import _family

        f1, hull_rows = [], []
        for seed in seeds:
            X = draw(np.random.default_rng(seed))
            family = _family(X, 256)
            if family.fvector is not None and family.report.ok:
                f1.append(family.fvector[1])
            hull_rows.append(X.active.size)
        return f1, hull_rows

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_two_samples(self, n):
        K = Ball(1.0, np.zeros(2))
        full = self.counts(lambda g: IntersectionBody(K, uniform_sample(K, n, g)),
                           range(self.DRAWS))
        band = self.counts(lambda g: hull._disk_sample(K, n, g),
                           range(self.DRAWS, 2 * self.DRAWS))
        for a, b in zip(full, band):
            assert _homogeneity_p(a, b) > 1e-3
            assert abs(np.mean(a) - np.mean(b)) < 4 * math.sqrt(
                (np.var(a) + np.var(b)) / len(a))


class TestSeedReuse:
    """`_disk_pass` uses `_reach_rows`' seed sweep as X's sweep when no more
    screen rows reach X than it swept, and sweeps the rows it picks
    otherwise. Every field must be that of `oracles.reference_reach_pass`,
    which always sweeps them, and of the all-pairs reference."""

    @staticmethod
    def reuses(K, pts: np.ndarray) -> bool | None:
        """Whether the reuse applies, i.e. `_reach_rows` returns a sweep;
        None when it picks no rows."""
        X = IntersectionBody(K, pts)
        reach = hull._reach_rows(K.radius, K.center[None, :] - pts, X.screen, X.sq)
        if reach is None:
            return None
        return reach[1] is not None

    @staticmethod
    def sweeps(K, pts: np.ndarray):
        """`_disk_pass` over the sample, and how many sweeps it ran."""
        calls = []
        sweep = hull._arc_sweep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hull, "_arc_sweep", lambda *a: calls.append(1) or sweep(*a))
            got = hull._disk_pass(IntersectionBody(K, pts))
        return got, len(calls)

    @pytest.mark.parametrize("scale, shift", [(1.0, (0.0, 0.0)), (1e-6, (3.0, -2.0)),
                                              (1e6, (1e3, -2e3))])
    def test_matches_reference(self, scale, shift):
        K = Ball(scale, scale * np.array(shift))
        rng = np.random.default_rng(3131)
        seen = []
        for n in (400, 1000, 2000, 5000) * 6:
            pts = scale * uniform_sample(Ball(1.0, np.zeros(2)), n, rng) + K.center
            got, sweeps = self.sweeps(K, pts)
            assert _pass_fields(got) == _pass_fields(oracles.reference_reach_pass(K, pts))
            assert_matches_reference(K, pts)
            reuse = self.reuses(K, pts)
            assert reuse is not None
            assert sweeps == (1 if reuse else 2)
            seen.append(reuse)
        assert set(seen) == {True, False}

    def test_fallbacks_match_reference(self):
        for name, pts in TestReachRows.fallback_cases().items():
            K = Ball(1.0, np.zeros(2))
            assert self.reuses(K, pts) is None, name
            got = hull._disk_pass(IntersectionBody(K, pts))
            assert _pass_fields(got) == _pass_fields(oracles.reference_reach_pass(K, pts))

    def test_tie_at_the_seed_boundary(self):
        # the copy (-y, x) of the SEED_ROWS-th farthest screen row has its
        # squared norm's bits, so the seed rows hold one of the two, either
        K = Ball(1.0, np.zeros(2))
        seen = set()
        for seed in range(7070, 7075):
            pts = uniform_sample(K, 5000, np.random.default_rng(seed))
            X = IntersectionBody(K, pts)
            far = X.screen[np.argsort(X.sq[X.screen])[::-1]]
            x, y = pts[far[hull.SEED_ROWS - 1]]
            pts = np.concatenate([pts, [[-y, x]]])
            X = IntersectionBody(K, pts)
            sq = np.sort(X.sq[X.screen])[::-1]
            assert 5000 in X.screen and sq[hull.SEED_ROWS - 1] == sq[hull.SEED_ROWS]
            reach = hull._reach_rows(1.0, -pts, X.screen, X.sq)
            assert reach is not None
            seen.add((reach[1] is not None, 5000 in reach[0]))
            assert "anomaly" not in assert_matches_reference(K, pts)
        # reused with the copy among the seed rows and without it, and swept again
        assert {(True, True), (True, False)} <= seen
        assert any(not reused for reused, _ in seen)


class TestGauges:
    """`IntersectionBody.gauges` reads the polar hull's gauges off the
    sample check: an Ellipsoid's norms are its translate's `gauge_batch`
    bit for bit, a Ball's |x - c| / r agree with it to rounding, and other
    kinds take `gauge_batch` itself."""

    @staticmethod
    def both(K, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        pts = uniform_sample(K, n, np.random.default_rng(seed))
        rows = np.arange(0, n, 3)
        Kc, c = hull._centred(K)
        return IntersectionBody(K, pts).gauges(rows), Kc.gauge_batch(pts[rows] - c)

    def test_ellipsoids_bit_for_bit(self):
        t = 0.7
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        for k, E in enumerate([Ellipsoid([2.0, 1.0], np.zeros(2)),
                               Ellipsoid([2.0, 1.0], np.array([5.0, -3.0]), rot),
                               Ellipsoid([1e-6, 3e-6], np.array([1e-5, 0.0])),
                               Ellipsoid([3.0, 1.0, 2.0], np.array([0.5, 0.0, -1.0]))]):
            got, want = self.both(E, 600, 6060 + k)
            assert got.tobytes() == want.tobytes()

    def test_balls_to_rounding(self):
        for k, (d, r, c) in enumerate([(2, 1.0, 0.0), (3, 1.0, 0.0), (2, 1e6, 1e3),
                                       (3, 1e-6, -3.0)]):
            got, want = self.both(Ball(r, np.full(d, c * r)), 600, 6160 + k)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=8 * np.finfo(float).eps)

    def test_other_kinds_take_the_gauge(self, pball4, square):
        for k, K in enumerate([pball4, square, PNormBall(3.0, 2.0, np.array([1.0, 1.0]))]):
            got, want = self.both(K, 300, 6260 + k)
            assert got.tobytes() == want.tobytes()


class TestFacetCount:
    """A disk row's `kfacets` is X's corner count (`faces._family`), and its
    hull cycle is built only for the `sample-hull` dump. The hull cycle
    behind `kfacet_count_2d`, one arc per corner of X, stays the oracle of
    that count on every disk fixture of this file."""

    @staticmethod
    def assert_counts(K, pts: np.ndarray) -> None:
        from khull.faces import _family

        family = _family(IntersectionBody(K, pts), 256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GeneralPositionWarning)
            if family.error is not None:
                with pytest.raises(NumericError):
                    kfacet_count_2d(K, pts)
                return
            assert family.columns["kfacets"] == kfacet_count_2d(K, pts)

    @pytest.mark.parametrize("scale, shift", [(1.0, (0.0, 0.0)), (1e-6, (3.0, -2.0)),
                                              (1e6, (1e3, -2e3))])
    def test_every_fixture(self, scale, shift):
        unit = Ball(1.0, np.zeros(2))
        rng = np.random.default_rng(2121)
        cases = [*TestReachRows.fallback_cases().values(),
                 *TestBandScreen.full_cases().values(),
                 *TestSweepParity.families(), *TestReferenceDiskPass.samples(unit)]
        cases += [uniform_sample(unit, n, rng) for n in (2, 3, 10, 400, 1000, 5000)
                  for _ in range(3)]
        K = Ball(scale, scale * np.array(shift))
        for pts in cases:
            self.assert_counts(K, scale * pts + K.center)

    def test_two_row_spindle(self, unit_disk):
        # X's two corners lie within EPS_GP r of 2r apart, so the hull cycle
        # finds its two circles near-tangent; X's own pass finds nothing,
        # and the row, whose verdict is X's, is kept
        from khull.faces import _family

        pts = np.array([[0.0, 0.0], [1e-4, 0.0]])
        family = _family(IntersectionBody(unit_disk, pts), 256)
        assert family.error is None and family.report.ok
        assert family.fvector == (2, 1) and family.columns["kfacets"] == 2
        with pytest.warns(GeneralPositionWarning, match="hull stage: near-tangent"):
            assert len(khull_boundary_2d(unit_disk, pts).arcs) == 2
