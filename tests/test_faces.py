import math

import numpy as np
import pytest

import oracles
from khull import (Ball, DomainError, Ellipsoid, GeneralPositionError, PNormBall,
                   Polytope, direction_grid, disk_intersection_boundary, fvector_approx,
                   fvector_bound_ok, fvector_exact_2d, fvector_from_tagged_hull,
                   general_position_check_2d, kfacet_count_2d,
                   intrinsic_volumes, khull_boundary_2d, owner_tagged_hull, polar_family,
                   polytope_fvector, tagged_hull_from_points, uniform_sample)
from khull import IntersectionBody, faces, hull, tessellation

LENS = np.array([[0.0, 0.6], [0.0, -0.6]])


def cocircular_triple():
    """Three sample points on a unit circle whose disk contains them all."""
    c = np.array([-0.3, 0.0])
    return np.array([c + [math.cos(t), math.sin(t)] for t in (0.0, 0.45, -0.45)])


def disk_sample(rng, n):
    return uniform_sample(Ball(1.0, np.zeros(2)), n, rng) * 0.9


class TestGeneralPosition:
    def test_random_sample_ok(self, unit_disk, rng):
        for n in (2, 5, 20):
            report = general_position_check_2d(unit_disk, disk_sample(rng, n))
            assert report.ok
            assert report.witnesses == ()
            assert report.describe() == "ok"

    def test_cocircular_triple_flagged(self, unit_disk):
        report = general_position_check_2d(unit_disk, cocircular_triple())
        assert not report.ok
        kinds = {w.kind for w in report.witnesses}
        assert "near-cocircular" in kinds
        flagged = set().union(*(w.indices for w in report.witnesses
                                if w.kind == "near-cocircular"))
        assert flagged == {0, 1, 2}

    def test_duplicate_flagged(self, unit_disk):
        pts = np.array([[0.1, 0.2], [0.4, -0.3], [0.1, 0.2]])
        report = general_position_check_2d(unit_disk, pts)
        assert not report.ok
        assert any(w.kind == "duplicate" for w in report.witnesses)

    def test_interior_repeat_not_flagged(self, unit_disk, rng):
        pts = disk_sample(rng, 30)
        inner = int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
        report = general_position_check_2d(unit_disk, np.vstack([pts, pts[inner]]))
        assert report.ok
        assert report.witnesses == ()

    def test_repeated_hull_vertex_flagged_with_first_owner(self, unit_disk, rng):
        pts = disk_sample(rng, 30)
        plain = general_position_check_2d(unit_disk, pts).boundary
        owner = min(plain.arc_owners())
        # the copy goes first, so the original row is no longer the first occurrence
        report = general_position_check_2d(unit_disk, np.vstack([pts[owner], pts]))
        assert not report.ok
        assert report.witnesses[0].kind == "duplicate"
        shifted = {o + 1 for o in plain.arc_owners()}
        assert report.boundary.arc_owners() == (shifted - {owner + 1}) | {0}

    def test_dropped_copy_named_with_its_first_occurrence(self, unit_disk):
        # a copy of a hull vertex at row 100 of 501: the witness names the
        # row dropped and the row kept, and the report says how many
        from scipy.spatial import ConvexHull

        pts = uniform_sample(unit_disk, 500, np.random.default_rng(7171))
        for v in ConvexHull(pts).vertices[:6].tolist():
            report = general_position_check_2d(unit_disk, np.insert(pts, 100, pts[v], axis=0))
            pair = (v, 100) if v < 100 else (100, v + 1)
            assert [w.indices for w in report.witnesses] == [pair]
            assert report.describe() == f"duplicate at indices {pair} (measure 0.000e+00)"

    def test_old_probe_sample_is_near_cocircular(self, unit_disk):
        # job 0 of master seed 256 as `uniform_sample` draws it: a third
        # circle 6.038e-08 from a corner of X, inside the EPS_GP window
        from khull.experiments import _replicate_rng

        pts = uniform_sample(unit_disk, 5000, _replicate_rng(256, 0)[0])
        report = faces._family(IntersectionBody(unit_disk, pts), 256).report
        assert {w.kind for w in report.witnesses} == {"near-cocircular"}
        assert [f"{w.measure:.3e}" for w in report.witnesses] == ["6.038e-08"]

    def test_near_tangent_pair_flagged(self, unit_disk):
        h = 1.0 - 5e-9
        pts = np.array([[0.0, h], [0.0, -h]])
        report = general_position_check_2d(unit_disk, pts)
        assert not report.ok
        assert any(w.kind == "near-tangent" for w in report.witnesses)


class TestFvectorExact2d:
    def test_lens(self, unit_disk):
        b = disk_intersection_boundary(unit_disk, LENS)
        assert fvector_exact_2d(b) == (2, 1)

    def test_single_point(self, unit_disk):
        b = disk_intersection_boundary(unit_disk, np.array([[0.2, 0.1]]))
        assert fvector_exact_2d(b) == (1, 0)

    def test_equal_components_on_random_samples(self, unit_disk, rng):
        for n in (3, 7, 15, 40):
            pts = disk_sample(rng, n)
            b = disk_intersection_boundary(unit_disk, pts)
            f0, f1 = fvector_exact_2d(b)
            assert f0 == f1 == len(b.arcs)
            assert 2 <= f0 <= n
            assert fvector_bound_ok((f0, f1))

    def test_bad_report_raises(self, unit_disk):
        pts = cocircular_triple()
        report = general_position_check_2d(unit_disk, pts)
        b = disk_intersection_boundary(unit_disk, LENS)
        with pytest.raises(GeneralPositionError) as err:
            fvector_exact_2d(b, report)
        assert not err.value.report.ok


class TestPolarFamily:
    def test_centered_disk_polar_is_unit(self, unit_disk):
        family = polar_family(unit_disk, np.zeros((1, 2)), m=128)
        owner, verts = family[0]
        assert owner == 0
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0,
                                   atol=1e-12)

    def test_offset_disk_polar_radial(self, unit_disk):
        family = polar_family(unit_disk, np.array([[0.5, 0.0]]), m=512)
        _, verts = family[0]
        norms = np.linalg.norm(verts, axis=1)
        # support of K-y in direction e1 is 0.5, so polar reaches 2 there
        assert norms.max() == pytest.approx(2.0, abs=1e-3)
        assert norms.min() == pytest.approx(1.0 / 1.5, abs=1e-3)
        # every vertex satisfies |v| * support(K-y, v/|v|) = 1 exactly
        for v in verts[::37]:
            w = v / np.linalg.norm(v)
            h = 1.0 - 0.5 * w[0]
            assert np.linalg.norm(v) == pytest.approx(1.0 / h, abs=1e-12)

    def test_inscribed_error_quadratic_in_m(self, unit_disk):
        def inradius(m):
            _, verts = polar_family(unit_disk, np.zeros((1, 2)), m=m)[0]
            rolled = np.roll(verts, -1, axis=0)
            mid = 0.5 * (verts + rolled)
            return float(np.linalg.norm(mid, axis=1).min())

        err = {m: 1.0 - inradius(m) for m in (64, 128, 256)}
        assert err[256] < 1.2 * math.pi ** 2 / (2 * 256 ** 2)
        assert 3.9 < err[64] / err[128] < 4.1
        assert 3.9 < err[128] / err[256] < 4.1

    def test_point_outside_interior_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            polar_family(unit_disk, np.array([[1.0, 0.0]]), m=64)


def _polar_hull(K, pts, m):
    """The package's polar hull, built from the sample's intersection body."""
    return faces._polar_hull(IntersectionBody(K, pts), m)


def full_polar_hull(K, pts, m):
    """The reference: the hull of all n x m polar vertices."""
    return owner_tagged_hull(polar_family(K, pts, m))


def assert_same_polar_hull(K, pts, m):
    T, R = _polar_hull(K, pts, m), full_polar_hull(K, pts, m)
    np.testing.assert_array_equal(T.points, R.points)
    np.testing.assert_array_equal(T.owners, R.owners)
    assert fvector_from_tagged_hull(T) == fvector_from_tagged_hull(R)
    # qhull may list the facets of a d = 3 hull in another order
    assert set(T.facets) == set(R.facets)
    return T


# Every body kind in d = 2 and 3, plus a polygon.
PARITY_BODIES = {
    "disk": Ball(1.0, np.zeros(2)),
    "ball3": Ball(1.0, np.zeros(3)),
    "ellipse": Ellipsoid([2.0, 1.0], np.zeros(2)),
    "ellipsoid3": Ellipsoid([1.5, 1.0, 0.7], np.zeros(3)),
    "pball2": PNormBall(4.0, 1.0, np.zeros(2)),
    "pball3": PNormBall(3.0, 1.0, np.zeros(3)),
    "polygon": Polytope([[-1.0, -0.8], [1.2, -0.5], [0.3, 1.1], [-0.7, 0.9]]),
}


D3_BODIES = [k for k, K in PARITY_BODIES.items() if K.dim == 3]


def moved(K, scale, shift):
    """The body K scaled by `scale` about the origin, then shifted."""
    shift = np.asarray(shift, dtype=float)
    if isinstance(K, Polytope):
        return Polytope(scale * K.vertices + shift)
    c = scale * K.center + shift
    if isinstance(K, Ball):
        return Ball(scale * K.radius, c)
    if isinstance(K, Ellipsoid):
        return Ellipsoid(scale * K.axes, c, K.rotation)
    return PNormBall(K.p, scale * K.scale, c)


def prune_calls(monkeypatch):
    """Calls of the sample prune that IntersectionBody.active runs."""
    calls = []
    prune = hull._prune_to_hull

    def counted(points, rows):
        calls.append(len(points))
        return prune(points, rows)

    monkeypatch.setattr(hull, "_prune_to_hull", counted)
    return calls


def hull_inputs(monkeypatch):
    """Point counts of every cloud tagged_hull_from_points is given; the
    polar hull hands it its kept points and their owners."""
    sizes = []
    original = faces.tagged_hull_from_points

    def counting(points, owners=None):
        sizes.append(len(points))
        return original(points, owners)

    monkeypatch.setattr(faces, "tagged_hull_from_points", counting)
    return sizes


def tied_pair_2d(m):
    """Two rows of the ellipse (2, 1) whose support gaps on w_0 are equal,
    bit for bit: y sits on the line through x orthogonal to w_0."""
    W = direction_grid(2, m)
    x = np.array([1.5, 0.2])
    perp = np.array([-W[0, 1], W[0, 0]])
    y = next(x + s * perp for s in np.arange(1, 400) / 256.0
             if (W @ (x + s * perp))[0] == (W @ x)[0])
    return np.vstack([x, y])


def winner_rows(K, X, m=256):
    """faces._winner_rows over the sample X of K, with K's grid and the
    gauges of X about K's interior point."""
    W, base, hc = faces._polar_grid(K, m)
    Kc, c = hull._centred(K)
    return faces._winner_rows(W, base, hc, X, Kc.gauge_batch(X - c))


class TestPolarHull:
    @pytest.mark.parametrize("m", [64, 256])
    @pytest.mark.parametrize("n", [2, 3, 10, 300])
    @pytest.mark.parametrize("body", PARITY_BODIES)
    def test_matches_full_family(self, body, n, m, rng):
        K = PARITY_BODIES[body]
        assert_same_polar_hull(K, uniform_sample(K, n, rng), m)

    @pytest.mark.parametrize("n, m", [(1000, 64), (1000, 256), (5000, 64)])
    @pytest.mark.parametrize("body", [k for k, K in PARITY_BODIES.items() if K.dim == 2])
    def test_matches_full_family_screened(self, body, n, m, rng):
        # planar samples are screened before the polar hull reads them
        K = PARITY_BODIES[body]
        pts = uniform_sample(K, n, rng)
        assert IntersectionBody(K, pts).screen.size < n // 2
        assert_same_polar_hull(K, pts, m)

    @pytest.mark.parametrize("n, m", [(1000, 64), (1000, 256), (5000, 64), (5000, 256)])
    @pytest.mark.parametrize("body", D3_BODIES)
    def test_matches_full_family_screened_d3(self, body, n, m, rng):
        # d = 3 samples skip the prune: one screening product picks the rows
        K = PARITY_BODIES[body]
        assert_same_polar_hull(K, uniform_sample(K, n, rng), m)

    @pytest.mark.parametrize("scale, shift", [(1e-6, (0.0, 0.0, 0.0)), (1e6, (0.0, 0.0, 0.0)),
                                              (1.0, (5.0, -3.0, 2.0)),
                                              (1e6, (5e6, -3e6, 2e6))],
                             ids=["small", "large", "off-centre", "large-off-centre"])
    @pytest.mark.parametrize("body", D3_BODIES)
    def test_matches_full_family_moved_d3(self, body, scale, shift, rng):
        K = moved(PARITY_BODIES[body], scale, shift)
        assert_same_polar_hull(K, uniform_sample(K, 1000, rng), 256)

    @pytest.mark.parametrize("body", D3_BODIES)
    def test_screen_keeps_every_gap_minimizer(self, body, unit_ball3, rng):
        K = PARITY_BODIES[body]
        # tied directions: mirror images in y tie on w_0, whose y is 0
        tied = np.array([[0.1, 0.3, 0.6], [0.1, -0.3, 0.6]])
        for scale, shift in [(1e-6, (0.0, 0.0, 0.0)), (1.0, (0.0, 0.0, 0.0)),
                             (1e6, (0.0, 0.0, 0.0)), (1.0, (5.0, -3.0, 2.0)),
                             (1e6, (5e6, -3e6, 2e6))]:
            Ks = moved(K, scale, shift)
            W, base, _ = faces._polar_grid(Ks, 256)
            pts = uniform_sample(Ks, 300, rng)
            for X in (pts, np.vstack([pts, pts[::7]]),
                      np.vstack([0.5 * (pts - Ks.center) + Ks.center,
                                 scale * tied + Ks.center])):
                want = oracles.gap_minimizers(W, base, X)
                got = winner_rows(Ks, X)
                assert np.isin(want, got).all()
                assert np.all(np.diff(got) > 0)
                # the gauge screen runs, and drops rows
                assert got.size < X.shape[0]
        W = direction_grid(3, 256)
        X = np.vstack([0.5 * uniform_sample(unit_ball3, 30, rng), tied])
        want = oracles.gap_minimizers(W, unit_ball3.support_batch(W), X)
        assert {30, 31} <= set(want.tolist())

    def test_d3_route_does_not_prune(self, monkeypatch, rng):
        calls = prune_calls(monkeypatch)
        for body in D3_BODIES:
            K = PARITY_BODIES[body]
            _polar_hull(K, uniform_sample(K, 1000, rng), 256)
        assert calls == []

    def test_d2_route_does_not_prune(self, monkeypatch, rng):
        # both dimensions pick their rows with `_winner_rows`; a planar
        # sample is screened, not pruned
        calls = prune_calls(monkeypatch)
        for body in [k for k, K in PARITY_BODIES.items() if K.dim == 2]:
            K = PARITY_BODIES[body]
            for n in (400, 1000):
                _polar_hull(K, uniform_sample(K, n, rng), 256)
        assert calls == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_gaps_match_per_member(self, d, rng):
        W = direction_grid(d, 256)
        for scale in (1e-6, 1.0, 1e6):
            base = scale * (1.0 + rng.random(256))
            X = scale * rng.uniform(-1.0, 1.0, (300, d))
            want = np.array([base - W @ x for x in X])
            assert faces._support_gaps(W, base, X).tobytes() == want.tobytes()
            assert faces._support_gaps(W, base, X[::7]).tobytes() == want[::7].tobytes()

    def test_lens(self, unit_disk):
        T = assert_same_polar_hull(unit_disk, LENS, 256)
        assert fvector_from_tagged_hull(T) == (2, 1)

    def test_d3_antipodal_pair(self, unit_ball3):
        pts = np.array([[0.0, 0.0, 0.55], [0.0, 0.0, -0.55]])
        T = assert_same_polar_hull(unit_ball3, pts, 400)
        assert fvector_from_tagged_hull(T) == (2, 1, 0)

    def test_one_point_per_direction(self, monkeypatch, ellipse21, rng):
        sizes = hull_inputs(monkeypatch)
        _polar_hull(ellipse21, uniform_sample(ellipse21, 400, rng), 256)
        assert sizes == [256]

    def test_tied_direction_keeps_both_members_2d(self, monkeypatch, ellipse21, rng):
        m = 64
        pts = np.vstack([0.5 * uniform_sample(ellipse21, 50, rng), tied_pair_2d(m)])
        sizes = hull_inputs(monkeypatch)
        assert_same_polar_hull(ellipse21, pts, m)
        assert sizes[0] == m + 1

    def test_tied_direction_keeps_both_members_3d(self, monkeypatch, unit_ball3, rng):
        # w_0 has a zero y component, so mirror images in y tie on it
        m = 256
        assert direction_grid(3, m)[0, 1] == 0.0
        pts = np.vstack([0.5 * uniform_sample(unit_ball3, 30, rng),
                         [[0.1, 0.3, 0.6], [0.1, -0.3, 0.6]]])
        sizes = hull_inputs(monkeypatch)
        assert_same_polar_hull(unit_ball3, pts, m)
        assert sizes[0] == m + 1

    def test_repeated_points_keep_every_copy(self, ellipse21, rng):
        pts = uniform_sample(ellipse21, 30, rng)
        assert_same_polar_hull(ellipse21, np.vstack([pts, pts[:5]]), 64)

    def test_off_centre_body(self, ellipse21, rng):
        # (K + c) - (x + c) = K - x: the family does not see the shift
        c = np.array([5.0, 5.0])
        pts = uniform_sample(ellipse21, 200, rng)
        T = _polar_hull(ellipse21.translate(c), pts + c, 256)
        R = _polar_hull(ellipse21, pts, 256)
        assert fvector_from_tagged_hull(T) == fvector_from_tagged_hull(R)
        np.testing.assert_allclose(T.points, R.points, rtol=1e-9)

    def test_point_outside_interior_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            _polar_hull(unit_disk, np.array([[0.0, 0.0], [1.0, 0.0]]), m=64)
        with pytest.raises(DomainError):
            _polar_hull(unit_disk.translate([5.0, 5.0]),
                        np.array([[5.0, 5.0], [0.0, 0.0]]), m=64)


# Bodies of every kind the polar route serves, off-centre and cornered
# ones among them.
PARITY_BODIES_SCREENED = {
    "ellipse-off-centre": Ellipsoid([2.0, 1.0], [5.0, -3.0],
                                    [[0.8, -0.6], [0.6, 0.8]]),
    "triangle": Polytope([[-1.0, -1.0], [1.5, -0.5], [0.0, 1.2]]),
    "square": Polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    "cube": Polytope([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                      for z in (-1.0, 1.0)]),
    "pball4-2": PNormBall(4.0, 1.0, np.zeros(2)),
    "pball4-3": PNormBall(4.0, 1.0, np.zeros(3)),
    "ellipse": Ellipsoid([2.0, 1.0], np.zeros(2)),
    "ball3": Ball(1.0, np.zeros(3)),
}


def assert_polar_parity(K, pts, m):
    """Every field of the polar hull equals that of the hull of the
    winners over every row (`oracles.reference_polar_hull`); in d = 2 it
    also equals the hull of the full family, field for field. In d = 3
    qhull lists the full family's facets in its own order."""
    T = _polar_hull(K, pts, m)
    oracles.assert_same_polytope(T, oracles.reference_polar_hull(K, pts, m))
    if K.dim == 2:
        oracles.assert_same_polytope(T, full_polar_hull(K, pts, m))
    else:
        assert_same_polar_hull(K, pts, m)
    return T


class TestPolarHullParity:
    """The gauge screen and the screened chain leave every field as it is."""

    @pytest.mark.parametrize("n", [2 * faces.PROBE_ROWS, 2 * faces.PROBE_ROWS + 1, 400])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("body", PARITY_BODIES_SCREENED)
    def test_matches_every_row(self, body, scale, n, rng):
        K = moved(PARITY_BODIES_SCREENED[body], scale, np.zeros(PARITY_BODIES_SCREENED[body].dim))
        assert_polar_parity(K, uniform_sample(K, n, rng), 256)

    @pytest.mark.parametrize("body", PARITY_BODIES_SCREENED)
    def test_copies_of_winning_rows(self, monkeypatch, body, rng):
        K = PARITY_BODIES_SCREENED[body]
        pts = uniform_sample(K, 300, rng)
        won = np.unique(_polar_hull(K, pts, 64).owners)
        pts = np.vstack([pts, pts[won[::2]], pts[won[:3]]])
        sizes = hull_inputs(monkeypatch)
        assert_polar_parity(K, pts, 64)
        # each copy of a winning row wins the same rays, as a tied member
        assert sizes[0] > 64

    def test_exact_tie_2d(self, ellipse21, rng):
        # the tied pair of test_tied_direction_keeps_both_members_2d, among
        # enough rows for the gauge screen to run
        pts = np.vstack([0.5 * uniform_sample(ellipse21, 300, rng), tied_pair_2d(64)])
        T = assert_polar_parity(ellipse21, pts, 64)
        assert {300, 301} <= set(T.owners.tolist())

    def test_exact_tie_3d(self, unit_ball3, rng):
        pts = np.vstack([0.5 * uniform_sample(unit_ball3, 300, rng),
                         [[0.1, 0.3, 0.6], [0.1, -0.3, 0.6]]])
        T = assert_polar_parity(unit_ball3, pts, 256)
        assert {300, 301} <= set(T.owners.tolist())

    # Sample sizes whose screen rows, every row in d = 3, number more than
    # 2 * PROBE_ROWS: about 250 of 5000 ellipse rows and 170-460 of 50000
    # square rows survive the planar screen.
    GAUGE_SCREEN_N = {"ellipse": 5000, "ball3": 900, "square": 50000, "cube": 900}

    @pytest.mark.parametrize("body", ["ellipse", "ball3", "square", "cube"])
    def test_gauge_screen_drops_rows(self, monkeypatch, body, rng):
        # the screen runs above 2 * PROBE_ROWS rows and keeps far fewer
        K = PARITY_BODIES_SCREENED[body]
        kept = []
        screen = faces._winner_rows

        def counted(W, base, hc, points, gauge):
            rows = screen(W, base, hc, points, gauge)
            kept.append((points.shape[0], rows.size))
            return rows

        monkeypatch.setattr(faces, "_winner_rows", counted)
        sizes = []
        for n in (2 * faces.PROBE_ROWS + 1, self.GAUGE_SCREEN_N[body]):
            X = IntersectionBody(K, uniform_sample(K, n, rng))
            faces._polar_hull(X, 256)
            sizes.append(X.screen.size)
        # the winner screens read X's screen rows, every row in d = 3
        assert [n for n, _ in kept] == sizes
        if K.dim == 3:
            assert sizes == [2 * faces.PROBE_ROWS + 1, 900]
        assert sizes[1] > 2 * faces.PROBE_ROWS
        assert kept[1][1] < sizes[1] // 2

    def test_grid_cached_read_only(self, ellipse21):
        W, base, hc = faces._polar_grid(ellipse21, 256)
        assert faces._polar_grid(ellipse21, 256)[0] is W
        assert W.tobytes() == direction_grid(2, 256).tobytes()
        assert base.tobytes() == ellipse21.support_batch(W).tobytes()
        for a in (W, base, hc):
            with pytest.raises(ValueError):
                a[0] = 0.0


def ring(n, scale=1.0, shift=(0.0, 0.0)):
    t = np.arange(n) * (2.0 * math.pi / n)
    return scale * np.column_stack([np.cos(t), np.sin(t)]) + np.asarray(shift)


def chain_clouds(rng):
    """Planar clouds for the screened chain: polar clouds, rings, rows on
    lines and repeated rows, around CHAIN_SCREEN_MIN and above it."""
    low = faces.CHAIN_SCREEN_MIN
    clouds = {}
    for name in ("ellipse", "pball4-2", "square", "triangle", "ellipse-off-centre"):
        K = PARITY_BODIES_SCREENED[name]
        pts = uniform_sample(K, 200, rng)
        fam = polar_family(K, pts, 256)
        clouds[f"family-{name}"] = np.concatenate([c for _, c in fam])
        W, base, _ = faces._polar_grid(K, 256)
        gaps = faces._support_gaps(W, base, pts)
        clouds[f"winners-{name}"] = W / gaps.min(axis=0)[:, None]
    for n in (low - 1, low, low + 1, 300):
        clouds[f"ring-{n}"] = ring(n)
        clouds[f"ring-far-{n}"] = ring(n, 1e-6, (5e-6, -3e-6))
        clouds[f"ring-large-{n}"] = ring(n, 1e6, (5e6, 3e6))
        clouds[f"noisy-disk-{n}"] = rng.uniform(-1.0, 1.0, (n, 2))
    # rows on the edges of a square, interior rows, and some edge rows, corners
    # among them, repeated twice
    t = np.linspace(-1.0, 1.0, 33)
    edge = np.concatenate([np.column_stack([t, -np.ones_like(t)]),
                           np.column_stack([np.ones_like(t), t]),
                           np.column_stack([t[::-1], np.ones_like(t)]),
                           np.column_stack([-np.ones_like(t), t[::-1]])])
    clouds["square-edges"] = np.vstack([edge, 0.5 * rng.uniform(-1.0, 1.0, (100, 2))])
    clouds["square-repeated"] = np.vstack([clouds["square-edges"], edge[::8], edge[::8]])
    polar = clouds["winners-ellipse"]
    clouds["winners-repeated"] = np.vstack([polar, polar[::3], polar[::5]])
    clouds["ring-repeated"] = np.vstack([ring(100), ring(100)[::7], 0.3 * ring(100)])
    return clouds


class TestOwnerTaggedHull:
    def test_square_corner_singletons(self):
        family = [(i, np.array([p])) for i, p in enumerate(
            [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])]
        T = owner_tagged_hull(family)
        assert T.dim == 2
        assert T.points.shape[0] == 4
        assert len(T.edges) == 4
        assert sorted(T.owners) == [0, 1, 2, 3]
        assert T.euler_ok()
        assert fvector_from_tagged_hull(T) == (4, 4)

    def test_two_singletons_degenerate(self):
        family = [(0, np.array([[0.0, 0.0]])), (1, np.array([[1.0, 0.0]]))]
        with pytest.raises(DomainError):
            owner_tagged_hull(family)

    def test_d3_random_owners_euler(self, rng):
        pts = rng.standard_normal((100, 3))
        owners = rng.integers(0, 4, size=100)
        T = tagged_hull_from_points(pts, owners)
        assert T.dim == 3
        assert T.euler_ok()
        v, e, f = T.fvector()
        assert v - e + f == 2

    def test_interior_points_dropped(self, rng):
        cloud = np.vstack([np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0],
                                     [0.0, -2.0]]),
                           rng.uniform(-0.5, 0.5, size=(20, 2))])
        T = tagged_hull_from_points(cloud)
        assert T.points.shape[0] == 4


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _prism(k, height=1.0):
    """Right prism over a regular k-gon: two k-gon facets and k rectangles,
    each triangulated by qhull and merged back."""
    a = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
    ring = np.column_stack([np.cos(a), np.sin(a)])
    return np.vstack([np.column_stack([ring, np.zeros(k)]),
                      np.column_stack([ring, np.full(k, height)])])


CUBE = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                 for z in (-1.0, 1.0)])


class TestTaggedHullParity:
    """The array builders against the per-element references in `oracles`:
    every TaggedPolytope field and V_1 must be identical, not just close."""

    @staticmethod
    def check(points, owners=None):
        T = tagged_hull_from_points(points, owners)
        oracles.assert_same_polytope(T, oracles.tagged_hull(points, owners))
        if T.dim == 3:
            assert intrinsic_volumes(T)[1] == oracles.intrinsic_v1_3d(T)
        return T

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [4, 5, 7, 12, 40, 150, 600, 2000])
    def test_random_clouds(self, d, n, rng):
        for scale in (1e-3, 1.0, 1e3):
            pts = rng.standard_normal((n, d)) * scale + rng.uniform(-1, 1, d)
            self.check(pts, rng.integers(0, 5, size=n))
        # points on a sphere: every one is a vertex
        pts = rng.standard_normal((n, d))
        self.check(pts / np.linalg.norm(pts, axis=1, keepdims=True))

    @pytest.mark.parametrize("points", [
        CUBE, 0.5 * CUBE + [3.0, -1.0, 2.0], _prism(3), _prism(6, 0.3),
        _prism(17, 4.0), np.vstack([_prism(40), 0.5 * _prism(40) + [0, 0, 2]])],
        ids=["cube", "shifted-cube", "prism3", "prism6", "prism17", "frustum40"])
    def test_merged_facets(self, points, rng):
        T = self.check(points)
        assert len(T.facets) < len(T.simplices)  # the union-find path ran
        for _ in range(3):
            self.check(points @ _rotation(rng).T * rng.uniform(0.1, 10.0))

    @pytest.mark.parametrize("jitter", [1e-9, 1e-7])
    def test_near_coplanar_merges(self, jitter, rng):
        # Lattice points moved off their planes: qhull keeps the nearly
        # coplanar triangles apart and the merge joins them. Here the
        # order of the unions decides the roots, and so the facet order.
        for _ in range(10):
            pts = rng.integers(-3, 4, (60, 3)) + jitter * rng.standard_normal((60, 3))
            T = self.check(pts)
            assert len(T.facets) < len(T.simplices)

    def test_vertex_inside_merged_facet_dropped(self):
        # each face centre, lifted off its face by rounding, is a qhull
        # vertex whose four triangles all merge into that face
        centres = np.vstack([np.eye(3), -np.eye(3)]) * (1.0 + 1e-11)
        T = self.check(np.vstack([CUBE, centres]))
        assert T.fvector() == (8, 12, 6) and T.euler_ok()
        assert T.owners.tolist() == list(range(8))
        assert len(T.simplices) == 12

    def test_prism_facets(self):
        T = self.check(_prism(17))
        assert sorted(len(f) for f in T.facets) == [4] * 17 + [17] * 2

    @pytest.mark.parametrize("d, m", [(2, 512), (2, 2048), (3, 512), (3, 2048)])
    def test_radial_polytopes(self, d, m, rng):
        U = direction_grid(d, m)
        for r in (np.ones(m), rng.uniform(0.5, 2.0, m), 1.0 + 1e-3 * rng.random(m)):
            self.check(r[:, None] * U)

    @pytest.mark.parametrize("n", [3, 5, faces.SHORT_CYCLE, faces.SHORT_CYCLE + 1, 512])
    def test_counter_clockwise_cycles(self, n, rng):
        # the cycle route, with and without the chain's fallback
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        ring = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.5, 2.0, 2)
        ring += rng.uniform(-5.0, 5.0, 2)
        k = int(rng.integers(n))
        mid = 0.5 * (ring[k] + ring[(k + 1) % n])
        for pts in (ring, np.roll(ring, 3, axis=0), 1e-6 * ring, ring[::-1],
                    np.insert(ring, k + 1, mid, axis=0), np.insert(ring, k + 1, ring[k], axis=0)):
            # the chain's hull order, and its volume and surface, bit for bit
            T = oracles.tagged_hull(pts)
            order = faces._cycle_order(pts)
            np.testing.assert_array_equal(order, T.owners)
            assert faces._polygon_measure(pts[order]) == (T.volume, T.surface)

    def test_owner_tagged_family(self, ellipse21, unit_ball3, rng):
        for K in (ellipse21, unit_ball3):
            family = polar_family(K, uniform_sample(K, 6, rng) * 0.5, m=64)
            pts = np.concatenate([cloud for _, cloud in family])
            owners = np.concatenate([np.full(len(cloud), i) for i, cloud in family])
            oracles.assert_same_polytope(owner_tagged_hull(family),
                                         oracles.tagged_hull(pts, owners))

    def test_screened_chain_clouds(self, rng):
        # the chain runs over the points `_akl_toussaint` keeps from
        # CHAIN_SCREEN_MIN points up; the oracle's chain runs over all
        screened = 0
        for name, pts in chain_clouds(rng).items():
            self.check(pts)
            if pts.shape[0] >= faces.CHAIN_SCREEN_MIN:
                screened += hull._akl_toussaint(pts).size < pts.shape[0]
        assert screened >= 10

    def test_degenerate_inputs_raise_alike(self):
        t = np.linspace(-1.0, 1.0, faces.CHAIN_SCREEN_MIN + 5)
        for pts in (np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                    np.column_stack([t, 0.5 * t + 0.25]),
                    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])):
            with pytest.raises(DomainError):
                tagged_hull_from_points(pts)
            with pytest.raises(DomainError):
                oracles.tagged_hull(pts)


def _ring(rng, k, scale, shift):
    """k points counter-clockwise around an ellipse with random axes,
    moved by `shift` and scaled by `scale`."""
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    ring = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.5, 2.0, 2)
    return scale * (ring + shift)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestShortPolygonFloats:
    """The float pass of short planar polygons against the array code it
    replaces: every plane, extent, offset, polar and measure, bit for bit."""

    @staticmethod
    def clouds(rng, k):
        """Rings of k vertices, and the same with a vertex repeated and an
        edge midpoint added (both dropped by the chain), at scales 1e-6 to
        1e6, around the origin and off it (the polars then do not exist)."""
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for shift in (np.zeros(2), rng.uniform(-0.3, 0.3, 2), np.array([4.0, -3.0])):
                ring = _ring(rng, k, scale, shift)
                j = int(rng.integers(k))
                mid = 0.5 * (ring[j] + ring[(j + 1) % k])
                yield ring
                yield rng.permutation(np.concatenate([ring, ring[j:j + 1], mid[None]]))

    @pytest.mark.parametrize("k", range(3, faces.SHORT_CYCLE + 2))
    def test_bare_polygon(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        for pts in self.clouds(rng, k):
            got = faces._bare_hull(pts)
            with monkeypatch.context() as m:
                m.setattr(faces, "SHORT_POLYGON", 2)  # every polygon on arrays
                want = faces._bare_hull(pts)
            T = oracles.tagged_hull(pts)
            assert _same_bits(got.vertices, want.vertices)
            assert _same_bits(got.vertices, T.owners)
            for a, b in ((got.normals, want.normals), (got.offsets, want.offsets),
                         (got.normals, T.facet_normals), (got.offsets, T.facet_offsets)):
                assert _same_bits(a, b)
            if got.vertices.size > faces.SHORT_POLYGON:
                assert got.floats is None
                continue
            V = pts[want.vertices]
            assert got.floats.extent == float(faces._rownorm(V).max())
            assert got.floats.low == np.min(want.offsets)
            if got.floats.low <= 0.0:
                assert got.floats.polars is None and got.floats.radius is None
                continue
            zv, radius = tessellation._polars(want)
            assert _same_bits(got.floats.polars, zv)
            assert got.floats.radius == radius

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9])
    def test_cycle_measure(self, k):
        # short strictly convex cycles on floats; repeated, collinear and
        # longer ones on arrays, with the chain's order
        rng = np.random.default_rng(100 + k)
        for ring in (_ring(rng, k, s, rng.uniform(-5.0, 5.0, 2)) for s in (1e-6, 1.0, 1e6)):
            j = int(rng.integers(k))
            mid = 0.5 * (ring[j] + ring[(j + 1) % k])
            for pts in (ring, np.roll(ring, 2, axis=0),
                        np.insert(ring, j + 1, mid, axis=0),
                        np.insert(ring, j + 1, ring[j], axis=0)):
                T = oracles.tagged_hull(pts)
                want = faces._polygon_measure(pts[faces._cycle_order(pts)])
                assert want == (T.volume, T.surface)
                assert _same_bits(faces._cycle_measure(pts), want)

    @pytest.mark.parametrize("n", range(1, faces.LEFT_SUM_MAX))
    def test_add_reduce_sums_left_to_right(self, n):
        # the reason for LEFT_SUM_MAX: below it the reduction is a plain
        # loop from 0.0, so terms of mixed size and sign round alike
        rng = np.random.default_rng(n)
        for _ in range(3000):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
            a[rng.random(n) < 0.1] = -0.0
            acc = 0.0
            for x in a.tolist():
                acc += x
            assert _same_bits(np.add.reduce(a), acc)


class TestFvectorFromTaggedHull:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_frozenset_readout(self, d, rng):
        for _ in range(60):
            n = int(rng.integers(d + 2, 80))
            pts = rng.standard_normal((n, d))
            owners = rng.integers(0, max(2, n // int(rng.integers(1, 6))), size=n)
            T = tagged_hull_from_points(pts, owners)
            assert fvector_from_tagged_hull(T) == oracles.reference_fvector(T)
        # grid-merged facets and the polar hull's repeated owners
        for K, m in ((PARITY_BODIES_SCREENED["square" if d == 2 else "cube"], 64),
                     (PARITY_BODIES_SCREENED["ellipse" if d == 2 else "ball3"], 256)):
            T = _polar_hull(K, uniform_sample(K, 300, rng), m)
            assert fvector_from_tagged_hull(T) == oracles.reference_fvector(T)
        cube = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        T = tagged_hull_from_points(np.array(cube)[:, :d], np.array([0, 0, 1, 1, 2, 2, 3, 3]))
        assert fvector_from_tagged_hull(T) == oracles.reference_fvector(T)

    def test_lens_family_reaches_exact_value(self, unit_disk):
        for m in (64, 128, 256):
            assert fvector_approx(unit_disk, LENS, m=m) == (2, 1)

    def test_two_ellipse_family(self, ellipse21):
        U = direction_grid(2, 256)
        first = np.array([ellipse21.support_point(u) for u in U])
        second = first + np.array([1.7, 0.4])
        T = owner_tagged_hull([(0, first), (1, second)])
        assert fvector_from_tagged_hull(T) == (2, 1)

    def test_d3_antipodal_pair(self, unit_ball3):
        pts = np.array([[0.0, 0.0, 0.55], [0.0, 0.0, -0.55]])
        assert fvector_approx(unit_ball3, pts, m=400) == (2, 1, 0)

    def test_stability_in_m(self, unit_disk, rng):
        for _ in range(10):
            pts = disk_sample(rng, 8)
            if not general_position_check_2d(unit_disk, pts).ok:
                continue
            values = {m: fvector_approx(unit_disk, pts, m=m)
                      for m in (64, 128, 256)}
            assert values[64] == values[128] == values[256]

    def test_agreement_with_exact_hundred_samples(self, unit_disk, rng):
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 13))
            pts = disk_sample(rng, n)
            if not general_position_check_2d(unit_disk, pts).ok:
                continue
            b = disk_intersection_boundary(unit_disk, pts)
            assert fvector_approx(unit_disk, pts, m=256) == fvector_exact_2d(b)
            checked += 1


class TestPolytopeFvector:
    def test_triangle(self):
        assert polytope_fvector(np.array([[0.0, 0.0], [1.0, 0.0],
                                          [0.0, 1.0]])) == (3, 3)

    def test_octahedron(self):
        verts = np.vstack([np.eye(3), -np.eye(3)])
        assert polytope_fvector(verts) == (6, 12, 8)

    def test_random_sphere_points_simplicial(self, rng):
        pts = rng.standard_normal((50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        v, e, f = polytope_fvector(pts)
        assert v == 50
        assert v - e + f == 2
        assert e == 3 * v - 6

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            polytope_fvector(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


class TestKFacetCount:
    def test_lens_has_two(self, unit_disk):
        # the two-point hull has two boundary arcs even though f1 is 1
        assert kfacet_count_2d(unit_disk, LENS) == 2
        b = disk_intersection_boundary(unit_disk, LENS)
        assert fvector_exact_2d(b) == (2, 1)

    def test_single_point_has_none(self, unit_disk):
        assert kfacet_count_2d(unit_disk, np.array([[0.4, -0.2]])) == 0

    def test_matches_f1_on_generic_samples(self, unit_disk, rng):
        for _ in range(5):
            pts = disk_sample(rng, 10)
            b = disk_intersection_boundary(unit_disk, pts)
            f0, f1 = fvector_exact_2d(b)
            count = kfacet_count_2d(unit_disk, pts)
            assert count == f1 == f0
            assert count == len(khull_boundary_2d(unit_disk, pts).arcs)


class TestOffExport:
    def test_off_text_shape(self, rng):
        pts = rng.standard_normal((30, 3))
        T = tagged_hull_from_points(pts, rng.integers(0, 3, size=30))
        text = T.to_off_text()
        lines = text.strip().split("\n")
        assert lines[0] == "OFF"
        nv, nf, ne = (int(x) for x in lines[1].split())
        assert nv == T.points.shape[0]
        assert nf == len(T.facets)
        vertex_lines = lines[2:2 + nv]
        assert all("# owner=" in ln for ln in vertex_lines)
        facet_lines = lines[2 + nv:]
        assert len(facet_lines) == nf
        assert all(int(ln.split()[0]) == len(ln.split()) - 1
                   for ln in facet_lines)
