import math

import numpy as np
import pytest

from khull import (Ball, DomainError, Ellipsoid, NumericError, Polytope,
                   QuadratureSpec, ef0_general, ef0_symmetric,
                   halfspace_determinant_integral, kappa,
                   projection_body_support, volume_polar_radial, zero_cell)

PI2_HALF = math.pi ** 2 / 2.0
TRIANGLE = Polytope([[-1.0, -1.0], [2.0, -0.5], [0.0, 1.5]])

# reduced budget for module-level runs; acceptance uses the defaults
FAST = QuadratureSpec(sphere_nodes=512, mc_inner_samples=20_000, batches=5)


def generic_directions():
    return np.array([[math.cos(a), math.sin(a)] for a in (0.3, 1.1, 2.4, 4.0)])


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(sphere_nodes=0)
        with pytest.raises(DomainError):
            QuadratureSpec(mc_inner_samples=0)
        with pytest.raises(DomainError):
            QuadratureSpec(batches=0)
        # every standard-error batch needs a draw
        with pytest.raises(DomainError, match="mc_inner_samples"):
            QuadratureSpec(mc_inner_samples=9)
        with pytest.raises(DomainError, match="mc_inner_samples"):
            QuadratureSpec(mc_inner_samples=2, batches=3)
        assert QuadratureSpec(mc_inner_samples=3, batches=3).mc_inner_samples == 3
        with pytest.raises(DomainError):
            QuadratureSpec(error_mode="explode")
        with pytest.raises(DomainError):
            QuadratureSpec(error_mode="fail_above")

    def test_fail_above_triggers(self):
        spec = QuadratureSpec(sphere_nodes=128, mc_inner_samples=500,
                              batches=3, error_mode="fail_above",
                              error_tol=1e-9)
        with pytest.raises(NumericError):
            ef0_general(Ellipsoid([2.0, 1.0], np.zeros(2)), spec)

    def test_estimate_rejects_negative_se(self):
        from khull import ExpectationEstimate
        with pytest.raises(DomainError):
            ExpectationEstimate(1.0, -0.1, "quadrature")


class TestProjectionBodySupport:
    def test_disk_unit_direction(self, unit_disk):
        est = projection_body_support(unit_disk, [1.0, 0.0])
        assert est.method == "closed_form"
        assert est.standard_error == 0.0
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_ball3(self, unit_ball3):
        est = projection_body_support(unit_ball3, [0.0, 0.0, 3.0])
        assert est.value == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_square_axis(self, square):
        est = projection_body_support(square, [1.0, 0.0])
        assert est.method == "closed_form"
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_square_diagonal(self, square):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        est = projection_body_support(square, u)
        # atom sum: (1/2) * 2 * (2/sqrt2 + 2/sqrt2)
        assert est.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_ellipse_axes_monte_carlo(self, ellipse21):
        # projections of the (2,1) ellipse have widths 2 and 4
        e1 = projection_body_support(ellipse21, [1.0, 0.0])
        e2 = projection_body_support(ellipse21, [0.0, 1.0])
        assert e1.method == "monte_carlo"
        assert e1.standard_error > 0.0
        assert e1.value == pytest.approx(2.0, abs=3.0 * e1.standard_error)
        assert e2.value == pytest.approx(4.0, abs=3.0 * e2.standard_error)

    def test_homogeneity(self, square, ellipse21):
        u = np.array([0.6, -0.8])
        exact = projection_body_support(square, u).value
        doubled = projection_body_support(square, 2.0 * u).value
        assert doubled == pytest.approx(2.0 * exact, rel=1e-12)
        est1 = projection_body_support(ellipse21, u)
        est2 = projection_body_support(ellipse21, 2.0 * u)
        # common spec seed makes the MC estimates exactly proportional
        assert est2.value == pytest.approx(2.0 * est1.value, rel=1e-9)

    def test_zero_direction_rejected(self, unit_disk):
        with pytest.raises(DomainError):
            projection_body_support(unit_disk, [0.0, 0.0])


class TestVolumePolarRadial:
    def test_constant_one_gives_unit_ball_volume(self):
        for d in (2, 3):
            est = volume_polar_radial(lambda U: np.ones(U.shape[0]), d)
            tol = 1e-9 if d == 2 else 4.0 * max(est.standard_error, 1e-12)
            assert est.value == pytest.approx(kappa(d), abs=tol)

    def test_constant_two_scales(self):
        for d in (2, 3):
            est = volume_polar_radial(lambda U: np.full(U.shape[0], 2.0), d)
            tol = 1e-9 if d == 2 else 4.0 * max(est.standard_error, 1e-12)
            assert est.value == pytest.approx(kappa(d) / 2.0 ** d, abs=tol)

    def test_square_support_gives_cross_polytope_area(self, square):
        est = volume_polar_radial(lambda U: square.support_batch(U), 2)
        assert est.value == pytest.approx(2.0, abs=1e-5)

    def test_node_array_input(self):
        est = volume_polar_radial(np.ones(4096), 2)
        assert est.value == pytest.approx(math.pi, abs=1e-9)
        assert est.standard_error == 0.0

    def test_nonpositive_support_rejected(self):
        with pytest.raises(DomainError):
            volume_polar_radial(lambda U: np.zeros(U.shape[0]), 2)

    def test_unsupported_dimension(self):
        with pytest.raises(DomainError):
            volume_polar_radial(lambda U: np.ones(U.shape[0]), 4)


class TestEf0Symmetric:
    def test_disk_exact(self, unit_disk):
        est = ef0_symmetric(unit_disk)
        assert est.method == "quadrature"
        assert est.standard_error == 0.0
        assert est.value == pytest.approx(PI2_HALF, abs=1e-6)

    def test_ball3_exact(self, unit_ball3):
        est = ef0_symmetric(unit_ball3)
        assert est.value == pytest.approx(4.0 * math.pi ** 2 / 3.0, abs=1e-6)

    def test_scale_cancels(self, unit_disk):
        big = Ball(3.0, np.zeros(2))
        assert ef0_symmetric(big).value == pytest.approx(
            ef0_symmetric(unit_disk).value, rel=1e-12)

    def test_square(self, square):
        # the zero cell of the square's axis-atom tessellation is a box,
        # so the expectation is exactly 4
        est = ef0_symmetric(square)
        assert est.standard_error == 0.0
        assert est.value == pytest.approx(4.0, abs=1e-5)

    def test_cube(self):
        cube = Polytope([[x, y, z] for x in (-1.0, 1.0)
                         for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
        est = ef0_symmetric(cube)
        assert est.value == pytest.approx(8.0, abs=1e-3)

    def test_ellipse_affine_invariance(self, ellipse21):
        # the volume product of the projection body is linear invariant,
        # so the ellipse shares the disk constant; MC h-curves carry a
        # small quadratic bias, hence the absolute tolerance
        est = ef0_symmetric(ellipse21)
        assert est.method == "monte_carlo"
        assert est.value == pytest.approx(PI2_HALF, abs=1e-3)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="ef0_general"):
            ef0_symmetric(TRIANGLE)


class TestHalfspaceDeterminantIntegral:
    def test_square_constant_exact(self, square):
        J = halfspace_determinant_integral(square, generic_directions())
        assert J.shape == (1, 4)
        # 2^-d d! V(PK) with PK = [-2,2]^2
        np.testing.assert_allclose(J, 8.0, atol=1e-12)

    def test_ellipse_constant_within_se(self, ellipse21):
        X = generic_directions()
        J = halfspace_determinant_integral(ellipse21, X, FAST)
        mean = J.mean(axis=0)
        se = J.std(axis=0, ddof=1) / math.sqrt(J.shape[0])
        # PK is the (2,4) ellipse, so the constant is 2^-2 2! 8pi
        target = 4.0 * math.pi
        for k in range(X.shape[0]):
            assert abs(mean[k] - target) <= 4.0 * se[k]
        assert mean.max() - mean.min() <= 3.0 * float(np.hypot(
            se.max(), se.min()))


class TestEf0General:
    def test_disk_matches_symmetric(self, unit_disk):
        est = ef0_general(unit_disk, FAST)
        assert est.method == "monte_carlo"
        assert abs(est.value - PI2_HALF) <= 3.0 * est.standard_error
        assert abs(est.value - PI2_HALF) <= 0.01 * PI2_HALF

    def test_square_deterministic(self, square):
        est = ef0_general(square)
        assert est.method == "quadrature"
        assert est.standard_error == 0.0
        assert est.value == pytest.approx(4.0, abs=1e-3)

    def test_triangle_deterministic(self):
        est = ef0_general(TRIANGLE)
        assert est.standard_error == 0.0
        assert est.value == pytest.approx(3.0, abs=1e-3)

    def test_scale_invariance(self, unit_disk, square):
        for c in (0.5, 3.0):
            assert ef0_general(Ball(c, np.zeros(2)), FAST).value == (
                pytest.approx(ef0_general(unit_disk, FAST).value, rel=1e-9))
            scaled = Polytope(c * square.vertices)
            assert ef0_general(scaled).value == pytest.approx(
                ef0_general(square).value, rel=1e-9)

    def test_ellipse_matches_symmetric(self, ellipse21):
        gen = ef0_general(ellipse21, FAST)
        sym = ef0_symmetric(ellipse21)
        combined = math.hypot(gen.standard_error, sym.standard_error)
        assert abs(gen.value - sym.value) <= 3.0 * combined

    def test_unsupported_dimension(self):
        with pytest.raises(DomainError):
            ef0_general(Ball(1.0, np.zeros(4)))


class TestEndToEndEllipse:
    def test_zero_cell_mean_matches_formula(self, ellipse21):
        # anisotropic cross-check at module scale; the acceptance suite
        # repeats this with the full budget
        rng = np.random.default_rng(23)
        sampler = ellipse21.surface_sampler()
        f0 = np.array([zero_cell(ellipse21, rng, T0=5.0, sampler=sampler).fvector()[0]
                       for _ in range(1200)])
        mc_se = f0.std(ddof=1) / math.sqrt(f0.size)
        est = ef0_general(ellipse21, FAST)
        combined = math.hypot(mc_se, est.standard_error)
        assert abs(f0.mean() - est.value) <= 3.0 * combined
