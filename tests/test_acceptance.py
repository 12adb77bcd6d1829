"""End-to-end acceptance gate.

Each test covers one release criterion and records exactly one PASS or
FAIL line; the block is flushed through the terminal reporter when the
module finishes, so the verdicts survive output capture. Campaigns are
module-scoped fixtures and run single threaded; the stated runtime
budgets assume no worker pool.

Statistical checks use frozen seeds, so every run reproduces the same
numbers byte for byte.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest

import oracles
from khull import (Ball, Ellipsoid, Polytope, QuadratureSpec,
                   disk_intersection_boundary, ef0_general, ef0_symmetric,
                   fvector_bound_ok, fvector_exact_2d, fvector_from_tagged_hull,
                   intrinsic_volumes, kappa, kfacet_count_2d, khull_boundary_2d,
                   mink_diff_contains, owner_tagged_hull, polytope_fvector,
                   tagged_hull_from_points, uniform_sample, zero_cell)
from khull.experiments import ExperimentConfig, run_experiment

DISK = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0]}
BALL3 = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}
ELLIPSE = {"kind": "ellipsoid", "axes": [2.0, 1.0], "center": [0.0, 0.0]}

# limit of the mean vertex count of the zero cell, isotropic case
VERTEX_LIMIT_2D = math.pi ** 2 / 2.0
VERTEX_LIMIT_3D = 4.0 * math.pi ** 2 / 3.0

_VERDICTS: list[str] = []


def _report(label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _VERDICTS.append(f"[acceptance] {label:<26s} {verdict}  {detail}")
    assert ok, f"{label}: {detail}"


def _failing(checks: list[tuple[str, bool]]) -> list[str]:
    return [name for name, ok in checks if not ok]


@pytest.fixture(scope="module", autouse=True)
def _single_threaded():
    prior = os.environ.get("KHULL_THREADS")
    os.environ["KHULL_THREADS"] = "1"
    yield
    if prior is None:
        os.environ.pop("KHULL_THREADS", None)
    else:
        os.environ["KHULL_THREADS"] = prior


@pytest.fixture(scope="module", autouse=True)
def _verdict_block(request):
    yield
    plugins = request.config.pluginmanager
    reporter = plugins.get_plugin("terminalreporter")
    capture = plugins.get_plugin("capturemanager")
    lines = ["", "acceptance gate:"] + _VERDICTS
    # a fixture teardown runs under output capture; suspend it for the block
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        for line in lines:
            if reporter is not None:
                reporter.write_line(line)
            else:
                print(line)


def _timed(cfg: ExperimentConfig) -> tuple[dict, float]:
    t0 = time.perf_counter()
    summary = run_experiment(cfg)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def hull_campaign():
    return _timed(ExperimentConfig(experiment="fvector-mc", body=DISK,
                                   n=5000, replicates=2000, seed=101))


@pytest.fixture(scope="module")
def zerocell_d2_campaign():
    return _timed(ExperimentConfig(experiment="zerocell-mc", body=DISK,
                                   replicates=10_000, seed=202))


@pytest.fixture(scope="module")
def zerocell_d3_campaign():
    return _timed(ExperimentConfig(experiment="zerocell-mc", body=BALL3,
                                   replicates=5000, seed=303))


@pytest.fixture(scope="module")
def zerocell_ellipse_campaign():
    return _timed(ExperimentConfig(experiment="zerocell-mc", body=ELLIPSE,
                                   replicates=5000, seed=505))


@pytest.fixture(scope="module")
def convergence_campaign():
    return _timed(ExperimentConfig(experiment="convergence", body=DISK,
                                   n=2000, replicates=2000, seed=404))


def test_disk_hull_edge_limit(hull_campaign):
    """Mean edge count of the disk hull of 5000 points matches the
    zero-cell vertex constant within 3 SE, inside a 10 minute budget."""
    summary, elapsed = hull_campaign
    mean, se = summary["mean"]["f1"], summary["SE"]["f1"]
    err = abs(mean - VERTEX_LIMIT_2D)
    accounted = summary["rows"] + summary["excluded_replicates"] == 2000
    ok = err <= 3.0 * se and elapsed <= 600.0 and accounted
    _report("disk hull edge limit", ok,
            f"mean f1 {mean:.4f} target {VERTEX_LIMIT_2D:.4f} "
            f"|err| {err:.4f} vs 3SE {3.0 * se:.4f}, {elapsed:.0f}s")


def test_zero_cell_vertices_2d(zerocell_d2_campaign):
    summary, elapsed = zerocell_d2_campaign
    mean, se = summary["mean"]["f0"], summary["SE"]["f0"]
    err = abs(mean - VERTEX_LIMIT_2D)
    ok = err <= 3.0 * se and elapsed <= 120.0
    _report("zero cell vertices d=2", ok,
            f"mean f0 {mean:.4f} target {VERTEX_LIMIT_2D:.4f} "
            f"|err| {err:.4f} vs 3SE {3.0 * se:.4f}, {elapsed:.0f}s")


def test_zero_cell_vertices_3d(zerocell_d3_campaign):
    summary, elapsed = zerocell_d3_campaign
    mean, se = summary["mean"]["f0"], summary["SE"]["f0"]
    err = abs(mean - VERTEX_LIMIT_3D)
    ok = err <= 3.0 * se and elapsed <= 600.0
    _report("zero cell vertices d=3", ok,
            f"mean f0 {mean:.4f} target {VERTEX_LIMIT_3D:.4f} "
            f"|err| {err:.4f} vs 3SE {3.0 * se:.4f}, {elapsed:.0f}s")


def test_closed_form_expectations(zerocell_ellipse_campaign):
    """Quadrature and Monte Carlo estimators of the expected vertex
    count agree with the known constants and with each other."""
    checks = []

    sym = ef0_symmetric(Ball(1.0, np.zeros(2)))
    checks.append(("symmetric disk to 1e-6",
                   abs(sym.value - VERTEX_LIMIT_2D) <= 1e-6))

    spec = QuadratureSpec(sphere_nodes=512, mc_inner_samples=100_000,
                          batches=8, seed=606)
    gen = ef0_general(Ball(1.0, np.zeros(2)), spec)
    margin = abs(gen.value - VERTEX_LIMIT_2D) + gen.standard_error
    checks.append(("general disk within 1%",
                   margin <= 0.01 * VERTEX_LIMIT_2D))

    ell = ef0_general(Ellipsoid([2.0, 1.0], np.zeros(2)), spec)
    mc, _ = zerocell_ellipse_campaign
    gap = abs(ell.value - mc["mean"]["f0"])
    combined = math.hypot(ell.standard_error, mc["SE"]["f0"])
    checks.append(("ellipse cross-estimator", gap <= 3.0 * combined))

    ok = not _failing(checks)
    _report("closed-form expectations", ok,
            f"disk quad {sym.value:.6f}, disk mc {gen.value:.4f}"
            f"(se {gen.standard_error:.4f}), ellipse {ell.value:.4f} vs "
            f"cells {mc['mean']['f0']:.4f}, 3comb {3.0 * combined:.4f}"
            + (f"; failing: {_failing(checks)}" if not ok else ""))


def test_scaled_volume_convergence(convergence_campaign, zerocell_d2_campaign):
    """Mean intrinsic volumes of the rescaled sample intersection body
    match the zero-cell estimates within 3 combined SE."""
    conv, _ = convergence_campaign
    cell, _ = zerocell_d2_campaign
    checks, parts = [], []
    for col in ("V1", "V2"):
        gap = abs(conv["mean"][col] - cell["mean"][col])
        combined = math.hypot(conv["SE"][col], cell["SE"][col])
        checks.append((col, gap <= 3.0 * combined))
        parts.append(f"{col} {conv['mean'][col]:.3f} vs {cell['mean'][col]:.3f} "
                     f"(3comb {3.0 * combined:.3f})")
    ok = not _failing(checks)
    _report("scaled volume convergence", ok, ", ".join(parts))


def test_property_suites(tmp_path):
    """Structural invariants, batched: duality, idempotence, Euler and
    reversal, binomial f-vector bounds, the planar f0 = f1 identity,
    the Steiner formula, and thread-count determinism."""
    rng = np.random.default_rng(20_240_817)
    disk = Ball(1.0, np.zeros(2))
    ball3 = Ball(1.0, np.zeros(3))
    checks = []

    # polar involution plus gauge/support duality, 1000 probes at 1e-9
    dual_ok, invol_ok = True, True
    for trial in range(40):
        d = 2 if trial % 2 == 0 else 3
        P = Polytope(oracles.random_polytope(rng, d, 8 if d == 2 else 14))
        Q = P.polar()
        invol_ok &= oracles.same_point_set(Q.polar().vertices, P.vertices,
                                           tol=1e-9)
        for x in rng.standard_normal((25, d)):
            g = P.gauge(x)
            dual_ok &= abs(Q.support(x) - g) <= 1e-9 * max(1.0, g)
    checks.append(("polar involution", invol_ok))
    checks.append(("gauge/support duality", dual_ok))

    # hulling twice adds nothing: membership in K minus the hull agrees
    # with membership in K minus the sample, 1000 probes
    pts = uniform_sample(disk, 12, rng) * 0.9
    bq = khull_boundary_2d(disk, pts)
    agree, skipped = True, 0
    for x in rng.uniform(-1.0, 1.0, size=(1000, 2)):
        worst = max(oracles.arc_max_norm(a.center, bq.radius, a.a0, a.a1, x)
                    for a in bq.arcs)
        if abs(worst - 1.0) < 1e-6:
            skipped += 1
            continue
        agree &= mink_diff_contains(disk, pts, x) == (worst <= 1.0)
    checks.append(("idempotence", agree and skipped < 50))

    # Euler relation and f-vector reversal on every sampled cell, plus
    # the binomial bound everywhere an f-vector shows up
    euler_ok, reversal_ok, bound_ok = True, True, True
    for i in range(40):
        z = zero_cell(disk, rng)
        fv = z.fvector()
        euler_ok &= fv[0] == fv[1]
        reversal_ok &= polytope_fvector(z.cell.points) == fv
        bound_ok &= fvector_bound_ok(fv)
    for i in range(15):
        z = zero_cell(ball3, rng)
        fv = z.fvector()
        euler_ok &= fv[0] - fv[1] + fv[2] == 2
        reversal_ok &= polytope_fvector(z.cell.points) == fv
        bound_ok &= fvector_bound_ok(fv)
    checks.append(("euler relation", euler_ok))
    checks.append(("f-vector reversal", reversal_ok))

    # the planar exact pipeline counts as many vertices as arcs once
    # three members are active; a two-member lens is pinned to (2, 1)
    planar_ok = True
    for n in (3, 5, 10, 40, 150):
        sample = uniform_sample(disk, n, rng) * 0.9
        fv = fvector_exact_2d(disk_intersection_boundary(disk, sample))
        planar_ok &= fv[0] == fv[1] if fv[0] >= 3 else fv in ((2, 1), (1, 0))
        bound_ok &= fvector_bound_ok(fv)
    checks.append(("planar f0 = f1", planar_ok))
    checks.append(("binomial f-vector bound", bound_ok))

    # Steiner expansion of the dilated volume on 20 random polytopes
    steiner_ok = True
    for i in range(20):
        d = 2 if i < 12 else 3
        P = oracles.random_polytope(rng, d, 9 if d == 2 else 10)
        v = intrinsic_volumes(tagged_hull_from_points(P))
        for r in (0.1, 0.3):
            mc, se = oracles.mc_dilated_volume(
                P, r, 30_000 if d == 2 else 20_000, rng)
            steiner = sum(kappa(d - j) * r ** (d - j) * v[j]
                          for j in range(d + 1))
            steiner_ok &= abs(mc - steiner) <= 3.0 * se
    checks.append(("steiner formula", steiner_ok))

    # identical campaign bytes with and without a worker pool
    cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK,
                           replicates=12, seed=777)
    run_experiment(cfg, out_dir=str(tmp_path / "serial"))
    os.environ["KHULL_THREADS"] = "3"
    try:
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
    finally:
        os.environ["KHULL_THREADS"] = "1"
    serial = (tmp_path / "serial" / "zerocell-mc.csv").read_bytes()
    pooled = (tmp_path / "pooled" / "zerocell-mc.csv").read_bytes()
    checks.append(("thread determinism", serial == pooled))

    ok = not _failing(checks)
    _report("property suites", ok,
            f"{len(checks) - len(_failing(checks))}/{len(checks)} suites ok"
            + (f"; failing: {_failing(checks)}" if not ok else ""))


def test_worked_examples():
    """Small families with hand-computable answers."""
    disk = Ball(1.0, np.zeros(2))
    checks = []

    # a square shifted along the first axis has a kite polar
    a = 0.3
    shifted = Polytope([[1.0 + a, 1.0], [a - 1.0, 1.0],
                        [a - 1.0, -1.0], [1.0 + a, -1.0]])
    kite = np.array([[1.0 / (1.0 + a), 0.0], [0.0, 1.0],
                     [1.0 / (a - 1.0), 0.0], [0.0, -1.0]])
    checks.append(("shifted square polar",
                   oracles.same_point_set(shifted.polar().vertices, kite,
                                          tol=1e-9)))

    # the square diff of four axis points is a box, checked at its
    # corners from both sides
    square = Polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    sample = np.array([[0.3, 0.0], [0.0, 0.2], [-0.4, 0.0], [0.0, -0.5]])
    lo, hi = np.array([-0.6, -0.5]), np.array([0.7, 0.8])
    eps = 1e-6
    box_ok = True
    for cx in (lo[0], hi[0]):
        for cy in (lo[1], hi[1]):
            corner = np.array([cx, cy])
            inward = np.where(corner > 0, -eps, eps)
            box_ok &= mink_diff_contains(square, sample, corner + inward)
            box_ok &= not mink_diff_contains(square, sample,
                                             corner - 2 * inward)
    checks.append(("square diff box", box_ok))

    # two points: a lens with two arcs and one corner pair
    lens = disk_intersection_boundary(
        disk, np.array([[0.0, 0.8], [0.0, -0.8]]))
    two_pts = np.array([[0.0, 0.8], [0.0, -0.8]])
    checks.append(("two-point lens",
                   fvector_exact_2d(lens) == (2, 1)
                   and kfacet_count_2d(disk, two_pts) == 2))

    # one member: the hull is a disk translate
    single = disk_intersection_boundary(disk, np.array([[0.2, -0.1]]))
    checks.append(("single member", fvector_exact_2d(single) == (1, 0)))

    # four corner singletons: every vertex and every edge is shared
    family = [(i, np.array([p])) for i, p in enumerate(
        [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])]
    checks.append(("corner singletons",
                   fvector_from_tagged_hull(owner_tagged_hull(family))
                   == (4, 4)))

    ok = not _failing(checks)
    _report("worked examples", ok,
            f"{len(checks) - len(_failing(checks))}/{len(checks)} examples ok"
            + (f"; failing: {_failing(checks)}" if not ok else ""))
