#!/usr/bin/env python3
"""In-process A/B timing of the replicate kernels at two revisions.

    python3 scripts/kernel_ab.py --parent HEAD~1 --change HEAD

Both revisions are extracted by `git archive` into a temporary directory
(by `bench_pairs.checkouts`). Each side's `src/khull` package is imported
in its own worker process, started by `multiprocessing`'s spawn method,
so each imports only its own package: in one interpreter, the package
imported first ran a kernel 2-3% slower or faster than the same code
imported second. Each kernel runs on the same seeded unit-disk samples
on both sides, and its repetitions alternate between the two workers
(the side that goes first alternates too), one worker timing while the
other waits, so a slow phase of the machine falls on both alike: its
speed can drift by 20-50% between separate runs, more than the change of
one layer this is meant to show. The samples are
SAMPLES unit-disk draws of N points from seeds SEED, SEED + 1, ...;
`scaled_sample_statistics` draws CONVERGENCE_N points instead, the size
of a disk `convergence` row, `scaled_sample_statistics_ball3` draws
CONVERGENCE_BALL3_N points of the unit d = 3 ball, the size of a ball
d = 3 `convergence` row, and the two `zero_cell` kernels draw one cell of
the unit disk or the unit d = 3 ball from each seed. `zero_cell` builds
the tagged dual and the cell only when they are read, so these kernels
stop at the certified dual; `_zerocell_row_disk` and `_zerocell_row_ball3`
draw the same cells and build their CSV rows, and `_zerocell_row_ellipse`
does the same for cells of an ellipse with semi-axes (2, 1). `IntersectionBody`
builds X and reads its `active` rows, so it times the sample check and
the prune; `IntersectionBody.screen` builds X and reads its `screen`
rows, the sample check and the screen ahead of the prune.
`_disk_pass` builds X inside the timed call too: X caches its screen and
hull rows, so a reused X would time them only in the untimed warm-up.
`_polar_hull` builds X and the polar hull of a unit d = 3 ball
sample of POLAR_N points at resolution POLAR_M, `_polar_hull_ellipse`
the same for an ellipse with semi-axes (2, 1) and POLAR_ELLIPSE_N
points, the sizes of the two `polar-family` campaigns. `_hull_row`
draws one unit-disk `fvector-mc` replicate of N points and builds its
row, `_hull_row_large` the same at LARGE_N points, and `_hull_row_ellipse`
and `_hull_row_ball3` do the same for one replicate of those two polar
campaigns, all at resolution POLAR_M, so the family route's seam is timed
on the arc and the polar route. `_convergence_row` draws one unit-disk
`convergence` replicate of CONVERGENCE_N points band first, as a campaign
does, and builds its row: the radial polygon, its measure and the exact
family, where `scaled_sample_statistics` times the same measuring on a
full `uniform_sample` draw.
`summarize` summarizes the rows of SUMMARY_ROWS unit-disk zero cells drawn from each
seed (200, the size of a `zero-cell` `cells-disk` campaign), and `_write_csv`
writes them to a CSV file in the side's checkout, truncating open included. The two
`ef0_symmetric` kernels evaluate the expected zero-cell vertex count of
the unit disk and of the unit d = 3 ball, once per repetition and with
no sample. Each side runs every kernel REPS times. It prints, per kernel
and side, the min and the median of the per-call time over the
repetitions, and the change's ratios to the parent. Run it from the
repository root.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import multiprocessing
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, checkouts, git

KERNELS = ("uniform_sample", "IntersectionBody", "IntersectionBody.screen", "_disk_pass",
           "_hull_stage", "_hull_row", "_hull_row_large", "_hull_row_ellipse",
           "_hull_row_ball3", "_convergence_row",
           "zero_cell_disk", "zero_cell_ball3", "_zerocell_row_disk", "_zerocell_row_ball3",
           "_zerocell_row_ellipse",
           "scaled_sample_statistics", "scaled_sample_statistics_ball3", "_polar_hull",
           "_polar_hull_ellipse", "summarize", "_write_csv",
           "ef0_symmetric_disk", "ef0_symmetric_ball3")
N = 5000
LARGE_N = 100_000
CONVERGENCE_N = 2000
CONVERGENCE_BALL3_N = 500
POLAR_N = 1000
POLAR_ELLIPSE_N = 400
POLAR_M = 256
SUMMARY_ROWS = 200
SUMMARY_T0 = 5.0
SAMPLES = 20
REPS = 25
SEED = 1


def load(name: str, tree: Path):
    """The `khull` package of a checkout, imported as `name`; its modules
    import each other relatively, so they all land under that name."""
    pkg = tree / "src" / "khull"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def calls(name: str, pkg, n: int, seeds: list[int]) -> list:
    """Zero-argument calls of one kernel, one per seeded sample; the inputs
    are built here, by the side's own package, outside the timing."""
    hull = importlib.import_module(f"{pkg.__name__}.hull")
    experiments = importlib.import_module(f"{pkg.__name__}.experiments")
    K = pkg.Ball(1.0, np.zeros(2))
    rngs = [lambda s=s: np.random.default_rng(s) for s in seeds]
    if name == "uniform_sample":
        return [lambda g=g: pkg.uniform_sample(K, n, g()) for g in rngs]
    if name.startswith("zero_cell"):
        K = pkg.Ball(1.0, np.zeros(3 if name == "zero_cell_ball3" else 2))
        sampler = K.surface_sampler()
        return [lambda g=g: pkg.zero_cell(K, g(), sampler=sampler) for g in rngs]
    if name.startswith("_zerocell_row"):
        if name.endswith("ellipse"):
            K = pkg.Ellipsoid([2.0, 1.0], np.zeros(2))
        else:
            K = pkg.Ball(1.0, np.zeros(3 if name.endswith("ball3") else 2))
        sampler = K.surface_sampler()
        return [lambda g=g: experiments._zerocell_row(K, sampler, SUMMARY_T0, 0, 0, g())
                for g in rngs]
    if name == "_convergence_row":
        return [lambda g=g: experiments._convergence_row(K, CONVERGENCE_N, None, POLAR_M,
                                                         0, 0, g())
                for g in rngs]
    if name.startswith("scaled_sample_statistics"):
        if name.endswith("ball3"):
            K, n = pkg.Ball(1.0, np.zeros(3)), CONVERGENCE_BALL3_N
        else:
            n = CONVERGENCE_N
        samples = [pkg.uniform_sample(K, n, g()) for g in rngs]
        return [lambda p=p: pkg.scaled_sample_statistics(K, p) for p in samples]
    if name.startswith("ef0_symmetric"):
        K = pkg.Ball(1.0, np.zeros(3 if name.endswith("ball3") else 2))
        return [lambda: pkg.ef0_symmetric(K)]
    if name.startswith("_polar_hull"):
        faces = importlib.import_module(f"{pkg.__name__}.faces")
        if name.endswith("ellipse"):
            K, n = pkg.Ellipsoid([2.0, 1.0], np.zeros(2)), POLAR_ELLIPSE_N
        else:
            K, n = pkg.Ball(1.0, np.zeros(3)), POLAR_N
        samples = [pkg.uniform_sample(K, n, g()) for g in rngs]
        return [lambda p=p: faces._polar_hull(hull.IntersectionBody(K, p), POLAR_M)
                for p in samples]
    if name in ("summarize", "_write_csv"):
        sampler = K.surface_sampler()
        tables = []
        for g in rngs:
            rng = g()
            tables.append([experiments._zerocell_row(K, sampler, SUMMARY_T0, i, 0, rng)[0]
                           for i in range(SUMMARY_ROWS)])
        if name == "summarize":
            return [lambda rows=rows: experiments.summarize(rows) for rows in tables]
        # the checkout holds src/khull; it is removed with the file on exit
        path = Path(pkg.__file__).parents[2] / "kernel_ab.csv"
        return [lambda rows=rows: experiments._write_csv(path, rows, list(rows[0]))
                for rows in tables]
    if name.startswith("_hull_row"):
        if name.endswith("ellipse"):
            K, n = pkg.Ellipsoid([2.0, 1.0], np.zeros(2)), POLAR_ELLIPSE_N
        elif name.endswith("ball3"):
            K, n = pkg.Ball(1.0, np.zeros(3)), POLAR_N
        elif name.endswith("large"):
            n = LARGE_N
        return [lambda g=g: experiments._hull_row(K, "fvector-mc", n, POLAR_M, 0, 0, g())
                for g in rngs]
    samples = [pkg.uniform_sample(K, n, g()) for g in rngs]
    if name == "IntersectionBody":
        return [lambda p=p: hull.IntersectionBody(K, p).active for p in samples]
    if name == "IntersectionBody.screen":
        return [lambda p=p: hull.IntersectionBody(K, p).screen for p in samples]
    if name == "_disk_pass":
        return [lambda p=p: hull._disk_pass(hull.IntersectionBody(K, p)) for p in samples]
    if name == "_hull_stage":
        xbs = [(p, hull._disk_pass(hull.IntersectionBody(K, p)).boundary) for p in samples]
        return [lambda p=p, xb=xb: hull._hull_stage(K, p, xb)
                for p, xb in xbs if xb is not None]
    raise ValueError(f"unknown kernel {name}")


def per_call_ms(fns: list) -> float:
    t0 = time.perf_counter()
    for f in fns:
        f()
    return (time.perf_counter() - t0) * 1e3 / len(fns)


def serve(side: str, tree: str, seeds: list[int], conn) -> None:
    """One side's worker: imports the tree's package, then answers the
    driver's requests until it sends None. ("build", kernel) builds the
    kernel's calls and runs them once, untimed; ("time", None) returns
    their per-call time in ms."""
    pkg = load(f"khull_{side}", Path(tree))
    warnings.simplefilter("ignore")
    fns: list = []
    while (request := conn.recv()) is not None:
        kind, name = request
        if kind == "build":
            fns = calls(name, pkg, N, seeds)
            per_call_ms(fns)
            conn.send(None)
        else:
            conn.send(per_call_ms(fns))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1", help="baseline revision")
    ap.add_argument("--change", default="HEAD", help="revision under test")
    args = ap.parse_args(argv)

    root = Path(git("rev-parse", "--show-toplevel"))
    revs = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    seeds = list(range(SEED, SEED + SAMPLES))
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="kernel_ab-") as workdir, \
            checkouts(revs, Path(workdir), root) as trees:
        workers = {}
        for side in SIDES:
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=serve, args=(side, str(trees[side]), seeds, child))
            proc.start()
            workers[side] = (proc, conn)

        def ask(side: str, request):
            conn = workers[side][1]
            conn.send(request)
            return conn.recv()

        try:
            print(f"parent {revs['parent'][:10]}  change {revs['change'][:10]}  "
                  f"n = {N}, {SAMPLES} samples, {REPS} alternating repetitions, "
                  "one process per side")
            print(f"{'kernel':<32}{'side':<8}{'min ms':>10}{'median ms':>11}")
            for name in KERNELS:
                for side in SIDES:
                    ask(side, ("build", name))
                times: dict[str, list[float]] = {side: [] for side in SIDES}
                for i in range(REPS):
                    for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                        times[side].append(ask(side, ("time", None)))
                stats = {side: (min(t), statistics.median(t)) for side, t in times.items()}
                for side in SIDES:
                    lo, med = stats[side]
                    print(f"{name if side == 'parent' else '':<32}{side:<8}{lo:>10.4f}"
                          f"{med:>11.4f}", end="")
                    if side == "change":
                        print(f"   ratio min {lo / stats['parent'][0]:.3f}"
                              f" median {med / stats['parent'][1]:.3f}", end="")
                    print(flush=True)
        finally:
            for proc, conn in workers.values():
                if proc.is_alive():
                    conn.send(None)
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
