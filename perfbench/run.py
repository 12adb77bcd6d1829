"""Campaign benchmark for khull: replicates per second on three workloads.

    python3 perfbench/run.py --workload disk-hull --seed 1 --seconds 35 --trace 0

Run from the repository root. The package is imported from ./src, not
from an installed copy. Each run is one single-threaded process: it
writes the workload's config files, warms up, then runs whole rounds of
campaigns through load_config and run_experiment until --seconds have
passed, timing set-up in fresh interpreters between rounds; it checks
every output and prints one JSON line last. --trace 1 runs each round
twice, with and without the layer wrappers, and reports per-layer
metrics instead of the end-to-end ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "KHULL_THREADS")
SETUP_PROBES = 7
PROBE_EVERY = 4  # rounds between set-up probes
ORACLE_CELLS = 8  # replicates per cell campaign recomputed for the halfspace oracle
WORKLOAD_NAMES = ("disk-hull", "zero-cell", "polar-family")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63 or args.seconds <= 0:
        p.error("--seed must be in [0, 2^63) and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "khull" / "__init__.py").is_file():
        print(f"perfbench: no khull package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import khull
    if Path(khull.__file__).resolve().parent != (SRC / "khull").resolve():
        print(f"perfbench: imported khull from {khull.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return Run(args).execute()


class Run:
    def __init__(self, args):
        import numpy as np
        import tracing
        import workloads
        from khull import experiments
        from khull.errors import NumericError

        self.np, self.tracing, self.wl = np, tracing, workloads
        self.experiments, self.NumericError = experiments, NumericError
        self.args = args
        self.campaigns = workloads.WORKLOADS[args.workload]
        self.out = BENCH / "out" / f"{args.workload}-trace{args.trace}"
        self.ledger = workloads.Ledger()
        self.lines: list[str] = []
        self.ops_attempted = self.ops_failed = 0
        self.last_seeds: dict[str, int] = {}

    # -- inputs -----------------------------------------------------------
    def write_configs(self) -> dict[str, Path]:
        cfg_dir = self.out / "configs"
        cfg_dir.mkdir(parents=True)
        paths = {}
        for idx, c in enumerate(self.campaigns):
            seed = c.fixed_seed if c.fixed_seed is not None else self.seed_for(idx, 0)
            paths[c.name] = cfg_dir / f"{c.name}.json"
            paths[c.name].write_text(json.dumps({**c.config, "seed": seed}, indent=1))
        return paths

    def seed_for(self, idx: int, block: int) -> int:
        c = self.campaigns[idx]
        if c.fixed_seed is not None:
            return c.fixed_seed
        return self.wl.master_seed(self.args.seed, idx, block)

    # -- set-up -----------------------------------------------------------
    def setup_probe(self, paths: dict[str, Path]) -> float:
        """Wall time of one fresh interpreter that imports khull, loads and
        validates every config file, and builds the bodies."""
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
               *map(str, paths.values())]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        took = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return took

    # -- campaigns --------------------------------------------------------
    def run_campaign(self, path: Path, seed: int, out_dir: Path, replicates=None):
        """(seconds, rows written, NumericError text or None)."""
        cfg = self.experiments.load_config(path, seed=seed)
        if replicates is not None:
            cfg = dataclasses.replace(cfg, replicates=replicates)
        start = time.perf_counter()
        try:
            summary = self.experiments.run_experiment(cfg, out_dir=str(out_dir))
        except self.NumericError as exc:
            return time.perf_counter() - start, 0, str(exc)
        return time.perf_counter() - start, summary["rows"], None

    def run_round(self, paths, round_no: int, tracer=None) -> tuple[float, int]:
        """One pass over the workload's campaigns on input block
        round_no % BLOCKS; returns (seconds, rows) of the timed campaigns.
        With a tracer, only the timed campaigns run, traced, into separate
        directories, and their span ranges are kept per round."""
        block = round_no % self.wl.BLOCKS
        busy, rows = 0.0, 0
        for idx, c in enumerate(self.campaigns):
            seed = self.seed_for(idx, block)
            if tracer is not None:
                if not c.timed:
                    continue
                lo = tracer.mark()
                with tracer.active():
                    took, done, _ = self.run_campaign(
                        paths[c.name], seed, self.out / "traced" / c.name)
                self.span_ranges.setdefault(round_no, []).append((lo, tracer.mark()))
            else:
                out_dir = self.out / "campaigns" / c.name
                took, done, raised = self.run_campaign(paths[c.name], seed, out_dir)
                self.ops_attempted += 1
                self.ops_failed += self.ledger.record(c, block, out_dir, raised)
                self.last_seeds[c.name] = seed
            if c.timed:
                busy += took
                rows += done
        return busy, rows

    def execute(self) -> int:
        args, wl = self.args, self.wl
        shutil.rmtree(self.out, ignore_errors=True)
        paths = self.write_configs()
        self.span_ranges: dict[int, list[tuple[int, int]]] = {}
        self.hand_answer_selfcheck()

        for c in self.campaigns:  # warm-up: lazy imports, first-call costs
            self.run_campaign(paths[c.name], 1, self.out / "warmup" / c.name, replicates=1)

        # Every block runs at least once; then whole rounds until the time is up.
        tracer = self.tracing.Tracer() if args.trace else None
        block_times: dict[int, list[float]] = {}
        block_rows: dict[int, int] = {}
        rates, overheads, round_no = [], [], 0
        setup_times: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while round_no < wl.BLOCKS or time.perf_counter() < deadline:
            # Set-up probes are spread over the run, so that their median
            # does not hang on the machine's speed during a few seconds.
            if round_no % PROBE_EVERY == 0 and len(setup_times) < SETUP_PROBES:
                setup_times.append(self.setup_probe(paths))
            block = round_no % wl.BLOCKS
            if tracer is not None and round_no % 2 == 0:
                traced, _ = self.run_round(paths, round_no, tracer)
            busy, rows = self.run_round(paths, round_no)
            if tracer is not None:
                if round_no % 2 == 1:
                    traced, _ = self.run_round(paths, round_no, tracer)
                overheads.append(100.0 * (traced / busy - 1.0))
                self.compare_traced_csv()
            rates.append(rows / busy)
            block_times.setdefault(block, []).append(busy)
            block_rows[block] = rows
            round_no += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(self.setup_probe(paths))
        self.lines.append("setup_s probes: " + " ".join(f"{t:.4f}" for t in setup_times))
        setup_s = statistics.median(setup_times)

        self.lines.append(f"rounds: {round_no} over {wl.BLOCKS} input blocks "
                          f"in {args.seconds:g} s")
        self.lines.append("round rates (replicates/s): "
                          + " ".join(f"{r:.3f}" for r in rates))
        self.check_outputs()
        self.account()
        if tracer is None:
            # Each block counts once, with the median time of its repetitions.
            busy_s = sum(statistics.median(t) for t in block_times.values())
            metrics = {
                "replicates_per_s": {"value": sum(block_rows.values()) / busy_s,
                                     "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            tracer.write(self.out / "spans.csv")
            metrics = self.layer_metrics(tracer, round_no, statistics.median(overheads))
        errors = self.ledger.errors
        for line in self.lines:
            print(line)
        for err in errors:
            print("CHECK FAILED:", err)
        print(json.dumps({"correct": not errors, "attempted": self.ops_attempted,
                          "failed": self.ops_failed, "metrics": metrics}))
        return 1 if errors else 0

    # -- checks -----------------------------------------------------------
    def hand_answer_selfcheck(self) -> None:
        from oracles import disk_arc_owners
        lens = disk_arc_owners([[0.0, 0.8], [0.0, -0.8]])
        single = disk_arc_owners([[0.2, -0.1]])
        self.ledger.check(lens == {0, 1}, f"oracle self-check: lens owners {lens}")
        self.ledger.check(single == {0}, f"oracle self-check: single owners {single}")

    def compare_traced_csv(self) -> None:
        for c in self.campaigns:
            if not c.timed:
                continue
            name = f"{c.config['experiment']}.csv"
            plain = (self.out / "campaigns" / c.name / name).read_bytes()
            traced = (self.out / "traced" / c.name / name).read_bytes()
            self.ledger.check(plain == traced, f"{c.name}: CSV differs under tracing")

    def check_outputs(self) -> None:
        wl, led, name = self.wl, self.ledger, self.args.workload
        if name == "disk-hull":
            self.lines.append(led.mean_close(
                "disk-n5000 mean f1 vs pi^2/2", led.column("disk-n5000", "f1"),
                wl.VERTEX_LIMIT_2D, wl.FINITE_N_BIAS))
            self.check_arc_owners()
        elif name == "zero-cell":
            for camp, limit in (("cells-disk", wl.VERTEX_LIMIT_2D),
                                ("cells-ellipse", wl.VERTEX_LIMIT_2D),
                                ("cells-ball3", wl.VERTEX_LIMIT_3D)):
                self.lines.append(led.mean_close(f"{camp} mean f0", led.column(camp, "f0"),
                                                 limit))
            for col in ("V1", "V2"):
                self.lines.append(led.mean_close(
                    f"convergence-disk mean {col} vs cells-disk",
                    led.column("convergence-disk", col), led.column("cells-disk", col)))
            self.check_zero_cells()
        else:
            ref = wl.EXACT_DISK_N400
            seed = wl.master_seed(self.args.seed, len(self.campaigns), 0)
            path = self.out / "configs" / f"{ref.name}.json"
            path.write_text(json.dumps({**ref.config, "seed": seed}, indent=1))
            out_dir = self.out / "campaigns" / ref.name
            _, _, raised = self.run_campaign(path, seed, out_dir)
            led.record(ref, 0, out_dir, raised)
            exact = led.column(ref.name, "f0")
            self.lines.append(led.mean_close(
                "polar-ellipse mean f0 vs exact disk, n = 400",
                led.column("polar-ellipse", "f0"), exact, wl.POLAR_F0_ALLOWANCE,
                sd=float(exact.std(ddof=1))))

    def check_arc_owners(self) -> None:
        """Arc owners of benchmark-drawn disk samples, program vs oracle,
        on samples the program's general-position screen accepts."""
        import warnings
        from khull import Ball, disk_intersection_boundary, general_position_check_2d
        from oracles import disk_arc_owners, uniform_disk
        np = self.np
        disk = Ball(1.0, np.zeros(2))
        rng = np.random.default_rng([self.args.seed, 7])
        checked = screened = 0
        for n in (1, 2, 3, 5, 10, 50, 400) + (5000,) * 8:
            pts = uniform_disk(rng, n)
            if not general_position_check_2d(disk, pts).ok:
                screened += 1
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = disk_intersection_boundary(disk, pts).arc_owners()
            want = disk_arc_owners(pts)
            self.ledger.check(got == want, f"arc owners at n = {n}: program "
                                           f"{sorted(got)}, oracle {sorted(want)}")
            checked += 1
        self.lines.append(f"arc-owner oracle: {checked} samples agree-checked, "
                          f"{screened} left out by the general-position screen")

    def check_zero_cells(self) -> None:
        """Recompute the first replicates of each timed cell campaign's last
        round from their documented seeds; they must match the CSV rows and
        the OFF dump of replicate 0, and their vertices must match the
        halfspace oracle and lie within the realized truncation."""
        from khull import zero_cell
        from khull.experiments import body_from_spec
        from oracles import cell_vertices_from_dual, same_point_set
        np, led = self.np, self.ledger
        checked = 0
        for c in self.campaigns:
            if not c.timed or c.config["experiment"] != "zerocell-mc":
                continue
            K = body_from_spec(c.config["body"])
            out_dir = self.out / "campaigns" / c.name
            rows = self.wl.read_rows(out_dir / "zerocell-mc.csv")
            for row in rows[:ORACLE_CELLS]:
                job = int(row["replicate"])
                ss = np.random.SeedSequence(entropy=self.last_seeds[c.name], spawn_key=(job,))
                z = zero_cell(K, np.random.default_rng(ss), T0=self.wl.T0)
                fv = tuple(int(row[f"f{k}"]) for k in range(K.dim))
                led.check(int(row["seed"]) == int(ss.generate_state(1, np.uint64)[0])
                          and fv == z.fvector() and float(row["T"]) == z.truncation
                          and int(row["n_hyperplanes"]) == z.n_hyperplanes,
                          f"{c.name}: replicate {job} recomputed does not match its CSV row")
                if job == 0:
                    led.check(same_point_set(_off_points(out_dir / "zero_cell.off"),
                                             z.cell.points),
                              f"{c.name}: zero_cell.off differs from replicate 0's cell")
                led.check(same_point_set(cell_vertices_from_dual(z.dual.points),
                                         z.cell.points),
                          f"{c.name}: replicate {job} cell vertices differ from "
                          "the halfspace oracle")
                norms = np.linalg.norm(z.cell.points, axis=1)
                led.check(bool(np.all(norms <= z.truncation)),
                          f"{c.name}: vertex norm {norms.max():.4f} > T {z.truncation}")
                checked += 1
        self.lines.append(f"halfspace oracle: {checked} cells checked")

    def account(self) -> None:
        """Replicates attempted, written and failed, per workload and campaign."""
        led = self.ledger
        total: dict[str, int] = {}
        for per in led.excluded.values():
            for reason, count in per.items():
                total[reason] = total.get(reason, 0) + count
        self.lines.append(
            f"replicates {self.args.workload}: attempted {sum(led.attempted.values())}, "
            f"rows {sum(led.written.values())}, failed {sum(total.values())}, "
            f"rows failing checks {sum(led.faulty.values())}, "
            f"exclusion_reasons {json.dumps(total)}")
        for name, attempted in led.attempted.items():
            self.lines.append(
                f"  {name}: attempted {attempted}, rows {led.written.get(name, 0)}, "
                f"rows failing checks {led.faulty.get(name, 0)}, "
                f"exclusion_reasons {json.dumps(led.excluded[name])}")
        for name, text in led.faults.items():
            self.lines.append(f"  {name} failed: {text}")
        self.lines.append(f"campaigns: attempted {self.ops_attempted}, "
                          f"failed {self.ops_failed}")

    # -- per-layer metrics ------------------------------------------------
    def layer_metrics(self, tracer, rounds: int, overhead_pct: float) -> dict:
        """Counts over the first cycle of blocks, which every run completes,
        so they repeat exactly for a seed; self times over every round."""
        np, wl = self.np, self.wl
        reps = sum(c.replicates for c in self.campaigns if c.timed)
        cycle = tracer.summary([r for k in range(wl.BLOCKS) for r in self.span_ranges[k]])
        every = tracer.summary([r for ranges in self.span_ranges.values() for r in ranges])
        metrics = {}
        for layer in self.tracing.LAYERS:
            metrics[f"{layer}.calls_per_rep"] = {
                "value": cycle[layer]["calls"] / (wl.BLOCKS * reps), "unit": "count"}
            metrics[f"{layer}.self_ms_per_rep"] = {
                "value": 1000.0 * every[layer]["self_s"] / (rounds * reps), "unit": "ms"}
        hull = cycle["faces.owner_tagged_hull"]
        metrics["faces.owner_tagged_hull.points_in_per_call"] = {
            "value": hull["work_in"] / hull["calls"] if hull["calls"] else 0.0,
            "unit": "count"}
        metrics["faces.owner_tagged_hull.vertex_share"] = {
            "value": hull["work_out"] / hull["work_in"] if hull["work_in"] else 0.0,
            "unit": "ratio"}
        cells = [r for c in self.campaigns
                 if c.timed and c.config["experiment"] == "zerocell-mc"
                 for r in self.ledger.rows[c.name]]
        T = np.array([float(r["T"]) for r in cells])
        H = np.array([float(r["n_hyperplanes"]) for r in cells])
        metrics["tessellation.zero_cell.extensions_per_cell"] = {
            "value": float(np.mean(np.log2(T / wl.T0))) if cells else 0.0, "unit": "count"}
        metrics["tessellation.zero_cell.hyperplanes_per_cell"] = {
            "value": float(np.mean(H)) if cells else 0.0, "unit": "count"}
        excluded = sum(sum(self.ledger.outcomes[(c.name, b)].exclusions.values())
                       for c in self.campaigns if c.timed for b in range(wl.BLOCKS))
        metrics["experiments.excluded_share"] = {
            "value": excluded / (wl.BLOCKS * reps), "unit": "ratio"}
        metrics["tracing.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        for layer in self.tracing.LAYERS:
            calls = metrics[f"{layer}.calls_per_rep"]["value"]
            if calls:
                self.lines.append(
                    f"layer {layer:40s} calls/rep {calls:9.4f} self ms/rep "
                    f"{metrics[f'{layer}.self_ms_per_rep']['value']:10.4f}")
        self.lines.append(f"tracing overhead: {overhead_pct:.2f}% (median over rounds)")
        return metrics


def _off_points(path: Path):
    import numpy as np
    lines = path.read_text().splitlines()
    n_vertices = int(lines[1].split()[0])
    return np.array([[float(v) for v in line.split("#")[0].split()]
                     for line in lines[2:2 + n_vertices]])


if __name__ == "__main__":
    sys.exit(main())
