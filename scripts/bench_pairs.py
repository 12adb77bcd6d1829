#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr N --parent HEAD~1 --change HEAD \\
        --seeds 601 602 603 604 605 606 607 608 609 610 --trace-seed 611

Both revisions are extracted by `git archive` into a working directory,
and `perfbench/run.py` runs unchanged in each. For every
workload and seed the two sides form a pair and run one after the other,
never at the same time; the side that goes first alternates from pair to
pair (the parent first in even pairs), so a slow phase of the machine
falls on both sides alike. The JSON gives, per workload and end-to-end
metric, each side's runs, median and quartiles, the change's wins over
the pairs, and the seeds; `--trace-seed` adds one traced run per side
with the per-layer metrics. The workloads and the run length are those of
the change's BENCHMARK.json; each side's revision and the hash of its src/
tree are recorded, so the runs can be matched to a tree even if the
revision is later rewritten. Every run's output is kept under the working
directory. Run it from the repository root; it needs about
2 x pairs x (run_seconds + 10) seconds per workload, plus two traced runs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def checkouts(revs: dict[str, str], workdir: Path, root: Path):
    """Each side's revision extracted by `git archive` at workdir/<side>,
    yielded as {side: path} and removed on exit. Nothing is written under
    the repository's .git, so a killed run leaves nothing to prune there."""
    trees: dict[str, Path] = {}
    try:
        for side in SIDES:
            tar = subprocess.run(["git", "archive", revs[side]], cwd=root, check=True,
                                 capture_output=True).stdout
            trees[side] = workdir / side
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(trees[side], filter="data")
        yield trees
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int,
              log: Path) -> dict:
    """One perfbench run in `tree`; its last stdout line is the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    log.write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}; see {log}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spreads and the change's wins."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        entry = {"unit": m["unit"], "better": m["better"],
                 **{side: spread(vals[side]) for side in SIDES},
                 "change_wins": wins, "pairs": len(vals["parent"])}
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    ap.add_argument("--parent", default="HEAD~1", help="baseline revision")
    ap.add_argument("--change", default="HEAD", help="revision under test")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair per seed")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also make one traced run per side at this seed")
    ap.add_argument("--workdir", default=None,
                    help="directory for the checkouts and run logs (default: a new temp dir)")
    ap.add_argument("--out", default=None, help="default: BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    root = Path(git("rev-parse", "--show-toplevel"))
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    revs = {side: git("rev-parse", rev) for side, rev in
            zip(SIDES, (args.parent, args.change))}
    spec = json.loads(git("show", f"{revs['change']}:BENCHMARK.json", cwd=root))
    seconds = spec["run_seconds"]
    result = {"pr": args.pr, "parent": revs["parent"], "change": revs["change"],
              "src_tree": {side: git("rev-parse", f"{revs[side]}:src", cwd=root)
                           for side in SIDES},
              "seconds": seconds,
              "machine": {"platform": platform.platform(),
                          "processor": platform.processor(),
                          "python": platform.python_version()},
              "order": "pairs run one after another; pair i runs the parent "
                       "first when i is even, the change first when it is odd",
              "workloads": {}}
    with checkouts(revs, workdir, root) as trees:
        for workload in [w["name"] for w in spec["workloads"]]:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    log = workdir / f"{workload}-{seed}-{side}.log"
                    runs[side].append(run_bench(trees[side], workload, seed,
                                                seconds, 0, log))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics']['replicates_per_s']['value']:.2f} "
                          "replicates/s", flush=True)
            entry = {
                "seeds": args.seeds,
                "first": [SIDES[i % 2] for i in range(len(args.seeds))],
                "metrics": compare(runs, spec["end_to_end"]),
                "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES},
                "failed_share": {side: [f"{r['failed']}/{r['attempted']}" for r in runs[side]]
                                 for side in SIDES},
            }
            if args.trace_seed is not None:
                traced = {}
                for side in SIDES:
                    log = workdir / f"{workload}-{args.trace_seed}-{side}-trace.log"
                    out = run_bench(trees[side], workload, args.trace_seed,
                                    seconds, 1, log)
                    traced[side] = {k: v["value"] for k, v in out["metrics"].items()}
                entry["traced"] = {"seed": args.trace_seed, **traced}
            result["workloads"][workload] = entry
    out = Path(args.out or root / f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}; run logs in {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
