"""The benchmark's three campaign workloads and the checks on their outputs.

A workload is a fixed round of campaigns. A run draws BLOCKS input blocks
from the workload seed, one master seed per campaign and block, and its
rounds cycle through the blocks; a fixed-seed campaign (a fault probe, or
the d = 3 cells) has the same input in every block and run. Rows are
checked one by one and pooled for the statistical checks, which allow
SE_MULTIPLE standard errors (combined where two estimates meet) plus a
stated allowance for a known bias.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DISK = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0]}
BALL3 = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}
ELLIPSE = {"kind": "ellipsoid", "axes": [2.0, 1.0], "center": [0.0, 0.0]}

VERTEX_LIMIT_2D = math.pi ** 2 / 2.0
VERTEX_LIMIT_3D = 4.0 * math.pi ** 2 / 3.0
T0 = 5.0
# At 40 to 1000 rows a 5 SE window keeps a false alarm below 1e-4 per check.
SE_MULTIPLE = 5.0
# Distinct input blocks per run; rounds cycle through them.
BLOCKS = 4
# Mean hull edge count at n = 5000 sits about 0.05 below pi^2/2.
FINITE_N_BIAS = 0.1
# At resolution 256 the polar approximation miscounts f0 by one on about
# 2 samples in 20 (over on the disk, under on the ellipse).
POLAR_F0_ALLOWANCE = 0.2
# Master seed of a disk sample (n = 5000, replicate 0) in which a third
# circle passes within 6.04e-8 of a corner: the absolute EPS_GP = 1e-7
# window in hull.py excludes it, so this one-replicate campaign fails.
EPS_GP_PROBE_SEED = 256
# Master seed of a d = 3 zero cell (replicate 0) whose dual hull has a
# vertex nearly coplanar with its three neighbours: faces._tagged_hull_3d
# merges the three triangles into one facet but keeps the vertex, and the
# row reads f = (8, 12, 7), so f0 - f1 + f2 = 3.
EULER_PROBE_SEED = 2639
# d = 3 cells hit that fault on about 1 cell in 1000, so on random seeds
# their campaign would fail now and then. They run on one fixed seed, the
# one tests/test_acceptance.py uses, so their outcome is the same in every
# run; the probe above keeps the fault in view.
BALL3_CELLS_SEED = 303


@dataclass(frozen=True)
class Campaign:
    """One config file of a workload, run once per round."""

    name: str
    config: dict
    timed: bool = True          # counted in replicates_per_s and traced
    fixed_seed: int | None = None

    @property
    def replicates(self) -> int:
        return self.config["replicates"]


WORKLOADS: dict[str, tuple[Campaign, ...]] = {
    "disk-hull": (
        Campaign("disk-n5000", {"experiment": "fvector-mc", "body": DISK,
                                "n": 5000, "replicates": 12}),
        Campaign("eps-gp-probe", {"experiment": "fvector-mc", "body": DISK,
                                  "n": 5000, "replicates": 1},
                 timed=False, fixed_seed=EPS_GP_PROBE_SEED),
    ),
    "zero-cell": (
        Campaign("cells-disk", {"experiment": "zerocell-mc", "body": DISK,
                                "T0": T0, "replicates": 200}),
        Campaign("cells-ball3", {"experiment": "zerocell-mc", "body": BALL3,
                                 "T0": T0, "replicates": 100},
                 fixed_seed=BALL3_CELLS_SEED),
        Campaign("cells-ellipse", {"experiment": "zerocell-mc", "body": ELLIPSE,
                                   "T0": T0, "replicates": 10}),
        Campaign("convergence-disk", {"experiment": "convergence", "body": DISK,
                                      "n": 2000, "replicates": 10}),
        Campaign("euler-probe", {"experiment": "zerocell-mc", "body": BALL3,
                                 "T0": T0, "replicates": 1},
                 timed=False, fixed_seed=EULER_PROBE_SEED),
    ),
    "polar-family": (
        Campaign("polar-ellipse", {"experiment": "fvector-mc", "body": ELLIPSE,
                                   "n": 400, "resolution": 256, "replicates": 1}),
        Campaign("polar-ball3", {"experiment": "fvector-mc", "body": BALL3,
                                 "n": 1000, "resolution": 256, "replicates": 2}),
    ),
}

# Untimed reference for polar-family: the exact disk pipeline at the
# ellipse's n. The ellipse is an affine image of the disk, and family
# f-vectors are affine invariant.
EXACT_DISK_N400 = Campaign("exact-disk-n400", {"experiment": "fvector-mc",
                                               "body": DISK, "n": 400,
                                               "replicates": 200})


def master_seed(workload_seed: int, campaign: int, block: int) -> int:
    ss = np.random.SeedSequence([workload_seed, campaign, block])
    return int(ss.generate_state(1, np.uint64)[0])


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Outcome:
    """What one campaign run produced; a repeat must produce the same."""

    digest: str | None          # SHA-256 of the CSV; None when the run raised
    failed: bool
    rows: int
    faulty_rows: int
    exclusions: dict


@dataclass
class Ledger:
    """Rows, exclusions and check results, pooled over a run's rounds.

    A campaign is checked row by row the first time each of its input
    blocks runs; a repeat of the block must write the same CSV bytes. A row
    that fails a per-row check marks its campaign as failed, as does a
    campaign that raises; `errors` holds every other failed check and makes
    the run incorrect. Rows pool once per block, and once in all for a
    fixed-seed campaign, whose blocks are identical.
    """

    rows: dict[str, list[dict]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    written: dict[str, int] = field(default_factory=dict)
    faulty: dict[str, int] = field(default_factory=dict)
    excluded: dict[str, dict[str, int]] = field(default_factory=dict)
    faults: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    outcomes: dict[tuple[str, int], Outcome] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 50:
            self.errors.append(message)

    def record(self, campaign: Campaign, block: int, out_dir: Path,
               raised: str | None) -> bool:
        """Account for one finished campaign; True when it failed."""
        name = campaign.name
        csv_path = out_dir / f"{campaign.config['experiment']}.csv"
        digest = None if raised else hashlib.sha256(csv_path.read_bytes()).hexdigest()
        first = self.outcomes.get((name, block))
        if first is None:
            first = self.outcomes[(name, block)] = self._first_run(
                campaign, out_dir, raised, digest)
        else:
            self.check(digest == first.digest,
                       f"{name}: block {block} wrote different CSV bytes on a repeat")
        self.attempted[name] = self.attempted.get(name, 0) + campaign.replicates
        self.written[name] = self.written.get(name, 0) + first.rows
        self.faulty[name] = self.faulty.get(name, 0) + first.faulty_rows
        reasons = self.excluded.setdefault(name, {})
        for reason, count in first.exclusions.items():
            reasons[reason] = reasons.get(reason, 0) + count
        return first.failed

    def _first_run(self, campaign: Campaign, out_dir: Path, raised: str | None,
                   digest: str | None) -> Outcome:
        name = campaign.name
        if raised is not None:
            self.faults.setdefault(name, f"raised NumericError: {raised}")
            return Outcome(None, True, 0, 0, {"campaign raised": campaign.replicates})
        exp = campaign.config["experiment"]
        summary = json.loads((out_dir / f"{exp}_summary.json").read_text())
        rows = read_rows(out_dir / f"{exp}.csv")
        self.check(len(rows) == summary["rows"],
                   f"{name}: CSV has {len(rows)} rows, summary says {summary['rows']}")
        self.check(len(rows) + summary["excluded_replicates"] == campaign.replicates,
                   f"{name}: rows + excluded != attempted")
        bad = [msg for msg in (self._row_fault(campaign, r) for r in rows) if msg]
        if bad:
            self.faults.setdefault(name, f"{len(bad)} rows fail checks, first: {bad[0]}")
        if campaign.fixed_seed is None or name not in self.rows:
            self.rows.setdefault(name, []).extend(rows)
        return Outcome(digest, bool(bad), len(rows), len(bad),
                       dict(summary["exclusion_reasons"]))

    @staticmethod
    def _row_fault(campaign: Campaign, row: dict) -> str | None:
        """What is wrong with one CSV row, or None."""
        exp = campaign.config["experiment"]
        fv = [int(row[f"f{k}"]) for k in range(3) if f"f{k}" in row]
        where = f"replicate {row['replicate']}"
        if not all(fv[k] <= math.comb(fv[0], k + 1) for k in range(len(fv))):
            return f"{where}: f-vector {fv} breaks f_k <= C(f0, k+1)"
        if len(fv) == 3:
            euler_ok = fv[0] - fv[1] + fv[2] == 2
        else:  # a planar family of fewer than three members is a lens or one disk
            euler_ok = fv[0] == fv[1] if fv[0] >= 3 else tuple(fv) in ((2, 1), (1, 0))
        if not euler_ok:
            return f"{where}: f-vector {fv} breaks the Euler relation"
        if exp in ("zerocell-mc", "convergence") and float(row["V0"]) != 1.0:
            return f"{where}: V0 = {row['V0']}"
        if exp == "zerocell-mc":
            ratio = float(row["T"]) / T0
            if row["certified"] != "true":
                return f"{where}: cell not certified"
            if ratio < 1.0 or not math.log2(ratio).is_integer():
                return f"{where}: T/T0 = {ratio} is not a power of two"
        if "kfacets" in row and int(row["kfacets"]) != fv[0]:
            return f"{where}: f-vector {fv} but {row['kfacets']} k-facets"
        return None

    def column(self, name: str, col: str) -> np.ndarray:
        return np.array([float(r[col]) for r in self.rows.get(name, [])])

    def mean_close(self, label: str, a: np.ndarray, target, allowance: float = 0.0,
                   sd: float | None = None) -> str:
        """|mean(a) - target| within SE_MULTIPLE standard errors plus an
        allowance. The target is a number or a second sample, whose SE is
        then combined in; `sd` replaces the sample SDs when the law of both
        samples is known to share it."""
        b = None if np.isscalar(target) else target
        if a.size < 2 or (b is not None and b.size < 2):
            self.check(False, f"{label}: fewer than 2 rows")
            return f"{label}: fewer than 2 rows"
        se2 = (sd * sd if sd is not None else a.var(ddof=1)) / a.size
        ref = float(target) if b is None else float(b.mean())
        if b is not None:
            se2 += (sd * sd if sd is not None else b.var(ddof=1)) / b.size
        gap, tol = abs(a.mean() - ref), SE_MULTIPLE * math.sqrt(se2) + allowance
        self.check(gap <= tol, f"{label}: mean {a.mean():.4f} vs {ref:.4f}, "
                               f"gap {gap:.4f} > tolerance {tol:.4f}")
        return (f"{label}: mean {a.mean():.4f} vs {ref:.4f} "
                f"(gap {gap:.4f}, tolerance {tol:.4f}, rows {a.size})")
