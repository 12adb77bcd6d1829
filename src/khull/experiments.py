"""Seeded Monte Carlo experiment campaigns behind the command line.

Each campaign is a list of independent replicate jobs; a job's generator
is derived from (master seed, job index) through a SeedSequence spawn
key, so serial and parallel runs produce byte-identical artifacts. Rows
are written in job order; replicates whose exact pipeline reports a
general-position violation or a numeric failure are excluded from
aggregation and counted, never silently dropped.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import faces, formulas, hull, tessellation
from .body import (Ball, ConvexBody, Ellipsoid, PNormBall, Polytope,
                   SurfaceMeasureSampler, uniform_sample)
from .errors import (ConfigError, DomainError, GeneralPositionError,
                     GeneralPositionWarning, NumericError)

EXPERIMENTS = ("sample-hull", "fvector-mc", "zerocell-mc", "expected-facets",
               "convergence")

_CONFIG_KEYS = ("experiment", "body", "n", "T", "T0", "replicates", "seed",
                "resolution", "directions", "n_values", "sphere_nodes",
                "mc_inner_samples", "estimator", "out")

_INTEGER_KEYS = ("n", "replicates", "seed", "resolution", "directions", "sphere_nodes",
                 "mc_inner_samples")

_FLAG_COLUMNS = ("gp_ok", "certified")
_ID_COLUMNS = ("replicate", "seed")
_DUMPS = ("sample-hull", "zerocell-mc")  # campaigns that write replicate 0's geometry


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def body_from_spec(spec: dict) -> ConvexBody:
    """Build a body from the JSON grammar:
    {"kind":"ball","r":1.0,"center":[0,0]}, {"kind":"ellipsoid","axes":[2,1]},
    {"kind":"pball","p":4,"scale":1}, {"kind":"polytope","vertices":[...]}.

    An optional "d" key sets the dimension when no center is given.
    """
    if not isinstance(spec, dict):
        raise ConfigError('body spec must be a JSON object with a "kind" key')
    kind = spec.get("kind")
    allowed = {
        "ball": {"kind", "r", "center", "d"},
        "ellipsoid": {"kind", "axes", "center", "rotation"},
        "pball": {"kind", "p", "scale", "center", "d"},
        "polytope": {"kind", "vertices"},
    }
    if kind not in allowed:
        raise ConfigError(
            f"unknown body kind {kind!r}; use one of {sorted(allowed)}")
    extra = set(spec) - allowed[kind]
    if extra:
        raise ConfigError(
            f"unknown keys {sorted(extra)} for body kind {kind!r}; "
            f"allowed: {sorted(allowed[kind])}")

    if not _is_integer(spec.get("d", 2)):
        raise ConfigError(f'body "d" must be an integer, got {spec["d"]!r}')

    def center_for(default_dim_source=None):
        if "center" in spec:
            return np.asarray(spec["center"], dtype=float)
        return np.zeros(spec.get("d", default_dim_source if default_dim_source else 2))

    try:
        if kind == "ball":
            if "r" not in spec:
                raise ConfigError('ball spec needs "r"')
            body = Ball(float(spec["r"]), center_for())
        elif kind == "ellipsoid":
            if "axes" not in spec:
                raise ConfigError('ellipsoid spec needs "axes"')
            axes = np.asarray(spec["axes"], dtype=float)
            rot = spec.get("rotation")
            rot = np.asarray(rot, dtype=float) if rot is not None else None
            body = Ellipsoid(axes, center_for(axes.size), rot)
        elif kind == "pball":
            for key in ("p", "scale"):
                if key not in spec:
                    raise ConfigError(f'pball spec needs "{key}"')
            body = PNormBall(float(spec["p"]), float(spec["scale"]), center_for())
        elif "vertices" not in spec:
            raise ConfigError('polytope spec needs "vertices"')
        else:
            body = Polytope(np.asarray(spec["vertices"], dtype=float))
    except ConfigError:
        raise
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} spec: {exc}") from exc
    if body.dim not in (2, 3):
        raise ConfigError(f"{kind} body has dimension {body.dim}; only d = 2 and 3 are supported")
    return body


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign: which experiment, over which body, at what scale.

    `n` is the sample size for hull experiments and the default entry of
    the `n_values` schedule for convergence runs; `T0` is the initial
    truncation for zero cells. `resolution` is the polar-family vertex
    count of the approximate f-vector pipeline, `directions` the radial
    grid of the scaled statistics.
    """

    experiment: str
    body: dict
    n: int = 1000
    T0: float = 5.0
    replicates: int = 1
    seed: int = 42
    resolution: int = 256
    directions: int | None = None
    n_values: tuple[int, ...] = ()
    sphere_nodes: int | None = None
    mc_inner_samples: int = 100_000
    estimator: str = "auto"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"use one of {', '.join(EXPERIMENTS)}")
        body_from_spec(self.body)  # fail fast, with the grammar error
        for key in _INTEGER_KEYS:
            value = getattr(self, key)
            if value is not None and not _is_integer(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not all(_is_integer(n) for n in self.n_values):
            raise ConfigError(f"n_values entries must be integers, got {list(self.n_values)}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if (isinstance(self.T0, bool)
                or not isinstance(self.T0, (int, float, np.integer, np.floating))
                or not 0.0 < self.T0 < math.inf):
            raise ConfigError(f"T0 must be a finite positive number, got {self.T0!r}")
        if self.resolution < 8:
            raise ConfigError("resolution must be at least 8")
        if self.directions is not None and self.directions < 8:
            raise ConfigError("directions must be at least 8")
        if any(n < 1 for n in self.n_values):
            raise ConfigError("n_values entries must be at least 1")
        if self.estimator not in ("auto", "symmetric", "general"):
            raise ConfigError("estimator must be auto, symmetric or general")

    def schedule(self) -> tuple[int, ...]:
        return self.n_values if self.n_values else (self.n,)


def load_config(path, experiment: str | None = None,
                seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Read a JSON config; CLI-level experiment/seed/out override the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
    if "body" not in raw:
        raise ConfigError('config needs a "body" object')
    kwargs = dict(raw)
    if "T" in kwargs:  # accepted alias
        kwargs["T0"] = kwargs.pop("T")
    if "n_values" in kwargs:
        if not isinstance(kwargs["n_values"], list):
            raise ConfigError("n_values must be a list of integers")
        kwargs["n_values"] = tuple(kwargs["n_values"])
    named = raw.get("experiment")
    if experiment is not None and named is not None and named != experiment:
        raise ConfigError(
            f"config names experiment {named!r} but the subcommand is "
            f"{experiment!r}; drop the config key or match them")
    kwargs["experiment"] = experiment or named
    if kwargs["experiment"] is None:
        raise ConfigError(
            'no experiment named: pass a subcommand or an "experiment" config key')
    if seed is not None:
        kwargs["seed"] = seed
    if out is not None:
        kwargs["out"] = out
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _body_key(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.body, sort_keys=True)


@lru_cache(maxsize=16)
def _cached_body(body_json: str) -> ConvexBody:
    return body_from_spec(json.loads(body_json))


@lru_cache(maxsize=16)
def _cached_sampler(body_json: str) -> SurfaceMeasureSampler:
    """The body's surface sampler, built on first use in each process.

    Sharing it changes no output: the Monte Carlo mass estimate runs on
    its own fixed generator, and draws use only the caller's generator.
    """
    return _cached_body(body_json).surface_sampler()


def _replicate_rng(master_seed: int, job_index: int):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(job_index,))
    seed_word = int(ss.generate_state(1, np.uint64)[0])
    return np.random.default_rng(ss), seed_word


def _draw(K: ConvexBody, n: int, rng) -> hull.IntersectionBody:
    """The intersection body of n rows uniform in K: a planar disk's drawn
    band first (`hull._disk_sample`), any other body's by `uniform_sample`."""
    if isinstance(K, Ball) and K.dim == 2:
        return hull._disk_sample(K, n, rng)
    return hull.IntersectionBody(K, uniform_sample(K, n, rng))


def _hull_row(K: ConvexBody, experiment: str, n: int, resolution: int,
              replicate: int, seed_word: int, rng,
              dump: list[tuple[str, str]] | None = None) -> dict:
    """The CSV row of one hull replicate; an excluded replicate raises
    GeneralPositionError, a failed one NumericError. With a `dump` list,
    its geometry's (file name, text) is appended to it before either, or
    its NumericError raised."""
    family = faces._family(_draw(K, n, rng), resolution)
    if dump is not None and family.dump is not None:
        dump.append((family.dump_name, family.dump()))
    if not family.report.ok:
        raise GeneralPositionError(family.report)
    if family.error is not None:
        raise family.error
    sizes = family.sizes if experiment == "sample-hull" else {}
    return {"replicate": replicate, "seed": seed_word, "n": n, **family.columns, **sizes,
            "gp_ok": True}


def _zerocell_row(K: ConvexBody, sampler: SurfaceMeasureSampler, T0: float,
                  replicate: int, seed_word: int, rng) -> tuple[dict, tessellation.ZeroCell]:
    """The CSV row of one zero cell, and the cell."""
    z = tessellation.zero_cell(K, rng, T0=T0, sampler=sampler)
    fv = z.fvector()
    vols = tessellation.intrinsic_volumes_of_cell(z)
    row = {"replicate": replicate, "seed": seed_word, "T": z.truncation,
           "n_hyperplanes": z.n_hyperplanes}
    row.update({f"f{k}": fv[k] for k in range(len(fv))})
    row.update({f"V{j}": float(vols[j]) for j in range(K.dim + 1)})
    row["certified"] = z.certified
    return row, z


def _convergence_row(K: ConvexBody, n: int, directions: int | None,
                     resolution: int, replicate: int, seed_word: int,
                     rng) -> dict:
    X = _draw(K, n, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats = tessellation._scaled_statistics(X, n, directions, resolution)
    flagged = any(issubclass(w.category, GeneralPositionWarning) for w in caught)
    row = {"replicate": replicate, "seed": seed_word, "n": n}
    row.update({f"f{k}": stats.fvector[k] for k in range(len(stats.fvector))})
    row.update({f"V{j}": float(stats.volumes[j]) for j in range(K.dim + 1)})
    row["outer_gap"] = stats.outer_gap
    row["gp_ok"] = not flagged
    return row


def _run_job(job: tuple) -> tuple[int, dict | None, str | None, tuple[str, str] | None]:
    """(job index, row or None, exclusion reason or None, dump or None).

    A job whose `dump` flag is set (job 0 of a campaign in _DUMPS that
    writes its files) also returns the file name and text of its geometry,
    or None when that geometry could not be built; every other job returns
    None there and builds no file text.
    """
    experiment, body_json, master_seed, job_index, replicate, params, dumps = job
    K = _cached_body(body_json)
    rng, seed_word = _replicate_rng(master_seed, job_index)
    dump: list[tuple[str, str]] | None = [] if dumps else None
    row = reason = None
    try:
        if experiment in ("fvector-mc", "sample-hull"):
            n, resolution = params
            row = _hull_row(K, experiment, n, resolution, replicate, seed_word, rng, dump)
        elif experiment == "zerocell-mc":
            (T0,) = params
            row, z = _zerocell_row(K, _cached_sampler(body_json), T0,
                                   replicate, seed_word, rng)
            if dump is not None:
                dump.append(("zero_cell.off", z.cell.to_off_text()))
        elif experiment == "convergence":
            n, directions, resolution = params
            row = _convergence_row(K, n, directions, resolution,
                                   replicate, seed_word, rng)
        else:
            raise ConfigError(f"experiment {experiment!r} has no replicate jobs")
    except GeneralPositionError:
        reason = "general-position"
    except NumericError:
        reason = "numeric"
    return job_index, row, reason, dump[0] if dump else None


def _jobs_for(cfg: ExperimentConfig, write: bool = False) -> list[tuple]:
    """One job per (per-n parameter tuple, replicate), in that order; the
    job index counts them from 0. With `write`, job 0 of a campaign in
    _DUMPS is flagged to return its geometry's file."""
    if cfg.experiment == "zerocell-mc":
        params = [(cfg.T0,)]
    elif cfg.experiment == "convergence":
        params = [(n, cfg.directions, cfg.resolution) for n in cfg.schedule()]
    else:
        params = [(cfg.n, cfg.resolution)]
    body_json = _body_key(cfg)
    pairs = ((p, i) for p in params for i in range(cfg.replicates))
    dumps = write and cfg.experiment in _DUMPS
    return [(cfg.experiment, body_json, cfg.seed, idx, i, p, dumps and idx == 0)
            for idx, (p, i) in enumerate(pairs)]


def _worker_count() -> int:
    raw = os.environ.get("KHULL_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"KHULL_THREADS must be an integer, got {raw!r}")
    if workers < 1:
        raise ConfigError("KHULL_THREADS must be at least 1")
    return workers


def summarize(rows: list[dict]) -> dict:
    """Mean, sample SD and SE per statistic, plus raw moments to order 4.

    Flag columns contribute only their mean (a fraction); identifier
    columns are skipped. The values sit in one (columns x rows) array, so
    each reduction runs along the rows of every column at once and rounds
    each column as a reduction over that column alone does.
    """
    if not rows:
        raise DomainError("cannot summarize an empty row stream")
    R = len(rows)
    out: dict = {"rows": R, "mean": {}, "sd": {}, "SE": {},
                 "moments": {}, "moment_SE": {}}
    cols = [c for c in rows[0] if c not in _ID_COLUMNS]
    vals = np.array([[float(r[c]) for r in rows] for c in cols]).reshape(len(cols), R)
    for col, mean in zip(cols, np.mean(vals, axis=1).tolist()):
        out["mean"][col] = mean
    stats = [k for k, c in enumerate(cols) if c not in _FLAG_COLUMNS]
    if not stats:
        return out
    svals = vals[stats]
    # (statistics, powers 1-4, rows)
    powers = np.stack([svals ** m for m in (1, 2, 3, 4)], axis=1)
    moments = np.mean(powers, axis=2).tolist()
    if R > 1:
        sds = np.std(svals, ddof=1, axis=1).tolist()
        moment_se = (np.std(powers, ddof=1, axis=2) / math.sqrt(R)).tolist()
    else:
        sds = [0.0] * len(stats)
        moment_se = [[0.0] * 4 for _ in stats]
    for k, sd, mom, mse in zip(stats, sds, moments, moment_se):
        col = cols[k]
        out["sd"][col] = sd
        out["SE"][col] = sd / math.sqrt(R)
        out["moments"][col] = mom
        out["moment_SE"][col] = mse
    return out


def _format_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(values: list) -> list[str]:
    """`_format_cell` of each value, a column at a time: a column of Python
    floats alone, or of ints alone (bools are not ints here), takes its
    type's own repr, which is what `_format_cell` returns for each."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return list(map(_format_cell, values))


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """The rows under a header of their columns, each cell formatted by
    `_format_cell`."""
    cells = [_format_column([row[c] for row in rows]) for c in columns]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _run_expected_facets(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    K = body_from_spec(cfg.body)
    spec = formulas.QuadratureSpec(sphere_nodes=cfg.sphere_nodes,
                                   mc_inner_samples=cfg.mc_inner_samples,
                                   seed=cfg.seed)
    mode = cfg.estimator
    if mode == "auto":
        mode = "symmetric" if K.is_origin_symmetric() else "general"
    if mode == "symmetric":
        est = formulas.ef0_symmetric(K, spec)
    else:
        est = formulas.ef0_general(K, spec)
    row = {"value": est.value, "standard_error": est.standard_error,
           "method": est.method}
    summary = {
        "value": est.value,
        "standard_error": est.standard_error,
        "method": est.method,
        "spec": {"sphere_nodes": spec.nodes_for(K.dim),
                 "mc_inner_samples": spec.mc_inner_samples,
                 "batches": spec.batches, "seed": spec.seed,
                 "estimator": mode},
        "mean": {"value": est.value},
        "SE": {"value": est.standard_error},
    }
    return [row], summary


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run a campaign; write CSV + JSON artifacts when an output directory
    is configured; return the JSON summary as a dict."""
    started = time.perf_counter()
    target = out_dir if out_dir is not None else cfg.out
    excluded: dict[str, int] = {}
    first_dump = None

    if cfg.experiment == "expected-facets":
        rows, summary = _run_expected_facets(cfg)
        columns = list(rows[0].keys())
    else:
        if cfg.experiment == "zerocell-mc":
            key = _body_key(cfg)
            try:
                tessellation._layer_mean(_cached_body(key), _cached_sampler(key), cfg.T0)
            except DomainError as exc:
                raise ConfigError(str(exc)) from exc
        jobs = _jobs_for(cfg, target is not None)
        workers = _worker_count()
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(jobs) // (8 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_job, jobs, chunksize=chunk))
        else:
            results = [_run_job(job) for job in jobs]
        results.sort(key=lambda item: item[0])
        first_dump = results[0][3]
        rows = []
        for _, row, reason, _ in results:
            if row is None:
                excluded[reason] = excluded.get(reason, 0) + 1
            else:
                rows.append(row)
        n_excluded = sum(excluded.values())
        if not rows:
            raise NumericError(
                f"all {len(jobs)} replicates were excluded "
                f"({excluded}); the configuration is degenerate for this body")
        columns = list(rows[0].keys())
        summary = summarize(rows)
        if cfg.experiment == "convergence" and len(cfg.schedule()) > 1:
            summary["by_n"] = {
                str(n): summarize([r for r in rows if r["n"] == n])
                for n in cfg.schedule()}
        assert len(rows) + n_excluded == len(jobs)

    summary.update(
        experiment=cfg.experiment,
        body=cfg.body,
        replicates=cfg.replicates,
        seed=cfg.seed,
        columns=columns,
        excluded_replicates=sum(excluded.values()),
        exclusion_reasons=excluded,
        runtime=time.perf_counter() - started,
    )

    if target is not None:
        out_path = Path(target)
        out_path.mkdir(parents=True, exist_ok=True)
        _write_csv(out_path / f"{cfg.experiment}.csv", rows, columns)
        (out_path / f"{cfg.experiment}_summary.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True))
        # Replicate 0's geometry is the file its own job returned; when the
        # job could not build it, the campaign fails after the statistics
        # are written.
        if cfg.experiment in _DUMPS:
            if first_dump is None:
                raise NumericError("replicate 0 was excluded, so its geometry has no file")
            name, text = first_dump
            (out_path / name).write_text(text)
    return summary
