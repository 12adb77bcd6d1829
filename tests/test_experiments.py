import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

from khull import (Ball, ConfigError, DomainError, Ellipsoid, ExperimentConfig,
                   NumericError, PNormBall, Polytope, body_from_spec, load_config,
                   run_experiment, summarize, uniform_sample)
import khull
from khull.cli import main
from khull.faces import GeneralPositionReport

DISK = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0]}
ELLIPSE = {"kind": "ellipsoid", "axes": [2.0, 1.0], "center": [0.0, 0.0]}
BALL3 = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}
SQUARE = {"kind": "polytope", "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]}
CUBE = {"kind": "polytope", "vertices": [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                                         for z in (-1.0, 1.0)]}
PBALL4 = {"kind": "pball", "p": 4.0, "scale": 1.0, "center": [0.0, 0.0]}
PBALL4_3D = {"kind": "pball", "p": 4.0, "scale": 1.0, "center": [0.0, 0.0, 0.0]}


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestBodyFromSpec:
    def test_all_kinds(self):
        ball = body_from_spec(DISK)
        assert isinstance(ball, Ball)
        ell = body_from_spec({"kind": "ellipsoid", "axes": [2.0, 1.0],
                              "center": [0.0, 0.0]})
        assert ell.support([1.0, 0.0]) == pytest.approx(2.0)
        rot = body_from_spec({"kind": "ellipsoid", "axes": [2.0, 1.0],
                              "center": [0.0, 0.0],
                              "rotation": [[0.0, -1.0], [1.0, 0.0]]})
        assert rot.support([0.0, 1.0]) == pytest.approx(2.0)
        pb = body_from_spec({"kind": "pball", "p": 4.0, "scale": 1.0,
                             "center": [0.0, 0.0]})
        assert pb.gauge([1.0, 0.0]) == pytest.approx(1.0)
        poly = body_from_spec({"kind": "polytope",
                               "vertices": [[-1, -1], [1, -1], [0, 1]]})
        assert isinstance(poly, Polytope)

    def test_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            body_from_spec("ball")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            body_from_spec({"kind": "torus", "radius": 1.0})

    def test_rejects_extra_keys(self):
        with pytest.raises(ConfigError):
            body_from_spec({**DISK, "colour": "red"})

    def test_rejects_missing_required(self):
        with pytest.raises(ConfigError):
            body_from_spec({"kind": "ball"})

    def test_wraps_domain_errors(self):
        with pytest.raises(ConfigError):
            body_from_spec({"kind": "ball", "r": -2.0,
                            "center": [0.0, 0.0]})


class TestExperimentConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="teleport", body=DISK)

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fvector-mc", body=DISK, replicates=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fvector-mc", body=DISK, n=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=0.0)
        for T0 in (math.nan, math.inf, True):
            with pytest.raises(ConfigError, match="T0 must be a finite positive number"):
                ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=T0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fvector-mc", body=DISK, resolution=4)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="convergence", body=DISK,
                             n_values=(0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="expected-facets", body=DISK,
                             estimator="oracle")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fvector-mc", body=DISK, seed=2 ** 64)

    def test_schedule(self):
        cfg = ExperimentConfig(experiment="convergence", body=DISK,
                               n_values=(50, 100))
        assert cfg.schedule() == (50, 100)
        single = ExperimentConfig(experiment="fvector-mc", body=DISK, n=77)
        assert single.schedule() == (77,)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            T0=2.0, replicates=3, seed=11)
        cfg = load_config(path)
        assert cfg.experiment == "zerocell-mc"
        assert cfg.T0 == 2.0 and cfg.replicates == 3 and cfg.seed == 11

    def test_t_alias(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            T=7.5)
        assert load_config(path).T0 == 7.5

    def test_t_and_t0_together_rejected(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            T=1.0, T0=5.0)
        with pytest.raises(ConfigError, match='"T" and "T0"'):
            load_config(path)

    def test_subcommand_mismatch(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK)
        with pytest.raises(ConfigError, match="subcommand"):
            load_config(path, experiment="fvector-mc")

    def test_experiment_from_argument(self, tmp_path):
        path = write_config(tmp_path, body=DISK, n=50)
        cfg = load_config(path, experiment="fvector-mc")
        assert cfg.experiment == "fvector-mc"

    def test_no_experiment_anywhere(self, tmp_path):
        path = write_config(tmp_path, body=DISK)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            seed=1)
        cfg = load_config(path, seed=99, out=str(tmp_path / "artifacts"))
        assert cfg.seed == 99
        assert cfg.out == str(tmp_path / "artifacts")

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            wibble=1)
        with pytest.raises(ConfigError, match="wibble"):
            load_config(path)

    def test_missing_body_rejected(self, tmp_path):
        path = write_config(tmp_path, experiment="zerocell-mc")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(array))

    def test_unreadable_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))


class TestSummarize:
    def test_constant_column(self):
        s = summarize([{"x": 3.0} for _ in range(5)])
        assert s["rows"] == 5
        assert s["mean"]["x"] == 3.0
        assert s["sd"]["x"] == 0.0
        assert s["SE"]["x"] == 0.0
        assert s["moments"]["x"] == [3.0, 9.0, 27.0, 81.0]

    def test_bernoulli_column(self):
        s = summarize([{"x": 0.0}, {"x": 1.0}])
        assert s["mean"]["x"] == 0.5
        assert s["sd"]["x"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert s["SE"]["x"] == pytest.approx(0.5, rel=1e-12)

    def test_flag_columns_mean_only(self):
        s = summarize([{"gp_ok": True, "x": 1.0},
                       {"gp_ok": False, "x": 2.0}])
        assert s["mean"]["gp_ok"] == 0.5
        assert "gp_ok" not in s["sd"]
        assert "gp_ok" not in s["moments"]

    def test_id_columns_skipped(self):
        s = summarize([{"replicate": 0, "seed": 5, "x": 1.0}])
        assert "replicate" not in s["mean"]
        assert "seed" not in s["mean"]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            summarize([])

    @pytest.mark.parametrize("R", [1, 2, 3, 9, 200])
    def test_matches_one_shot_reference(self, R):
        rng = np.random.default_rng(R)
        rows = [{"replicate": i, "seed": int(rng.integers(1 << 30)), "T": 5.0,
                 "f0": int(rng.integers(3, 30)), "x": float(rng.standard_normal()),
                 "tiny": float(1e-9 * rng.random()), "big": float(1e9 * rng.random()),
                 "gp_ok": bool(rng.random() < 0.9), "certified": True}
                for i in range(R)]
        for k in sorted({1, 2, R}):
            want = oracles.one_shot_summarize(rows[:k])
            assert json.dumps(summarize(rows[:k])) == json.dumps(want)

    def test_identifiers_and_flags_only(self):
        rows = [{"replicate": 0, "seed": 5, "gp_ok": True},
                {"replicate": 1, "seed": 6, "gp_ok": False}]
        assert summarize(rows) == oracles.one_shot_summarize(rows)


def _per_cell_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """The CSV writer formatting one cell at a time, as the reference."""
    import khull.experiments as exp

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([exp._format_cell(row[c]) for c in columns])


class TestCsvWriter:
    """`_write_csv` formats a column at a time; its bytes must be those of
    the per-cell writer."""

    @staticmethod
    def assert_same_bytes(tmp_path, rows, columns):
        import khull.experiments as exp

        exp._write_csv(tmp_path / "column.csv", rows, columns)
        _per_cell_csv(tmp_path / "cell.csv", rows, columns)
        assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()

    def test_mixed_cells(self, tmp_path):
        rows = [
            {"f": 0.1, "i": 3, "b": True, "np_f": np.float64(1e-300), "np_i": np.int64(-7),
             "np_b": np.bool_(False), "s": "quadrature", "mix": 2, "big": 2 ** 70},
            {"f": -0.0, "i": -1, "b": False, "np_f": np.float64(math.nan), "np_i": np.int64(0),
             "np_b": np.bool_(True), "s": 'a "quoted", text', "mix": 2.5, "big": -(2 ** 64)},
            {"f": math.inf, "i": 0, "b": True, "np_f": np.float32(0.1), "np_i": np.uint64(2 ** 63),
             "np_b": np.bool_(True), "s": "", "mix": True, "big": 1},
        ]
        self.assert_same_bytes(tmp_path, rows, list(rows[0]))
        self.assert_same_bytes(tmp_path, rows[:0], list(rows[0]))

    @pytest.mark.parametrize("experiment, body, params", [
        ("sample-hull", DISK, {"n": 50}),
        ("fvector-mc", DISK, {"n": 50}),
        ("fvector-mc", ELLIPSE, {"n": 50, "resolution": 64}),
        ("zerocell-mc", DISK, {"T0": 2}),
        ("zerocell-mc", BALL3, {}),
        ("convergence", DISK, {"n_values": (20, 40)}),
        ("convergence", ELLIPSE, {"n": 30}),
        ("expected-facets", DISK, {}),
    ])
    def test_every_experiment(self, tmp_path, monkeypatch, experiment, body, params):
        # the zerocell-mc T0 of 2, an int, leaves the T column mixed
        import khull.experiments as exp

        write = exp._write_csv
        seen = []

        def both(path, rows, columns):
            seen.append(len(rows))
            write(path, rows, columns)
            _per_cell_csv(tmp_path / "cell.csv", rows, columns)
            assert path.read_bytes() == (tmp_path / "cell.csv").read_bytes()

        monkeypatch.setattr(exp, "_write_csv", both)
        monkeypatch.setenv("KHULL_THREADS", "1")
        replicates = 1 if experiment == "expected-facets" else 4
        cfg = ExperimentConfig(experiment=experiment, body=body, replicates=replicates,
                               seed=5, **params)
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert seen and seen[0] >= 1


class TestRunExperiment:
    def test_zerocell_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=2.0,
                               replicates=6, seed=31)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["experiment"] == "zerocell-mc"
        assert summary["rows"] == 6
        assert summary["excluded_replicates"] == 0
        for col in ("T", "n_hyperplanes", "f0", "f1", "V0", "V1", "V2",
                    "certified"):
            assert col in summary["columns"]
        assert summary["mean"]["certified"] == 1.0
        csv_path = tmp_path / "zerocell-mc.csv"
        assert csv_path.exists()
        assert (tmp_path / "zerocell-mc_summary.json").exists()
        off = (tmp_path / "zero_cell.off").read_text()
        assert off.startswith("OFF")
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        v2 = [float(r["V2"]) for r in rows]
        assert np.mean(v2) == pytest.approx(summary["mean"]["V2"], abs=1e-12)
        assert {r["certified"] for r in rows} == {"true"}

    def test_sample_hull_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="sample-hull", body=DISK, n=40,
                               replicates=3, seed=5)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["rows"] == 3
        boundary = json.loads((tmp_path / "boundary.json").read_text())
        assert set(boundary.keys()) == {"intersection", "khull"}
        for part in boundary.values():
            assert set(part.keys()) == {"arcs", "vertices"}
        for col in ("f0", "f1", "kfacets", "arcs", "vertices", "gp_ok"):
            assert col in summary["columns"]
        assert summary["mean"]["f0"] == summary["mean"]["f1"]
        assert summary["mean"]["gp_ok"] == 1.0

    @pytest.mark.parametrize("n, replicates, seed, digest, reasons", [
        # the band-first draws (`hull._disk_sample`); replicate 0 of master
        # seed 256 drawn by `uniform_sample` had a near-cocircular witness,
        # its band-first draw has none (test_faces pins the old sample)
        (5000, 5, 256,
         "3a0993759485aa767f21195d65e611c0613514756678107f5fba57cbd0719f2f", {}),
        (3, 50, 42,
         "e74b88d0e10a9eb3a69227898c253055c1c129c7147e0123d1c4f35bff59b5de", {}),
    ])
    def test_frozen_seed_csv_digest(self, tmp_path, monkeypatch, n, replicates,
                                    seed, digest, reasons):
        # every column is an integer or a flag, so the bytes are stable
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="fvector-mc", body=DISK, n=n,
                               replicates=replicates, seed=seed)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        data = (tmp_path / "fvector-mc.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert summary["exclusion_reasons"] == reasons

    @pytest.mark.parametrize("experiment, body, n, replicates, name, digest", [
        ("fvector-mc", ELLIPSE, 400, 4, "fvector-mc.csv",
         "be93f533f64fd5cff2b21e784940358d3ff46f96daa5c6c30a4ec61e371b819f"),
        ("fvector-mc", BALL3, 1000, 3, "fvector-mc.csv",
         "8e1b050f7042d50dcd8e878a617820fc0af62eba4557bfd94aefab709feb5048"),
        ("sample-hull", ELLIPSE, 400, 1, "polar_hull.off",
         "5b0bc7c7238e3d8efe097cacc02790724beb1e973a2c8c6a6f98b3f91c366b9b"),
        ("sample-hull", BALL3, 1000, 1, "polar_hull.off",
         "84eebd7eab9b4223adb0d3de6f58e188ebc3ae1bae74913198ee73f2dadc8ec2"),
        ("fvector-mc", SQUARE, 400, 4, "fvector-mc.csv",
         "774e0a90d868700bc6f52a98e07c7d2e3c5974d19b489a6483a51543cae44ffc"),
        # the polar f-vector of the convergence statistics, at 512 directions
        ("convergence", ELLIPSE, 400, 3, "convergence.csv",
         "60fcd291a7558dffcbdd5f047cf810360d6fc9bd824239014d093dc0c9d17de6"),
    ])
    def test_frozen_seed_polar_digest(self, tmp_path, monkeypatch, experiment,
                                      body, n, replicates, name, digest):
        # the approximate pipeline at resolution 256; the OFF file holds
        # repr'd floats, so its bytes also pin the polar vertex arithmetic
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment=experiment, body=body, n=n,
                               replicates=replicates, seed=2024)
        run_experiment(cfg, out_dir=str(tmp_path))
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("experiment, body, params, digests", [
        ("zerocell-mc", DISK, {"replicates": 5}, {
            "zerocell-mc.csv":
            "209db9ddede57a7025a8f059e4abd965759f8b6faa91a8672efd1434e737e0ee",
            "zero_cell.off":
            "ff1ef6acc904009c4abc56d758f458cd0f3eeaf244f27df05e0f36a71fdf45b5"}),
        # the cell by polarity: V1-V3 differ from the hull of its
        # vertices in the last bits, and the OFF facets follow the dual's
        # vertex order
        ("zerocell-mc", BALL3, {"replicates": 4}, {
            "zerocell-mc.csv":
            "4f5c0c3c74f79c06a262008e1d88187a9c1ae280a46d92003b99b427a637b334",
            "zero_cell.off":
            "99b420e984a029fa75de0dc1e69891787c542ffb7c752e5a75eed627a798f332"}),
        ("zerocell-mc", ELLIPSE, {"replicates": 4}, {
            "zerocell-mc.csv":
            "46e9a24e3d4c60ea41679b68661eed04be12f6c645e240ace6b890d03430c3db",
            "zero_cell.off":
            "eba6c4264f12d287df9aa29de1fbfa0fdc22e658260a187345b78c452283b597"}),
        # V1 and V2 read off X's arc cycle, outer_gap 0.0, the sample drawn
        # band first
        ("convergence", DISK, {"n": 2000, "replicates": 3}, {
            "convergence.csv":
            "921d85e4addd97f85f67bbbab921286654ca0099207cdaba1dc581e6ea8f9cb9"}),
        # 2048 grid directions
        ("convergence", BALL3, {"n": 300, "replicates": 2}, {
            "convergence.csv":
            "4a11bad4c10951e84ec62aa80ca9e64009466ef36d0bb785242b2597cbc740c6"}),
        # the arc and corner counts, and the repr'd arc angles and corners,
        # of band-first draws
        ("sample-hull", DISK, {"n": 400, "replicates": 4}, {
            "sample-hull.csv":
            "39782ef05ffb1eec4eab81222b1e3d49886bc3cdd85c626ba2f994a51de39b1b",
            "boundary.json":
            "9deaacd427a46f69992c408896cd9da6b3412fc269be3eca17849df6f402f0ee"}),
        # the p-ball's rejection sampler and blocked mass, the polytopes'
        # facet atoms
        ("zerocell-mc", PBALL4, {"replicates": 4}, {
            "zerocell-mc.csv":
            "6e3a6b63ae7563471429ba7019e3e964d2dec6ee69f44626b0d4b56fde21e75c",
            "zero_cell.off":
            "c231fcf792a197ee0aec6e3ed7ea16c72843dd845d67cd8e7290359b0687f216"}),
        ("zerocell-mc", PBALL4_3D, {"replicates": 4}, {
            "zerocell-mc.csv":
            "7f4bf20c4a504c2d5752d9ecdc92fef781cc76ef7c36e5ebfa6f81bb44599798",
            "zero_cell.off":
            "b735a01f0640a7e15c62b69740dbc7b9b33c928d5086009c761b83bc39aaba99"}),
        ("zerocell-mc", SQUARE, {"replicates": 4}, {
            "zerocell-mc.csv":
            "51f5efd6d60040b7caddfa9a37b1ef679d89e08b4c56a44fefd168a59b6272aa",
            "zero_cell.off":
            "00bfd12bb2dc2ac630ced3900674fc4b059c7648ee13f26be7d779d30c03fa6b"}),
        ("zerocell-mc", CUBE, {"replicates": 4}, {
            "zerocell-mc.csv":
            "7b48da8dff618d4cfc28e1508e993bb1f82b9bee92acdde005f1e60cd3bf50c7",
            "zero_cell.off":
            "a9a561777a7f643788ceebe60dc813f68b92f555ff1f831416d84f44a0d4e5fe"}),
    ])
    def test_frozen_seed_zero_cell_digest(self, tmp_path, monkeypatch, experiment,
                                          body, params, digests):
        # repr'd floats pin the hyperplane draws, the certification loop,
        # the intrinsic volumes and the outer-gap radial bound
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment=experiment, body=body, seed=2024,
                               **params)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["exclusion_reasons"] == {}
        for name, digest in digests.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    @pytest.mark.parametrize("body, digest", [
        (ELLIPSE, "ec3c4cddc762847f18a6b49861d73afbc588dbf0dc373f584df72871a5380b9d"),
        (PBALL4, "122b454e1975ef72d7bc519a8fd4bf0f6aa05087778abde5990d0ecbc3f3ef5d"),
        (SQUARE, "0990dac1250a0ca4ceea801c80411035087a71adfce4574b9407dc7e96871009"),
        ({"kind": "ball", "r": 1.0, "center": [0.25, -0.1]},
         "d041d406f7b339d8d05ff29e6bcde57e4774859f605d58f241a39728af6e933c"),
    ])
    def test_frozen_seed_expected_facets_digest(self, tmp_path, body, digest):
        # repr'd value and standard error pin the weighted surface draws
        # (ellipse, p-ball, and the off-centre disk's general estimator)
        # and the facet atom sums (square)
        cfg = ExperimentConfig(experiment="expected-facets", body=body, seed=2024,
                               mc_inner_samples=2000, sphere_nodes=128)
        run_experiment(cfg, out_dir=str(tmp_path))
        data = (tmp_path / "expected-facets.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("body, cls, name", [
        (SQUARE, Polytope, "_facet_atoms"),
        (CUBE, Polytope, "_facet_atoms"),
        (PBALL4, PNormBall, "_envelope"),
    ])
    def test_surface_constants_built_once_per_body(self, tmp_path, monkeypatch, body, cls,
                                                   name):
        # the facet atoms and the rejection envelope are read by the sampler
        # and by every draw of every replicate, and built on first read
        import khull.experiments as exp
        prop = cls.__dict__[name]
        built = []

        def counted(K, build=prop.func):
            built.append(K)
            return build(K)

        monkeypatch.setattr(prop, "func", counted)
        monkeypatch.setenv("KHULL_THREADS", "1")
        exp._cached_body.cache_clear()
        exp._cached_sampler.cache_clear()
        cfg = ExperimentConfig(experiment="zerocell-mc", body=body, replicates=20, seed=19)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["rows"] == 20
        assert len(built) == 1

    def test_surface_sampler_built_once(self, tmp_path, monkeypatch):
        import khull.experiments as exp
        calls = []
        build = Ellipsoid.surface_sampler

        def counted(self, *args, **kwargs):
            calls.append(1)
            return build(self, *args, **kwargs)

        monkeypatch.setattr(Ellipsoid, "surface_sampler", counted)
        exp._cached_sampler.cache_clear()
        cfg = ExperimentConfig(experiment="zerocell-mc", body=ELLIPSE,
                               replicates=20, seed=19)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        assert len(calls) == 1  # the zero_cell.off dump included
        # each worker then builds its own sampler
        exp._cached_sampler.cache_clear()
        monkeypatch.setenv("KHULL_THREADS", "2")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        for name in ("zerocell-mc.csv", "zero_cell.off"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pooled" / name).read_bytes()

    def test_zero_cell_computed_once_per_replicate(self, tmp_path, monkeypatch):
        import khull.experiments as exp
        calls = []
        build = exp.tessellation.zero_cell

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(exp.tessellation, "zero_cell", counted)
        cfg = ExperimentConfig(experiment="zerocell-mc", body=ELLIPSE,
                               replicates=20, seed=19)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        assert len(calls) == 20  # zero_cell.off is replicate 0's own cell
        monkeypatch.setenv("KHULL_THREADS", "2")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        for name in ("zerocell-mc.csv", "zero_cell.off"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pooled" / name).read_bytes()

    @pytest.mark.parametrize("body, module, builder, dump", [
        (DISK, "hull", "_disk_pass", "boundary.json"),
        (ELLIPSE, "faces", "_polar_hull", "polar_hull.off"),
    ])
    def test_sample_hull_built_once_per_replicate(self, tmp_path, monkeypatch, body,
                                                  module, builder, dump):
        import khull.experiments as exp
        calls = []
        build = getattr(getattr(exp, module), builder)

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        # faces holds its own reference to hull._disk_pass
        for owner in (exp.hull, exp.faces):
            if hasattr(owner, builder):
                monkeypatch.setattr(owner, builder, counted)
        cfg = ExperimentConfig(experiment="sample-hull", body=body, n=300,
                               replicates=6, seed=23)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        assert len(calls) == 6  # the dump is replicate 0's own geometry
        monkeypatch.setenv("KHULL_THREADS", "2")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        for name in ("sample-hull.csv", dump):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pooled" / name).read_bytes()

    @staticmethod
    def seed_reused(X) -> bool:
        """Whether the disk pass over X uses the seed sweep as X's sweep:
        `_reach_rows` picks rows and returns their sweep."""
        from khull import hull

        reach = hull._reach_rows(X.base.radius, X.base.center[None, :] - X.points,
                                 X.screen, X.sq)
        return reach is not None and reach[1] is not None

    @staticmethod
    def assert_pruned_once(tmp_path, monkeypatch, cfg, prunes: int = 1):
        """Every replicate of the campaign builds its intersection body and
        screens its sample exactly once, on the first read of X's `screen`
        or by the band screen of `_disk_sample`, which hands its rows to X,
        and runs the qhull prune `prunes` times, and the CSV bytes are the
        same serial and pooled. A disk replicate sweeps its seed rows and, unless it
        reuses that sweep as X's, its X rows; the hull cycle of a
        `sample-hull` dump is swept after `_family` returns."""
        import khull.experiments as exp
        calls = {"screen": [], "_prune_to_hull": [], "IntersectionBody": [],
                 "_arc_sweep": [], "handed": []}
        # the constructor calls __post_init__ through the class, under every binding
        check = exp.hull.IntersectionBody.__post_init__

        def built(self):
            calls["IntersectionBody"].append(1)
            if self._screen is not None:
                calls["handed"].append(1)
            check(self)

        monkeypatch.setattr(exp.hull.IntersectionBody, "__post_init__", built)
        screen = exp.hull.IntersectionBody.screen

        def screened(self):
            if self._screen is None:
                calls["screen"].append(1)
            return screen.func(self)

        prop = functools.cached_property(screened)
        prop.__set_name__(exp.hull.IntersectionBody, "screen")
        monkeypatch.setattr(exp.hull.IntersectionBody, "screen", prop)
        for name in ("_prune_to_hull", "_arc_sweep"):
            made = calls[name]
            original = getattr(exp.hull, name)

            def counted(*args, _original=original, _made=made, **kwargs):
                _made.append(1)
                return _original(*args, **kwargs)

            # patch every module that binds it, so no call goes uncounted
            owners = [m for m in (exp.hull, exp.faces, exp.tessellation, exp)
                      if getattr(m, name, None) is original]
            for owner in owners:
                monkeypatch.setattr(owner, name, counted)
        sweeps = []
        family = exp.faces._family
        K = exp._cached_body(exp._body_key(cfg))
        disk = isinstance(K, Ball) and K.dim == 2

        def traced(X, *args, **kwargs):
            before = len(calls["_arc_sweep"])
            out = family(X, *args, **kwargs)
            made = len(calls["_arc_sweep"]) - before
            if disk:
                sweeps.append((made, TestRunExperiment.seed_reused(X)))
                del calls["_arc_sweep"][before + made:]  # the sweep seed_reused ran
            return out

        monkeypatch.setattr(exp.faces, "_family", traced)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        rows = cfg.replicates * len(cfg.schedule())
        assert len(calls["IntersectionBody"]) == rows
        assert len(calls["screen"]) + len(calls["handed"]) == rows
        assert len(calls["_prune_to_hull"]) == prunes * rows
        if disk:
            assert len(sweeps) == rows
            assert all(made == 1 + (not reused) for made, reused in sweeps)
        else:
            assert calls["_arc_sweep"] == []
        monkeypatch.setenv("KHULL_THREADS", "2")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        name = f"{cfg.experiment}.csv"
        serial = (tmp_path / "serial" / name).read_bytes()
        assert serial == (tmp_path / "pooled" / name).read_bytes()

    def test_disk_convergence_prunes_once_per_replicate(self, tmp_path, monkeypatch):
        # the volumes are read off X's arc cycle, which needs no hull rows
        # while the disk pass's certificate holds, as it does on these rows
        cfg = ExperimentConfig(experiment="convergence", body=DISK, n_values=(300, 2000),
                               replicates=4, seed=29)
        self.assert_pruned_once(tmp_path, monkeypatch, cfg, prunes=0)

    @pytest.mark.parametrize("experiment, body, params, prunes", [
        ("fvector-mc", DISK, {"n": 2000, "replicates": 3}, 0),
        ("fvector-mc", ELLIPSE, {"n": 1000, "replicates": 3}, 0),
        ("sample-hull", DISK, {"n": 2000, "replicates": 3}, 0),
        ("convergence", ELLIPSE, {"n_values": (300, 1000), "replicates": 2}, 1),
        ("convergence", BALL3, {"n": 200, "replicates": 2}, 1),
    ], ids=["disk-fvector", "ellipse-fvector", "disk-sample-hull", "ellipse-convergence",
            "ball3-convergence"])
    def test_sample_pruned_once_per_replicate(self, tmp_path, monkeypatch, experiment,
                                              body, params, prunes):
        # the polar hull and the convergence statistics share one X; the
        # polar hull and the disk arc pass read only the screen rows, so
        # an fvector-mc replicate never runs qhull (a disk one when its
        # certificate holds), while the convergence statistics read the
        # hull rows
        cfg = ExperimentConfig(experiment=experiment, body=body, seed=29, **params)
        self.assert_pruned_once(tmp_path, monkeypatch, cfg, prunes)

    def test_excluded_replicate_zero_raises_after_writing(self, tmp_path, monkeypatch):
        import khull.experiments as exp
        build = exp.tessellation.zero_cell
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise NumericError("zero cell not certified")
            return build(*args, **kwargs)

        monkeypatch.setattr(exp.tessellation, "zero_cell", first_fails)
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK,
                               replicates=3, seed=8)
        with pytest.raises(NumericError, match="replicate 0"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert len(calls) == 3
        summary = json.loads((tmp_path / "zerocell-mc_summary.json").read_text())
        assert summary["exclusion_reasons"] == {"numeric": 1}
        assert not (tmp_path / "zero_cell.off").exists()

    def test_open_replicate_zero_cycle_raises_after_writing(self, tmp_path, monkeypatch):
        import khull.experiments as exp
        cfg = ExperimentConfig(experiment="sample-hull", body=DISK, n=50,
                               replicates=3, seed=8)
        disk = exp._cached_body(exp._body_key(cfg))
        first = disk.center[None, :] - exp.hull._disk_sample(
            disk, cfg.n, exp._replicate_rng(8, 0)[0]).points
        build = exp.hull._disk_cycle

        def fails_on_first(radius, centers_all, *args):
            if np.array_equal(centers_all, first):
                raise NumericError("a corner of the sweep lies outside an active disk")
            return build(radius, centers_all, *args)

        monkeypatch.setattr(exp.hull, "_disk_cycle", fails_on_first)
        monkeypatch.setenv("KHULL_THREADS", "1")
        with pytest.raises(NumericError, match="replicate 0"):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "sample-hull_summary.json").read_text())
        assert summary["exclusion_reasons"] == {"numeric": 1}
        assert (tmp_path / "sample-hull.csv").exists()
        assert not (tmp_path / "boundary.json").exists()

    def test_excluded_replicate_zero_still_dumps(self, tmp_path, monkeypatch):
        # the geometry is built and dumped before the verdict excludes the row
        import khull.experiments as exp
        real, calls = exp.faces._report, []

        def first_excluded(xpass):
            calls.append(1)
            if len(calls) == 1:
                return GeneralPositionReport(ok=False, witnesses=())
            return real(xpass)

        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="sample-hull", body=DISK, n=50,
                               replicates=3, seed=8)
        run_experiment(cfg, out_dir=str(tmp_path / "plain"))
        monkeypatch.setattr(exp.faces, "_report", first_excluded)
        summary = run_experiment(cfg, out_dir=str(tmp_path / "excluded"))
        assert summary["exclusion_reasons"] == {"general-position": 1}
        plain = (tmp_path / "plain" / "boundary.json").read_bytes()
        assert (tmp_path / "excluded" / "boundary.json").read_bytes() == plain

    @pytest.mark.parametrize("experiment, body, small, large", [
        # few rows span a long polar hull
        ("sample-hull", ELLIPSE, {"n": 400, "replicates": 2}, {"n": 10, "replicates": 9}),
        ("sample-hull", DISK, {"n": 40, "replicates": 2}, {"n": 3000, "replicates": 9}),
        ("zerocell-mc", DISK, {"T0": 2.0, "replicates": 2}, {"T0": 5.0, "replicates": 9}),
    ])
    def test_rerun_over_longer_files_matches_fresh_run(self, tmp_path, monkeypatch,
                                                       experiment, body, small, large):
        # a directory that holds longer files from a larger earlier run
        # ends with the bytes a fresh directory gets
        monkeypatch.setenv("KHULL_THREADS", "1")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_experiment(ExperimentConfig(experiment=experiment, body=body, seed=31, **large),
                       out_dir=str(reused))
        before = {p.name: p.stat().st_size for p in reused.iterdir()}
        cfg = ExperimentConfig(experiment=experiment, body=body, seed=32, **small)
        run_experiment(cfg, out_dir=str(reused))
        run_experiment(cfg, out_dir=str(fresh))
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(before) == names and len(names) == 3
        for name in names:
            got, want = (reused / name).read_bytes(), (fresh / name).read_bytes()
            assert before[name] > len(want), name
            if name.endswith("_summary.json"):
                got, want = json.loads(got), json.loads(want)
                assert got.pop("runtime") > 0.0 and want.pop("runtime") > 0.0
            assert got == want, name

    @pytest.mark.parametrize("experiment, body, small, large", [
        ("sample-hull", ELLIPSE, {"n": 400, "replicates": 2}, {"n": 10, "replicates": 9}),
        ("sample-hull", DISK, {"n": 40, "replicates": 2}, {"n": 3000, "replicates": 9}),
        ("zerocell-mc", DISK, {"T0": 2.0, "replicates": 2}, {"T0": 5.0, "replicates": 9}),
    ])
    def test_rerun_over_shorter_files_matches_fresh_run(self, tmp_path, monkeypatch,
                                                        experiment, body, small, large):
        # the mirror of the test above, its two runs in turn: files written
        # over shorter ones end with the bytes a fresh directory gets
        monkeypatch.setenv("KHULL_THREADS", "1")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_experiment(ExperimentConfig(experiment=experiment, body=body, seed=32, **small),
                       out_dir=str(reused))
        before = {p.name: p.stat().st_size for p in reused.iterdir()}
        cfg = ExperimentConfig(experiment=experiment, body=body, seed=31, **large)
        run_experiment(cfg, out_dir=str(reused))
        run_experiment(cfg, out_dir=str(fresh))
        names = sorted(p.name for p in fresh.iterdir())
        assert sorted(before) == names and len(names) == 3
        for name in names:
            got, want = (reused / name).read_bytes(), (fresh / name).read_bytes()
            assert before[name] < len(want), name
            if name.endswith("_summary.json"):
                got, want = json.loads(got), json.loads(want)
                assert got.pop("runtime") > 0.0 and want.pop("runtime") > 0.0
            assert got == want, name

    def test_failed_write_leaves_a_prefix_of_the_new_bytes(self, tmp_path, monkeypatch):
        # a disk that fills half way through the CSV leaves the half of the
        # new bytes that was written, and no row of the longer earlier run
        import errno

        import khull.experiments as exp
        monkeypatch.setenv("KHULL_THREADS", "1")
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_experiment(ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=5.0,
                                        replicates=9, seed=31), out_dir=str(reused))
        old = (reused / "zerocell-mc.csv").read_bytes()
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=2.0,
                               replicates=4, seed=32)
        run_experiment(cfg, out_dir=str(fresh))
        want = (fresh / "zerocell-mc.csv").read_bytes()
        assert len(old) > len(want)
        write, sizes = os.write, []

        def half_then_full_disk(fd, data):
            sizes.append(len(data))
            if len(sizes) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, bytes(data[:len(data) // 2]))

        monkeypatch.setattr(exp.os, "write", half_then_full_disk)
        with pytest.raises(OSError) as failed:
            run_experiment(cfg, out_dir=str(reused))
        monkeypatch.undo()
        assert failed.value.errno == errno.ENOSPC
        half = len(want) // 2
        assert sizes == [len(want), len(want) - half]
        assert (reused / "zerocell-mc.csv").read_bytes() == want[:half]

    def test_symlinked_artifact_is_written_through(self, tmp_path, monkeypatch):
        # as with open("w"): the link stays a link, and its target keeps
        # its inode and mode and ends with the new bytes
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=2.0,
                               replicates=3, seed=32)
        run_experiment(cfg, out_dir=str(tmp_path / "fresh"))
        want = (tmp_path / "fresh" / "zerocell-mc.csv").read_bytes()
        target, out = tmp_path / "kept" / "rows.csv", tmp_path / "linked"
        target.parent.mkdir()
        target.write_bytes(b"stale row\r\n" * 1000)
        target.chmod(0o640)
        inode = target.stat().st_ino
        out.mkdir()
        (out / "zerocell-mc.csv").symlink_to(target)
        run_experiment(cfg, out_dir=str(out))
        assert (out / "zerocell-mc.csv").is_symlink()
        assert target.read_bytes() == want
        assert target.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o640

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK, T0=2.0,
                               replicates=8, seed=77)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        monkeypatch.setenv("KHULL_THREADS", "3")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        serial = (tmp_path / "serial" / "zerocell-mc.csv").read_bytes()
        pooled = (tmp_path / "pooled" / "zerocell-mc.csv").read_bytes()
        assert serial == pooled

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "many")
        cfg = ExperimentConfig(experiment="zerocell-mc", body=DISK,
                               replicates=1)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_gp_exclusion_accounting(self, monkeypatch):
        import khull.experiments as exp

        calls = {"count": 0}
        real = exp.faces._report

        # the verdict on each replicate's X arc pass
        def flaky(xpass):
            calls["count"] += 1
            if calls["count"] == 3:
                return GeneralPositionReport(ok=False, witnesses=())
            return real(xpass)

        monkeypatch.setenv("KHULL_THREADS", "1")
        monkeypatch.setattr(exp.faces, "_report", flaky)
        cfg = ExperimentConfig(experiment="fvector-mc", body=DISK, n=25,
                               replicates=6, seed=13)
        summary = run_experiment(cfg)
        assert summary["rows"] == 5
        assert summary["excluded_replicates"] == 1
        assert summary["exclusion_reasons"] == {"general-position": 1}

    def test_all_excluded_raises(self, monkeypatch):
        import khull.experiments as exp

        monkeypatch.setenv("KHULL_THREADS", "1")
        monkeypatch.setattr(
            exp.faces, "_report", lambda xpass: GeneralPositionReport(ok=False, witnesses=()))
        cfg = ExperimentConfig(experiment="fvector-mc", body=DISK, n=25,
                               replicates=2, seed=13)
        with pytest.raises(NumericError, match="excluded"):
            run_experiment(cfg)

    def test_convergence_by_n(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="convergence", body=DISK,
                               n_values=(30, 60), replicates=3, seed=19,
                               resolution=64)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["rows"] == 6
        assert set(summary["by_n"].keys()) == {"30", "60"}
        assert summary["by_n"]["30"]["rows"] == 3
        for col in ("n", "f0", "f1", "V2", "outer_gap", "gp_ok"):
            assert col in summary["columns"]

    def test_near_cocircular_convergence_row_is_kept(self, monkeypatch):
        # job 1444 of the acceptance convergence campaign, its sample drawn
        # by `uniform_sample`: three circles meet 1.7e-9 from one corner,
        # so the row is kept and flagged
        import khull.experiments as exp
        from khull.experiments import _jobs_for, _run_job

        monkeypatch.setattr(exp.hull, "_disk_sample", lambda K, n, rng: exp.hull.IntersectionBody(
            K, uniform_sample(K, n, rng)))
        cfg = ExperimentConfig(experiment="convergence", body=DISK, n=2000,
                               replicates=1445, seed=404)
        index, row, reason, _ = _run_job(_jobs_for(cfg)[1444])
        assert (index, reason) == (1444, None)
        assert row["replicate"] == 1444 and row["n"] == 2000
        assert row["gp_ok"] is False

    def test_old_probe_sample_convergence_row_is_flagged(self, monkeypatch):
        # job 0 of master seed 256 drawn by `uniform_sample`, the sample
        # test_faces pins as near-cocircular: the row is kept and flagged
        import khull.experiments as exp

        K = Ball(1.0, np.zeros(2))
        pts = uniform_sample(K, 5000, exp._replicate_rng(256, 0)[0])
        monkeypatch.setattr(exp.hull, "_disk_sample",
                            lambda K, n, rng: exp.hull.IntersectionBody(K, pts))
        row = exp._convergence_row(K, 5000, None, 256, 0, 0, None)
        assert row["gp_ok"] is False

    def test_repeated_hull_row_convergence_row_is_kept(self, monkeypatch):
        # a copy of a hull vertex is dropped with a duplicate witness: the
        # convergence row keeps the f-vector of the sample without it, flagged
        import khull.experiments as exp
        from scipy.spatial import ConvexHull

        K = Ball(1.0, np.zeros(2))
        pts = uniform_sample(K, 500, np.random.default_rng(7171))
        rows = {}
        for name, sample in (("plain", pts),
                             ("copy", np.insert(pts, 100, pts[ConvexHull(pts).vertices[0]],
                                                axis=0))):
            monkeypatch.setattr(exp.hull, "_disk_sample",
                                lambda K, n, rng, s=sample: exp.hull.IntersectionBody(K, s))
            rows[name] = exp._convergence_row(K, 500, None, 256, 0, 0, None)
        assert (rows["plain"]["gp_ok"], rows["copy"]["gp_ok"]) == (True, False)
        assert (rows["copy"]["f0"], rows["copy"]["f1"]) == (rows["plain"]["f0"],
                                                            rows["plain"]["f1"])

    @pytest.mark.parametrize("experiment, reason", [("fvector-mc", "general-position"),
                                                    ("convergence", "numeric")])
    def test_witnesses_and_failed_cycle(self, monkeypatch, experiment, reason):
        # X's witnesses exclude a hull row ahead of its failed cycle; a
        # convergence row, which keeps flagged rows, fails on the cycle
        import khull.experiments as exp
        from khull.hull import DegeneracyWitness

        def fails(radius, centers_all, active, inner, witnesses, *args):
            witnesses.append(DegeneracyWitness("near-tangent", (0, 1), None, 0.0))
            raise NumericError("a corner of the sweep lies outside an active disk")

        monkeypatch.setattr(exp.hull, "_disk_cycle", fails)
        cfg = ExperimentConfig(experiment=experiment, body=DISK, n=50, replicates=1, seed=8)
        assert exp._run_job(exp._jobs_for(cfg)[0])[1:3] == (None, reason)

    @pytest.mark.parametrize("experiment, stages", [("fvector-mc", 0), ("sample-hull", 1)])
    def test_hull_cycle_built_only_for_the_dump(self, tmp_path, monkeypatch, experiment,
                                                stages):
        # kfacets is X's corner count; the hull cycle is built for job 0's
        # boundary.json alone
        import khull.experiments as exp
        calls = []
        stage = exp.hull._hull_stage

        def counted(*args):
            calls.append(1)
            return stage(*args)

        for owner in (exp.hull, exp.faces):
            monkeypatch.setattr(owner, "_hull_stage", counted)
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment=experiment, body=DISK, n=500, replicates=4, seed=31)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["rows"] == 4
        assert len(calls) == stages
        assert (tmp_path / "boundary.json").exists() == (stages == 1)

    @pytest.mark.parametrize("experiment, built", [("sample-hull", "_hull_stage"),
                                                   ("zerocell-mc", "to_off_text")])
    def test_geometry_built_only_when_written(self, tmp_path, monkeypatch, experiment,
                                              built):
        # job 0 builds its geometry's file text only for a campaign with an
        # output directory
        import khull.experiments as exp
        calls = []
        if built == "_hull_stage":
            stage = exp.hull._hull_stage
            for owner in (exp.hull, exp.faces):
                monkeypatch.setattr(owner, built, lambda *a: calls.append(1) or stage(*a))
        else:
            text = exp.faces.TaggedPolytope.to_off_text
            monkeypatch.setattr(exp.faces.TaggedPolytope, built,
                                lambda self: calls.append(1) or text(self))
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment=experiment, body=DISK, n=300, replicates=3, seed=37)
        assert run_experiment(cfg)["rows"] == 3
        assert calls == []
        run_experiment(cfg, out_dir=str(tmp_path))
        assert len(calls) == 1
        assert len(list(tmp_path.iterdir())) == 3

    @pytest.mark.parametrize("body", [DISK, BALL3], ids=["disk", "ball3"])
    def test_zero_cell_tagged_only_when_written(self, tmp_path, monkeypatch, body):
        # a zero-cell row reads the certified bare dual alone; job 0's
        # zero_cell.off builds one tagged hull: the tagged dual and the
        # polar cell in d = 3, the hull of the cell's vertices and no dual
        # in d = 2
        import khull.experiments as exp
        calls = {"_tag_hull": 0, "_polar_cell": 0}
        for owner, name in ((exp.faces, "_tag_hull"), (exp.tessellation, "_polar_cell")):
            build = getattr(owner, name)

            def counted(*args, name=name, build=build):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="zerocell-mc", body=body, replicates=6, seed=23)
        assert run_experiment(cfg)["rows"] == 6
        assert calls == {"_tag_hull": 0, "_polar_cell": 0}
        run_experiment(cfg, out_dir=str(tmp_path))
        assert calls == {"_tag_hull": 1, "_polar_cell": int(body is BALL3)}
        assert (tmp_path / "zero_cell.off").exists()

    def test_expected_facets_auto(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        cfg = ExperimentConfig(experiment="expected-facets", body=DISK,
                               seed=3)
        summary = run_experiment(cfg, out_dir=str(tmp_path))
        assert summary["method"] == "quadrature"
        assert summary["spec"]["estimator"] == "symmetric"
        assert summary["value"] == pytest.approx(math.pi ** 2 / 2.0,
                                                 abs=1e-6)
        assert (tmp_path / "expected-facets.csv").exists()

    def test_replicate_streams_are_decoupled(self, tmp_path, monkeypatch):
        # replicate k's stream depends on (seed, k) only, so a longer
        # campaign reproduces a shorter one's rows verbatim
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(ExperimentConfig(
            experiment="zerocell-mc", body=DISK, T0=2.0, replicates=2,
            seed=55), out_dir=str(tmp_path / "short"))
        run_experiment(ExperimentConfig(
            experiment="zerocell-mc", body=DISK, T0=2.0, replicates=5,
            seed=55), out_dir=str(tmp_path / "long"))
        short = (tmp_path / "short" / "zerocell-mc.csv").read_text().splitlines()
        long = (tmp_path / "long" / "zerocell-mc.csv").read_text().splitlines()
        assert long[:3] == short[:3]


class TestCli:
    def test_success_prints_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            T0=2.0, replicates=3, seed=9)
        rc = main(["zerocell-mc", "--config", path])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["experiment"] == "zerocell-mc"
        assert out["replicates"] == 3
        assert out["seed"] == 9

    def test_seed_and_out_overrides(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KHULL_THREADS", "1")
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            T0=2.0, replicates=2, seed=9)
        out_dir = tmp_path / "artifacts"
        rc = main(["zerocell-mc", "--config", path, "--seed", "123",
                   "--out", str(out_dir)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 123
        assert (out_dir / "zerocell-mc.csv").exists()

    def test_off_centre_disk_matches_centred(self, tmp_path, monkeypatch):
        # the exact pipeline tests interiority against the disk itself, so
        # a disk that does not contain the origin runs, with the same faces
        monkeypatch.setenv("KHULL_THREADS", "1")
        faces = {}
        for name, center in (("centred", [0.0, 0.0]), ("shifted", [5.0, 5.0])):
            path = write_config(tmp_path, f"{name}.json", experiment="fvector-mc",
                                body={"kind": "ball", "r": 1.0, "center": center},
                                n=2000, replicates=100, seed=31)
            rc = main(["fvector-mc", "--config", path, "--out", str(tmp_path / name)])
            assert rc == 0
            with (tmp_path / name / "fvector-mc.csv").open() as fh:
                faces[name] = [(r["replicate"], r["f0"], r["f1"], r["kfacets"])
                               for r in csv.DictReader(fh)]
        assert len(faces["centred"]) >= 95
        assert faces["shifted"] == faces["centred"]

    @pytest.mark.parametrize("experiment, body, shift, settings, rows_expected", [
        ("convergence", DISK, [5.0, 5.0],
         {"n_values": [100, 500, 2000], "replicates": 20}, 60),
        ("fvector-mc", ELLIPSE, [5.0, 5.0], {"n": 400, "replicates": 20}, 20),
        ("fvector-mc", BALL3, [5.0, 5.0, 5.0], {"n": 1000, "replicates": 20}, 20),
    ], ids=["disk-convergence", "ellipse-fvector-mc", "ball3-fvector-mc"])
    def test_off_centre_polar_paths_match_centred(self, tmp_path, monkeypatch, experiment,
                                                  body, shift, settings, rows_expected):
        # interiority is tested against the body, not through the gauge,
        # so a body that does not contain the origin runs with the same faces
        monkeypatch.setenv("KHULL_THREADS", "1")
        rows = {}
        for name, center in (("centred", body["center"]), ("shifted", shift)):
            path = write_config(tmp_path, f"{name}.json", experiment=experiment,
                                body=dict(body, center=center), seed=47, **settings)
            rc = main([experiment, "--config", path, "--out", str(tmp_path / name)])
            assert rc == 0
            with (tmp_path / name / f"{experiment}.csv").open() as fh:
                rows[name] = list(csv.DictReader(fh))
        centred, shifted = rows["centred"], rows["shifted"]
        assert len(shifted) == len(centred) == rows_expected
        exact = [c for c in centred[0]
                 if c[0] == "f" or c in ("replicate", "seed", "n", "gp_ok")]
        volumes = [c for c in centred[0] if c[0] == "V"]

        def table(rows, cols, cast=str):
            return [[cast(r[c]) for c in cols] for r in rows]

        assert table(shifted, exact) == table(centred, exact)
        np.testing.assert_allclose(table(shifted, volumes, float),
                                   table(centred, volumes, float), rtol=1e-9)

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK,
                            wibble=1)
        rc = main(["zerocell-mc", "--config", path])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"n_values": 5}, {"n_values": ["a"]}, {"replicates": 1.5}, {"n": 2.5},
        {"replicates": True}, {"seed": "x"}, {"T0": "x"},
        {"T0": math.nan}, {"T0": math.inf}, {"T0": True}, {"T": math.nan},
        {"body": {"kind": "ball", "r": 1.0, "d": 2.9}},
        {"body": {"kind": "pball", "p": 4, "scale": 1.0, "d": True}},
        {"body": {"kind": "ball", "r": 1.0, "d": 4}},
        {"body": {"kind": "ball", "r": 1.0, "d": 0}},
        {"body": {"kind": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0, 0.0]}},
        {"body": {"kind": "ellipsoid", "axes": [2.0]}},
    ], ids=["n_values-scalar", "n_values-string", "replicates-float", "n-float",
            "replicates-bool", "seed-string", "T0-string", "T0-nan", "T0-inf",
            "T0-bool", "T-nan", "d-float", "d-bool",
            "d-four", "d-zero", "center-four", "ellipsoid-one-axis"])
    def test_mistyped_value_exits_two(self, tmp_path, capsys, bad):
        payload = {"experiment": "convergence", "body": DISK, "n": 50, **bad}
        path = write_config(tmp_path, **payload)
        rc = main(["convergence", "--config", path])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("body, quadrature, match", [
        # ten standard-error batches of 5 draws leave empty batches
        (ELLIPSE, {"mc_inner_samples": 5}, "mc_inner_samples"),
        (ELLIPSE, {"mc_inner_samples": 9}, "mc_inner_samples"),
        (DISK, {"mc_inner_samples": 0}, "mc_inner_samples"),
        (DISK, {"sphere_nodes": 0}, "sphere_nodes"),
    ], ids=["ellipse-5", "ellipse-9", "disk-mc-0", "disk-nodes-0"])
    def test_unusable_quadrature_exits_two_before_any_estimator(self, tmp_path, capsys,
                                                               monkeypatch, body,
                                                               quadrature, match):
        import khull.experiments as exp

        def no_estimate(*args):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(exp, "_run_expected_facets", no_estimate)
        path = write_config(tmp_path, experiment="expected-facets", body=body,
                            **quadrature)
        rc = main(["expected-facets", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err
        assert not (tmp_path / "out").exists()

    def test_fewest_usable_inner_samples_run(self, tmp_path, capsys):
        # one draw per standard-error batch
        path = write_config(tmp_path, experiment="expected-facets", body=ELLIPSE,
                            mc_inner_samples=10, sphere_nodes=64)
        assert main(["expected-facets", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "monte_carlo"

    def test_t_and_t0_together_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK, T=1.0, T0=5.0)
        assert main(["zerocell-mc", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and '"T" and "T0"' in err

    @pytest.mark.parametrize("T0", [1e17, 1e300])
    def test_huge_t0_exits_two_before_any_draw(self, tmp_path, capsys, monkeypatch, T0):
        # a first layer of about 2e17 or 2e300 hyperplanes is a config
        # error, not a memory error or numpy's "lam value too large"
        import khull.tessellation as tess

        def no_draw(*args):
            raise AssertionError("a layer was drawn")

        monkeypatch.setattr(tess, "_draw_layer", no_draw)
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK, T0=T0)
        rc = main(["zerocell-mc", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "T0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_out_exits_two_before_any_replicate(self, tmp_path, capsys,
                                                         monkeypatch, below):
        # an --out that is, or lies under, a regular file is a config error
        # found before any replicate runs, not a traceback after all of them
        import khull.experiments as exp
        run_job, jobs = exp._run_job, []

        def counted(job):
            jobs.append(job)
            return run_job(job)

        monkeypatch.setattr(exp, "_run_job", counted)
        monkeypatch.setenv("KHULL_THREADS", "1")
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker / "out" if below else blocker
        path = write_config(tmp_path, experiment="fvector-mc", body=DISK, n=50,
                            replicates=3)
        rc = main(["fvector-mc", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "output directory" in err
        assert jobs == []
        assert blocker.read_text() == "not a directory"

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_numeric_error_exit_three(self, tmp_path, capsys, monkeypatch):
        import khull.cli as cli

        def boom(cfg, out_dir=None):
            raise NumericError("campaign degenerate")

        monkeypatch.setattr(cli, "run_experiment", boom)
        path = write_config(tmp_path, experiment="zerocell-mc", body=DISK)
        rc = main(["zerocell-mc", "--config", path])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "campaign degenerate" in err


COLD_START = """
import sys
from pathlib import Path

import numpy as np

import khull
import khull.cli
from khull import (ExperimentConfig, Polytope, body_from_spec, load_config,
                   run_experiment, tagged_hull_from_points)


def deferred():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy", "multiprocessing"))
                  or m == "concurrent.futures.process")


for path in sorted(Path(sys.argv[1]).glob("*.json")):
    body_from_spec(load_config(path).body)
body_from_spec({"kind": "pball", "p": 4.0, "scale": 1.0, "d": 3})
run_experiment(ExperimentConfig(experiment="zerocell-mc",
                                body={"kind": "ball", "r": 1.0, "center": [0.0, 0.0]},
                                replicates=3))
assert deferred() == [], deferred()

tagged_hull_from_points(np.random.default_rng(7).normal(size=(30, 3)))
Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
assert "scipy.spatial" in sys.modules
"""


def test_cold_start_defers_scipy_and_the_pool():
    # importing khull, validating every shipped config, building bodies and
    # running a planar zero-cell campaign load neither scipy nor the process
    # pool; the first qhull call loads scipy.spatial
    src = str(Path(khull.__file__).resolve().parents[1])
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    env = {**os.environ, "KHULL_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", COLD_START, str(configs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
