import csv
import hashlib
import json
import math

import numpy as np
import pytest

import oracles

from khull import (Ball, ConfigError, DomainError, Ellipsoid, ExperimentConfig,
                   NumericError, Polytope, body_from_spec, load_config,
                   run_experiment, summarize, uniform_sample)
from khull.cli import main
from khull.faces import GeneralPositionReport

DISK = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0]}
ELLIPSE = {"kind": "ellipsoid", "axes": [2.0, 1.0], "center": [0.0, 0.0]}
BALL3 = {"kind": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}


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
        # replicate 0 of master seed 256 has a near-cocircular witness
        (5000, 5, 256,
         "84aadb2a626ed2e9ae084d8e5616bfe863057c417bc7e6f0fd6b67b061a00c7c",
         {"general-position": 1}),
        (3, 50, 42,
         "771c4c075acdce31bd84e0d194a6fe378c46904de4c2336b90d59035415515b7", {}),
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
        # 512 grid directions
        ("convergence", DISK, {"n": 2000, "replicates": 3}, {
            "convergence.csv":
            "7ad28d62348652e6ffe220dd313132e5819790dcf50c96ca3275f63cc7a4372f"}),
        # 2048 grid directions
        ("convergence", BALL3, {"n": 300, "replicates": 2}, {
            "convergence.csv":
            "4a11bad4c10951e84ec62aa80ca9e64009466ef36d0bb785242b2597cbc740c6"}),
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
    def assert_pruned_once(tmp_path, monkeypatch, cfg):
        """Every replicate of the campaign prunes its sample exactly once,
        and the CSV bytes are the same serial and pooled."""
        import khull.experiments as exp
        calls = []
        prune = exp.hull._prune_to_hull

        def counted(*args, **kwargs):
            calls.append(1)
            return prune(*args, **kwargs)

        # patch every module that binds it, so no call goes uncounted
        owners = [m for m in (exp.hull, exp.faces, exp.tessellation, exp)
                  if getattr(m, "_prune_to_hull", None) is prune]
        for owner in owners:
            monkeypatch.setattr(owner, "_prune_to_hull", counted)
        monkeypatch.setenv("KHULL_THREADS", "1")
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        assert len(calls) == cfg.replicates * len(cfg.schedule())
        monkeypatch.setenv("KHULL_THREADS", "2")
        run_experiment(cfg, out_dir=str(tmp_path / "pooled"))
        name = f"{cfg.experiment}.csv"
        serial = (tmp_path / "serial" / name).read_bytes()
        assert serial == (tmp_path / "pooled" / name).read_bytes()

    def test_disk_convergence_prunes_once_per_replicate(self, tmp_path, monkeypatch):
        # the disk pass reads the prune of the intersection body's build
        cfg = ExperimentConfig(experiment="convergence", body=DISK, n_values=(300, 2000),
                               replicates=4, seed=29)
        self.assert_pruned_once(tmp_path, monkeypatch, cfg)

    @pytest.mark.parametrize("experiment, body, params", [
        ("fvector-mc", DISK, {"n": 2000, "replicates": 3}),
        ("fvector-mc", ELLIPSE, {"n": 1000, "replicates": 3}),
        ("convergence", ELLIPSE, {"n_values": (300, 1000), "replicates": 2}),
        ("convergence", BALL3, {"n": 200, "replicates": 2}),
    ], ids=["disk-fvector", "ellipse-fvector", "ellipse-convergence", "ball3-convergence"])
    def test_sample_pruned_once_per_replicate(self, tmp_path, monkeypatch, experiment,
                                              body, params):
        # the polar hull and the convergence statistics share one X
        cfg = ExperimentConfig(experiment=experiment, body=body, seed=29, **params)
        self.assert_pruned_once(tmp_path, monkeypatch, cfg)

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
        first = disk.center[None, :] - uniform_sample(disk, cfg.n, exp._replicate_rng(8, 0)[0])
        build = exp.hull._disk_cycle

        def fails_on_first(radius, centers_all, *args):
            if np.array_equal(centers_all, first):
                raise NumericError("arc cycle failed to close")
            return build(radius, centers_all, *args)

        monkeypatch.setattr(exp.hull, "_disk_cycle", fails_on_first)
        monkeypatch.setenv("KHULL_THREADS", "1")
        with pytest.raises(NumericError, match="replicate 0"):
            run_experiment(cfg, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "sample-hull_summary.json").read_text())
        assert summary["exclusion_reasons"] == {"numeric": 1}
        assert (tmp_path / "sample-hull.csv").exists()
        assert not (tmp_path / "boundary.json").exists()

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
        real = exp.faces.general_position_check_2d

        def flaky(K, pts):
            calls["count"] += 1
            if calls["count"] == 3:
                return GeneralPositionReport(ok=False, witnesses=())
            return real(K, pts)

        monkeypatch.setenv("KHULL_THREADS", "1")
        monkeypatch.setattr(exp.faces, "general_position_check_2d", flaky)
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
            exp.faces, "general_position_check_2d",
            lambda K, pts: GeneralPositionReport(ok=False, witnesses=()))
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

    def test_near_cocircular_convergence_row_is_kept(self):
        # job 1444 of the acceptance convergence campaign: three circles
        # meet 1.7e-9 from one corner, so the row is kept and flagged
        from khull.experiments import _jobs_for, _run_job

        cfg = ExperimentConfig(experiment="convergence", body=DISK, n=2000,
                               replicates=1445, seed=404)
        index, row, reason, _ = _run_job(_jobs_for(cfg)[1444])
        assert (index, reason) == (1444, None)
        assert row["replicate"] == 1444 and row["n"] == 2000
        assert row["gp_ok"] is False

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
    ], ids=["n_values-scalar", "n_values-string", "replicates-float", "n-float",
            "replicates-bool", "seed-string", "T0-string"])
    def test_mistyped_value_exits_two(self, tmp_path, capsys, bad):
        payload = {"experiment": "convergence", "body": DISK, "n": 50, **bad}
        path = write_config(tmp_path, **payload)
        rc = main(["convergence", "--config", path])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

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
