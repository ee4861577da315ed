"""Config round-trips, run-directory formats, and the CLI driver."""

import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgmc import cli
from drgmc import config as config_mod
from drgmc import runio
from drgmc.config import DEFAULT_STEPS, RunConfig
from drgmc.harness import build_model, run_from_config


def small_linear_config(**overrides):
    base = dict(model="linear-gaussian", algorithm="pcn", h=0.2,
                iterations=80, burn_in=20, lin_n=6, lin_m=3, seed=3)
    base.update(overrides)
    return RunConfig(**base)


class TestConfig:
    def test_dict_round_trip(self):
        cfg = small_linear_config()
        again = config_mod.from_dict(cfg.to_dict())
        assert again == cfg

    def test_yaml_round_trip(self, tmp_path):
        cfg = small_linear_config(noiseless=True, h=None, out_dir="x/y")
        path = tmp_path / "c.yaml"
        config_mod.to_yaml(cfg, path)
        again = config_mod.from_yaml(path)
        assert again == cfg
        assert again.noiseless is True
        assert again.h is None

    def test_hash_stable_and_sensitive(self):
        cfg = small_linear_config()
        assert cfg.hash() == config_mod.from_dict(cfg.to_dict()).hash()
        assert cfg.hash() != small_linear_config(seed=4).hash()
        assert len(cfg.hash()) == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="config key 'stepsize': unknown"):
            config_mod.from_dict({"stepsize": 0.1})

    def test_unknown_keys_all_named(self):
        with pytest.raises(ValueError, match="also: zz"):
            config_mod.from_dict({"aa": 1, "zz": 2})

    @pytest.mark.parametrize("bad, match", [
        (dict(algorithm="rwm"), "config key 'algorithm'"),
        (dict(iterations=10, burn_in=10), "config key 'iterations'"),
        (dict(h=-0.5), "config key 'h'"),
        (dict(gamma_r=2), "config key 'gamma_r'"),
        (dict(threshold=0.0), "config key 'threshold'"),
        (dict(snr=-1.0), "config key 'snr'"),
    ])
    def test_validation_messages(self, bad, match):
        with pytest.raises(ValueError, match=match):
            small_linear_config(**bad)

    def test_resolved_steps_fill_defaults(self):
        cfg = RunConfig(algorithm="dr-inf-mhmc", iterations=10, burn_in=0)
        steps = cfg.resolved_steps()
        assert steps["h"] == DEFAULT_STEPS["dr-inf-mhmc"]["h"]
        assert steps["n_leapfrog"] == DEFAULT_STEPS["dr-inf-mhmc"]["n_leapfrog"]

    def test_resolved_steps_explicit_wins(self):
        cfg = RunConfig(algorithm="pcn", h=0.5, iterations=10, burn_in=0)
        assert cfg.resolved_steps()["h"] == 0.5

    def test_dili_steps_resolve_h_r(self):
        steps = RunConfig(algorithm="dili", iterations=10, burn_in=0).resolved_steps()
        assert steps["h_r"] == DEFAULT_STEPS["dili"]["h_r"]
        assert steps["h_perp"] == DEFAULT_STEPS["dili"]["h_perp"]

    def test_yaml_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError, match="expected a mapping"):
            config_mod.from_yaml(path)

    def test_shipped_example_config_is_exhaustive_defaults(self):
        example = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"
        cfg = config_mod.from_yaml(example)
        assert cfg == RunConfig()
        import yaml
        keys = set(yaml.safe_load(example.read_text()))
        from dataclasses import fields
        assert keys == {f.name for f in fields(RunConfig)}


class TestSamplesFormat:
    def test_byte_layout(self, tmp_path):
        samples = np.arange(12, dtype=float).reshape(4, 3) * np.pi
        path = tmp_path / "samples.bin"
        runio.write_samples(path, samples)
        raw = path.read_bytes()
        n, count = struct.unpack_from("<QQ", raw, 0)
        assert (n, count) == (3, 4)
        assert len(raw) == 16 + 8 * 12
        payload = np.frombuffer(raw[16:], dtype="<f8").reshape(4, 3)
        assert np.array_equal(payload, samples)
        # sample i starts at byte 16 + 8*n*i
        second = struct.unpack_from("<3d", raw, 16 + 8 * 3)
        assert np.array_equal(second, samples[1])

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-200, 200, (7, 5))
        path = tmp_path / "s.bin"
        runio.write_samples(path, samples)
        back = runio.read_samples(path)
        assert np.array_equal(back, samples)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            runio.write_samples(tmp_path / "s.bin", np.zeros(5))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(ValueError, match="truncated header"):
            runio.read_samples(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.bin"
        runio.write_samples(path, np.ones((3, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload bytes"):
            runio.read_samples(path)

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 99))
    def test_round_trip_property(self, tmp_path_factory, count, n, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((count, n))
        path = tmp_path_factory.mktemp("rt") / "s.bin"
        runio.write_samples(path, samples)
        assert np.array_equal(runio.read_samples(path), samples)


def tiny_record():
    cfg = small_linear_config(algorithm="dr-inf-mmala", h=1.0, rank=3,
                              iterations=60, burn_in=15)
    model, _ = build_model(cfg)
    return run_from_config(cfg, model=model), cfg


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    record, cfg = tiny_record()
    run_dir = tmp_path_factory.mktemp("run") / "out"
    runio.write_run(run_dir, record, cfg)
    return run_dir, record, cfg


class TestRunDirectory:
    def test_inventory(self, run):
        run_dir, _, _ = run
        names = {p.name for p in run_dir.iterdir()}
        assert {"config.yaml", "trace.csv", "samples.bin", "mean.csv",
                "summary.json", "manifest.json"} <= names

    def test_trace_round_trip(self, run):
        run_dir, record, _ = run
        trace = runio.read_trace(run_dir / "trace.csv")
        assert list(trace) == ["iteration", "phi", "accept", "wall_time",
                               "pde_solves"]
        # %.17g preserves doubles exactly
        assert np.array_equal(trace["phi"], record.potentials)
        assert np.array_equal(trace["accept"].astype(bool), record.accepts)
        assert np.array_equal(trace["iteration"], np.arange(len(record.samples)))

    def test_mean_is_kept_sample_average(self, run):
        run_dir, record, _ = run
        mean = runio.read_mean(run_dir / "mean.csv")
        assert mean.shape[0] == 1
        np.testing.assert_allclose(mean.ravel(), record.kept().mean(axis=0),
                                   rtol=0, atol=1e-16)

    def test_summary_fields(self, run):
        run_dir, record, cfg = run
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["algorithm"] == "dr-inf-mmala"
        assert summary["iterations"] == 60
        assert summary["burn_in"] == 15
        assert 0.0 <= summary["AP"] <= 1.0
        assert summary["minESS"] <= summary["medESS"] <= summary["maxESS"]
        assert summary["config_hash"] == cfg.hash()
        assert summary["PDEsolns"] == int(record.pde_solves[-1])
        assert summary["error_rejects"] == record.meta["error_rejects"] == 0

    def test_summary_counts_error_rejects(self, run, tmp_path):
        _, record, cfg = run
        failed = replace(record, meta={**record.meta, "error_rejects": 7})
        runio.write_run(tmp_path / "out", failed, cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["error_rejects"] == 7

    def test_manifest(self, run):
        run_dir, _, cfg = run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["config"] == cfg.to_dict()
        assert manifest["incomplete"] is False
        assert manifest["seed"] == cfg.seed
        files = manifest["files"]
        assert "manifest.json" not in files
        for name, entry in files.items():
            blob = (run_dir / name).read_bytes()
            assert entry["bytes"] == len(blob)
            assert entry["sha256"] == __import__("hashlib").sha256(blob).hexdigest()

    def test_load_record_round_trip(self, run):
        run_dir, record, cfg = run
        back, back_cfg = runio.load_record(run_dir)
        assert back_cfg == cfg
        assert np.array_equal(back.samples, np.asarray(record.samples))
        assert np.array_equal(back.potentials, record.potentials)
        assert np.array_equal(back.accepts, record.accepts)
        assert np.array_equal(back.pde_solves, record.pde_solves)
        assert back.meta["algorithm"] == "dr-inf-mmala"
        assert back.burn_in == 15

    def test_elliptic_mean_grid_shape(self, tmp_path):
        cfg = RunConfig(model="elliptic", algorithm="pcn", h=0.05, nx=6, ny=4,
                        iterations=15, burn_in=5, seed=1)
        record = run_from_config(cfg)
        runio.write_run(tmp_path / "e", record, cfg)
        mean = runio.read_mean(tmp_path / "e" / "mean.csv")
        assert mean.shape == (5, 7)

    def test_adaptive_run_writes_lis_files(self, tmp_path):
        cfg = small_linear_config(algorithm="adr-inf-mmala", h=1.0, rank=3,
                                  iterations=80, burn_in=40, n_lag=10,
                                  threshold=1e-8)
        record = run_from_config(cfg)
        run_dir = runio.write_run(tmp_path / "a", record, cfg)
        lis = json.loads((run_dir / "lis.json").read_text())
        assert lis["m"] >= 1
        assert lis["r"] == len(lis["eigenvalues"])
        rows = (run_dir / "lis.csv").read_text().strip().splitlines()
        assert rows[0] == "update,m,r,d_F"
        assert len(rows) == 1 + len(lis["history"])

    def test_load_record_keeps_seed_and_lis(self, tmp_path):
        cfg = small_linear_config(algorithm="adr-inf-mmala", h=1.0, rank=3,
                                  iterations=80, burn_in=40, n_lag=10,
                                  threshold=1e-8, seed=17)
        record = run_from_config(cfg)
        back, _ = runio.load_record(runio.write_run(tmp_path / "a", record, cfg))
        assert back.meta["seed"] == record.meta["seed"] == 17
        assert record.meta["lis"]["m"] >= 1
        assert back.meta["lis"] == record.meta["lis"]

    def test_reproducible_bytes(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            record, cfg = tiny_record()
            paths.append(runio.write_run(tmp_path / name, record, cfg))
        for fname in ("samples.bin", "mean.csv", "config.yaml"):
            assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()
        # wall_time is a clock measurement; everything else must match
        traces = [runio.read_trace(p / "trace.csv") for p in paths]
        for col in ("iteration", "phi", "accept", "pde_solves"):
            assert np.array_equal(traces[0][col], traces[1][col])


class TestCli:
    def write_config(self, tmp_path, **overrides):
        cfg = small_linear_config(**overrides)
        path = tmp_path / "config.yaml"
        config_mod.to_yaml(cfg, path)
        return path, cfg

    def test_run_explicit_out(self, tmp_path, capsys):
        cfg_path, cfg = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "run complete" in captured
        assert (out / "summary.json").exists()
        _, back_cfg = runio.load_record(out)
        assert back_cfg == cfg

    def test_run_auto_directory_under_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg_path, cfg = self.write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        expected = tmp_path / "root" / f"pcn_linear-gaussian_seed3_{cfg.hash()}"
        assert (expected / "manifest.json").exists()

    @pytest.mark.filterwarnings("ignore:constant or non-finite")
    def test_run_flag_overrides(self, tmp_path, capsys):
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--algorithm", "inf-mala", "--h", "0.3",
                         "--iterations", "40", "--burn-in", "10"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "inf-mala"
        assert summary["h"] == 0.3
        assert summary["iterations"] == 40

    def test_run_failure_writes_incomplete_manifest(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "run_from_config", boom)
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "synthetic failure" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["incomplete"] is True
        assert "synthetic failure" in manifest["error"]

    def test_compare(self, tmp_path, capsys):
        dirs = []
        for algorithm, h in (("pcn", 0.2), ("dr-inf-mmala", 1.0)):
            record, cfg = None, small_linear_config(algorithm=algorithm, h=h,
                                                    rank=3)
            record = run_from_config(cfg)
            dirs.append(str(runio.write_run(tmp_path / algorithm, record, cfg)))
        out = tmp_path / "cmp"
        assert cli.main(["compare", *dirs, "--out", str(out)]) == 0
        table = (out / "table.csv").read_text()
        assert table.splitlines()[0].startswith("algorithm,")
        assert "pcn" in table and "dr-inf-mmala" in table
        assert (out / "table.txt").exists()

    def test_compare_refuses_two_runs_of_one_algorithm(self, tmp_path, capsys):
        dirs = []
        for seed in (3, 4):
            cfg = small_linear_config(seed=seed)
            record = run_from_config(cfg)
            dirs.append(str(runio.write_run(tmp_path / f"pcn{seed}", record, cfg)))
        out = tmp_path / "cmp"
        assert cli.main(["compare", *dirs, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert dirs[0] in err and dirs[1] in err
        assert not out.exists()

    def test_compare_missing_baseline(self, tmp_path, capsys):
        record, cfg = tiny_record()
        run_dir = runio.write_run(tmp_path / "d", record, cfg)
        assert cli.main(["compare", str(run_dir), "--out", str(tmp_path / "c")]) == 1
        assert "baseline 'pcn' missing" in capsys.readouterr().err

    def test_verify_fast(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert cli.main(["verify", "--level", "fast",
                         "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["level"] == "fast"
        assert all(check["passed"] for check in report["checks"])

    def test_lis_inspect(self, tmp_path, capsys):
        cfg = small_linear_config(algorithm="adr-inf-mmala", h=1.0, rank=3,
                                  iterations=80, burn_in=40, n_lag=10,
                                  threshold=1e-8)
        record = run_from_config(cfg)
        run_dir = runio.write_run(tmp_path / "a", record, cfg)
        assert cli.main(["lis-inspect", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "rank r=" in out and "eigenvalues:" in out

    def test_lis_inspect_rejects_non_adaptive(self, tmp_path, capsys):
        record, cfg = tiny_record()
        run_dir = runio.write_run(tmp_path / "d", record, cfg)
        assert cli.main(["lis-inspect", str(run_dir)]) == 1
        assert "no LIS data" in capsys.readouterr().err
