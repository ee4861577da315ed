"""Config round-trips, run-directory formats, and the CLI driver."""

import contextlib
import importlib.util
import io
import json
import re
import string
import struct
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgmc import cli
from drgmc import config as config_mod
from drgmc import runio
from drgmc.config import ALGORITHMS, DEFAULT_STEPS, RunConfig
from drgmc.diagnostics import COLUMNS, ChainRecord
from drgmc.harness import build_model, run_from_config

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


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
        (dict(ny=1), "config key 'ny'"),
        (dict(s_0=0.0), "config key 's_0'"),
        (dict(max_rank=0), "config key 'max_rank'"),
        (dict(gamma_perp=2), "config key 'gamma_perp'"),
        (dict(m_max=0), "config key 'm_max'"),
        (dict(lin_m=0), "config key 'lin_m'"),
        (dict(lin_noise=0.0), "config key 'lin_noise'"),
        (dict(h=float("nan")), "config key 'h': expected a finite float, got nan"),
        (dict(snr=float("inf")), "config key 'snr': expected a finite float, got inf"),
        (dict(snr=float("-inf")), "config key 'snr': expected a finite float, got -inf"),
        (dict(delta_lis="1e-5"), "config key 'delta_lis': expected float, got str"),
        (dict(iterations=100.5), "config key 'iterations': expected int, got float"),
        (dict(rank=True), "config key 'rank': expected int, got bool"),
        (dict(noiseless="no"), "config key 'noiseless': expected bool, got str"),
        (dict(seed=-1), "config key 'seed': expected an int >= 0, got -1"),
        (dict(data_seed=-1), "config key 'data_seed': expected an int >= 0, got -1"),
        (dict(out_dir=5), "config key 'out_dir': expected str or None, got int"),
        (dict(snr=10 ** 400),
         "config key 'snr': expected a finite float, got an int of 401 digits"),
        # an int of more than 20 digits is shown by its digit count, which
        # is also all a refusal can show of one past Python's 4300-digit repr
        (dict(seed=-10 ** 400), "config key 'seed': expected an int >= 0, got an int of 401"),
        (dict(gamma_r=10 ** 20),
         r"config key 'gamma_r': expected one of \(0, 1\), got an int of 21 digits"),
        (dict(model=10 ** 5000), "config key 'model': expected str, got an int of 5001 digits"),
        (dict(h=-10 ** 20), "config key 'h': expected a float > 0.0, got an int of 21 digits"),
        (dict(h=1 - 10 ** 20), "config key 'h': expected a float > 0.0, got -9999999999999999"),
    ])
    def test_validation_messages(self, bad, match):
        with pytest.raises(ValueError, match=match):
            small_linear_config(**bad)

    def test_every_key_declares_a_domain(self):
        # a key without one would fail at import; this names it instead
        assert [f.name for f in fields(RunConfig) if "domain" not in f.metadata] == []
        assert list(config_mod.KEYS) == [f.name for f in fields(RunConfig)]

    def test_unknown_keys_of_mixed_types_all_named(self):
        # YAML maps may have int keys; sorting them beside str keys raised TypeError
        with pytest.raises(ValueError, match="config key '1': unknown key \\(also: zz\\)"):
            config_mod.from_dict({1: 2, "zz": 3})

    def test_yaml_exponent_without_a_dot_is_refused(self, tmp_path):
        # PyYAML reads 1e-5 as a string and 1.0e-5 as a float
        path = tmp_path / "c.yaml"
        path.write_text("delta_lis: 1e-5\n")
        with pytest.raises(ValueError, match="config key 'delta_lis': expected float"):
            config_mod.from_yaml(path)
        path.write_text("delta_lis: 1.0e-5\n")
        assert config_mod.from_yaml(path).delta_lis == 1e-5

    def test_valid_configs_keep_their_dicts_and_hashes(self):
        # hashes of configs that were valid before every key's domain was
        # declared on its field: the example file, the benchmark's chain
        # configs (seed 0, rounds 0 and 1) and an int given for a float key
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclass() looks its module up
        try:
            spec.loader.exec_module(workloads)
        finally:
            del sys.modules[spec.name]
        for name, digest in (("desk", "40679f95f04ba141"), ("linear", "8ab08f9cb398bd51")):
            configs = [workloads.WORKLOADS[name].chain_config(0, kernel, round_index)
                       for round_index in (0, 1) for kernel in workloads.KERNELS]
            assert config_mod.dict_hash([cfg.to_dict() for cfg in configs]) == digest
        assert config_mod.from_yaml(EXAMPLE_CONFIG).hash() == "0a5aecd6b928f6ec"
        cfg = RunConfig(snr=10)
        assert cfg.snr == 10 and type(cfg.snr) is int
        assert cfg.hash() == "2a957ad5989ac459"

    def test_resolved_steps_fill_defaults(self):
        cfg = RunConfig(algorithm="dr-inf-mhmc", iterations=10, burn_in=0)
        steps = cfg.resolved_steps()
        assert steps["h"] == DEFAULT_STEPS["dr-inf-mhmc"]["h"]
        assert steps["n_leapfrog"] == DEFAULT_STEPS["dr-inf-mhmc"]["n_leapfrog"]

    def test_every_algorithm_has_tuned_steps(self):
        assert set(DEFAULT_STEPS) == set(ALGORITHMS)

    def test_resolved_steps_explicit_wins(self):
        cfg = RunConfig(algorithm="pcn", h=0.5, iterations=10, burn_in=0)
        assert cfg.resolved_steps()["h"] == 0.5

    def test_dili_steps_resolve_h_r(self):
        steps = RunConfig(algorithm="dili", iterations=10, burn_in=0).resolved_steps()
        assert steps["h_r"] == DEFAULT_STEPS["dili"]["h_r"]
        assert steps["h_perp"] == DEFAULT_STEPS["dili"]["h_perp"]

    @pytest.mark.parametrize("text", ["seed: 1\nh: 0.2\nseed: 2\n",
                                      "lin_n: 6\nseed: 1\nseed: 1\n"],
                             ids=["two-values", "one-value"])
    def test_yaml_refuses_a_key_written_twice(self, tmp_path, text):
        # YAML requires unique keys; safe_load keeps the last without a word
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            config_mod.from_yaml(path)
        assert str(refused.value) == f"config file {path}: duplicate key 'seed'"

    def test_yaml_merge_key_may_be_overridden(self, tmp_path):
        # an explicit key beside a merge (<<) is not a duplicate
        path = tmp_path / "c.yaml"
        path.write_text("<<: {seed: 4, lin_n: 6}\nseed: 5\n")
        cfg = config_mod.from_yaml(path)
        assert (cfg.seed, cfg.lin_n) == (5, 6)

    def test_yaml_rejects_non_mapping(self, tmp_path):
        # only an empty document means every default; a falsy one is refused too
        path = tmp_path / "c.yaml"
        for text in ("- 1\n- 2\n", "0", "false", "[]", "''"):
            path.write_text(text)
            with pytest.raises(ValueError, match="expected a mapping"):
                config_mod.from_yaml(path)
        path.write_text("# no document\n")
        assert config_mod.from_yaml(path) == RunConfig()

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("cfg", [
        config_mod.from_yaml(EXAMPLE_CONFIG),
        small_linear_config(algorithm="dili", h_r=0.25, h_perp=0.0125, n_leapfrog=3,
                            eps=0.5, out_dir="runs/x y/z"),
    ])
    def test_libyaml_dumper_writes_the_pure_python_bytes(self, cfg, tmp_path):
        path = tmp_path / "c.yaml"
        config_mod.to_yaml(cfg, path)
        data = cfg.to_dict()
        pure = yaml.dump(data, Dumper=yaml.SafeDumper, sort_keys=True)
        assert yaml.dump(data, Dumper=yaml.CSafeDumper, sort_keys=True) == pure
        assert path.read_text() == pure

    def test_shipped_example_config_is_exhaustive_defaults(self):
        cfg = config_mod.from_yaml(EXAMPLE_CONFIG)
        assert cfg == RunConfig()
        keys = set(yaml.safe_load(EXAMPLE_CONFIG.read_text()))
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
        mean = np.loadtxt(run_dir / "mean.csv", delimiter=",", ndmin=2)
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

    def test_load_record_keeps_reject_counts(self, run, tmp_path):
        _, record, cfg = run
        failed = replace(record, meta={**record.meta, "error_rejects": 7,
                                       "nonfinite_rejects": 3})
        back, _ = runio.load_record(runio.write_run(tmp_path / "one", failed, cfg))
        assert (back.meta["error_rejects"], back.meta["nonfinite_rejects"]) == (7, 3)
        runio.write_run(tmp_path / "two", back, cfg)
        summary = json.loads((tmp_path / "two" / "summary.json").read_text())
        assert (summary["error_rejects"], summary["nonfinite_rejects"]) == (7, 3)

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

    def test_load_record_round_trip(self, run, tmp_path):
        run_dir, record, cfg = run
        back, back_cfg = runio.load_record(run_dir)
        assert back_cfg == cfg
        assert np.array_equal(back.samples, np.asarray(record.samples))
        assert back.meta["algorithm"] == "dr-inf-mmala"
        assert back.burn_in == 15
        # every per-iteration column, on both models, through the table
        ecfg = RunConfig(model="elliptic", algorithm="inf-mala", h=0.01, nx=6, ny=4,
                         iterations=15, burn_in=5, seed=1)
        erecord = run_from_config(ecfg)
        eback, _ = runio.load_record(runio.write_run(tmp_path / "e", erecord, ecfg))
        assert erecord.pde_solves[-1] > 0
        expected = {"accepts": np.bool_, "pde_solves": np.int64}
        assert {col.name for col in COLUMNS} == {"potentials", "accepts", "wall_times",
                                                 "pde_solves"}
        for original, loaded in ((record, back), (erecord, eback)):
            for col in COLUMNS:
                want, got = getattr(original, col.name), getattr(loaded, col.name)
                dtype = expected.get(col.name, np.float64)
                assert want.dtype == got.dtype == dtype, col.name
                if col.name == "wall_times":
                    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)
                else:
                    np.testing.assert_array_equal(got, want)

    def test_elliptic_mean_grid_shape(self, tmp_path):
        cfg = RunConfig(model="elliptic", algorithm="pcn", h=0.05, nx=6, ny=4,
                        iterations=15, burn_in=5, seed=1)
        record = run_from_config(cfg)
        runio.write_run(tmp_path / "e", record, cfg)
        mean = np.loadtxt(tmp_path / "e" / "mean.csv", delimiter=",", ndmin=2)
        assert mean.shape == (5, 7)

    def test_adaptive_run_writes_lis_files(self, tmp_path):
        cfg = small_linear_config(algorithm="adr-inf-mmala", h=1.0, rank=3,
                                  iterations=80, burn_in=40, n_lag=10,
                                  threshold=1e-8)
        record = run_from_config(cfg)
        run_dir = runio.write_run(tmp_path / "a", record, cfg)
        lis = json.loads((run_dir / "lis.json").read_text())
        assert lis["m"] >= 1
        assert lis["update_errors"] == 0
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

    def test_trace_size_does_not_depend_on_wall_times(self, run, tmp_path):
        _, record, _ = run
        n = len(record.samples)
        sizes = []
        for name, wall in (("fast", np.full(n, 1e-3)),
                           ("mixed", np.geomspace(1.234567891e-7, 12.5, n))):
            path = tmp_path / f"{name}.csv"
            runio.write_trace(path, replace(record, wall_times=wall))
            sizes.append(path.stat().st_size)
            back = runio.read_trace(path)["wall_time"]
            np.testing.assert_allclose(back, wall, rtol=1e-8, atol=0)
        assert sizes[0] == sizes[1]

    def test_trace_blocks_write_one_line_per_row(self, tmp_path):
        # a trace longer than one block, with non-finite potentials
        n = 2 * runio.TRACE_BLOCK_ROWS + 3
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(n) * 1e3
        phi[[5, n - 1]] = np.inf, np.nan
        record = ChainRecord(samples=np.zeros((n, 2)), potentials=phi,
                             accepts=rng.random(n) < 0.5,
                             wall_times=rng.random(n) * 1e-3,
                             pde_solves=np.cumsum(rng.integers(0, 3, n)))
        path = tmp_path / "trace.csv"
        runio.write_trace(path, record)
        rows = [f"{i},{record.potentials[i]:.17g},{int(record.accepts[i])},"
                f"{record.wall_times[i]:.8e},{int(record.pde_solves[i])}"
                for i in range(n)]
        assert path.read_text() == "iteration,phi,accept,wall_time,pde_solves\n" + \
            "\n".join(rows) + "\n"
        np.testing.assert_array_equal(runio.read_trace(path)["phi"], phi)

    def test_git_describe_names_the_package_tree(self, tmp_path, monkeypatch):
        runio._git_describe.cache_clear()
        here = runio._git_describe()
        package = Path(runio.__file__).resolve()
        if any((parent / ".git").exists() for parent in package.parents):
            assert here != "unknown"
        # from outside any repository: same answer, and looked up only once
        runio._git_describe.cache_clear()
        monkeypatch.chdir(tmp_path)
        assert runio._git_describe() == here

        def no_subprocess(*args, **kwargs):
            raise AssertionError("git describe ran twice in one process")

        monkeypatch.setattr(runio.subprocess, "run", no_subprocess)
        cfg = small_linear_config()
        runio.write_manifest(tmp_path, cfg.to_dict(), cfg.hash(), "start", "end")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["git_describe"] == here


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

    def test_every_config_key_is_a_run_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        usage = capsys.readouterr().out
        for field in fields(RunConfig):
            flag = ("--out" if field.name == "out_dir"
                    else "--" + field.name.replace("_", "-"))
            assert re.search(rf"{flag}(?![\w-])", usage), flag
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--lin-noise", "0.25", "--noiseless"]) == 0
        _, back = runio.load_record(out)
        assert back.lin_noise == 0.25 and back.noiseless is True

    @pytest.mark.parametrize("argv, match", [
        (["--h", "-1"], "config key 'h': expected a float > 0.0, got -1.0"),
        (["--h", "nan"], "config key 'h': expected a finite float, got nan"),
        (["--config", "bad.yaml"], "config key 'delta_lis': expected float, got str"),
        (["--config", "huge.yaml"],
         "config key 'snr': expected a finite float, got an int of 401 digits"),
        (["--config", "huger.yaml"],
         "config file huger.yaml: Exceeds the limit (4300 digits) for integer string"),
        # flag text is converted in cmd_run; argparse would exit 2 with its usage
        (["--seed", "1.5"], "config key 'seed': expected int, got '1.5'"),
        (["--seed", "1" + "0" * 5000],
         "config key 'seed': expected int, got a text of 5001 characters"),
        # safe_load would keep the last seed without a word
        (["--config", "twice.yaml"], "config file twice.yaml: duplicate key 'seed'"),
        # a falsy document is not an empty one
        (["--config", "zero.yaml"], "config file zero.yaml: expected a mapping at top level"),
    ])
    def test_invalid_config_is_one_line_and_no_run_directory(self, tmp_path, monkeypatch,
                                                             capsys, argv, match):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        (tmp_path / "bad.yaml").write_text("model: linear-gaussian\ndelta_lis: 1e-5\n")
        (tmp_path / "huge.yaml").write_text("snr: 1" + "0" * 400 + "\n")  # no float holds it
        # PyYAML's int() refuses more than 4300 digits before any key is read
        (tmp_path / "huger.yaml").write_text("snr: 1" + "0" * 5000 + "\n")
        (tmp_path / "twice.yaml").write_text("seed: 1\nh: 0.2\nseed: 2\n")
        (tmp_path / "zero.yaml").write_text("0\n")
        assert cli.main(["run", "--model", "linear-gaussian", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(re.escape(match) + ".*\n", captured.err)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.yaml", "huge.yaml", "huger.yaml", "twice.yaml", "zero.yaml"]

    def test_noiseless_elliptic_pcn_accepts_every_proposal(self, tmp_path, capsys):
        # a flat target: phi = 0 at every state, so pCN's ratio is exactly 1
        out = tmp_path / "run"
        assert cli.main(["run", "--model", "elliptic", "--algorithm", "pcn",
                         "--noiseless", "--nx", "6", "--ny", "6", "--iterations", "40",
                         "--burn-in", "10", "--h", "0.5", "--out", str(out)]) == 0
        record, _ = runio.load_record(out)
        assert record.accepts.all()
        assert not record.potentials.any()
        assert record.meta["error_rejects"] == record.meta["nonfinite_rejects"] == 0

    @pytest.mark.parametrize("name", ["missing.yaml", "broken.yaml"])
    def test_unreadable_config_file_is_refused(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        (tmp_path / "broken.yaml").write_text("model: [linear\n")
        assert cli.main(["run", "--config", name]) == 1
        assert name in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.yaml"]

    @pytest.mark.parametrize("second", [[], ["--algorithm", "inf-mala", "--seed", "4"],
                                        ["--iterations", "12", "--burn-in", "5"]],
                             ids=["same-run", "other-kernel", "refused-as-too-short"])
    def test_run_into_a_run_directory_is_refused(self, tmp_path, capsys, second):
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli.main(argv + second) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"run directory {out} already holds a run\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

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

    def test_run_too_short_for_summary_flags_incomplete(self, tmp_path, monkeypatch,
                                                        capsys):
        # 7 kept samples: the summary needs ESS, which needs at least 10, so
        # the run is refused before any sampling
        def must_not_sample(*args, **kwargs):
            raise AssertionError("a run too short for ESS was sampled")

        monkeypatch.setattr(cli, "run_from_config", must_not_sample)
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--iterations", "12", "--burn-in", "5"]) == 1
        assert "too short for ESS" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["incomplete"] is True
        assert "too short for ESS" in manifest["error"]

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

    def test_compare_names_incomplete_run(self, tmp_path, capsys):
        record, cfg = tiny_record()
        done = runio.write_run(tmp_path / "done", record, cfg)
        cut = runio.write_run(tmp_path / "cut", record, cfg)
        (cut / "summary.json").unlink()
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(done), str(cut), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(cut) in err and "summary.json" in err
        assert not out.exists()

    def test_compare_missing_baseline(self, tmp_path, capsys):
        record, cfg = tiny_record()
        run_dir = runio.write_run(tmp_path / "d", record, cfg)
        assert cli.main(["compare", str(run_dir), "--out", str(tmp_path / "c")]) == 1
        assert "baseline 'pcn' missing" in capsys.readouterr().err

    def test_lis_inspect(self, tmp_path, capsys):
        cfg = small_linear_config(algorithm="adr-inf-mmala", h=1.0, rank=3,
                                  iterations=80, burn_in=40, n_lag=10,
                                  threshold=1e-8)
        record = run_from_config(cfg)
        run_dir = runio.write_run(tmp_path / "a", record, cfg)
        assert cli.main(["lis-inspect", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "rank r=" in out and "eigenvalues:" in out
        assert "update_errors=0" in out

    def test_compare_names_unreadable_run(self, tmp_path, capsys):
        record, cfg = tiny_record()
        done = runio.write_run(tmp_path / "done", record, cfg)
        cut = runio.write_run(tmp_path / "cut", record, cfg)
        samples = cut / "samples.bin"
        samples.write_bytes(samples.read_bytes()[:-8])
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(done), str(cut), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and str(cut) in captured.err
        assert "ValueError" in captured.err and "Traceback" not in captured.err
        assert not out.exists() and captured.out == ""

    def test_lis_inspect_names_unreadable_lis(self, tmp_path, capsys):
        record, cfg = tiny_record()
        run_dir = runio.write_run(tmp_path / "d", record, cfg)
        (run_dir / "lis.json").write_text("{}")
        assert cli.main(["lis-inspect", str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and str(run_dir) in captured.err
        assert "KeyError" in captured.err and captured.out == ""

    def test_lis_inspect_rejects_non_adaptive(self, tmp_path, capsys):
        record, cfg = tiny_record()
        run_dir = runio.write_run(tmp_path / "d", record, cfg)
        assert cli.main(["lis-inspect", str(run_dir)]) == 1
        assert "no LIS data" in capsys.readouterr().err


_WORDS = st.text(string.ascii_letters + string.digits + " _.-", max_size=8)
_PLAIN = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(allow_nan=False),
                   st.booleans(), st.none(), _WORDS)
# plain YAML values as text: ints of up to 5001 digits (PyYAML refuses more
# than 4300), nan and infinities, bools, null, other int forms, floats,
# quoted strings, lists and maps
YAML_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.builds(lambda sign, zeros: sign + "1" + "0" * zeros,
              st.sampled_from(["", "-"]), st.integers(0, 5000)),
    st.sampled_from([".nan", ".inf", "-.inf", "true", "false", "null", "~", "''",
                     "0x1f", "1_000", "1:30", "1.0e-5", "1e-5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.one_of(_WORDS, st.lists(_PLAIN, max_size=3),
              st.dictionaries(_WORDS, _PLAIN, max_size=3)).map(json.dumps),
)


def _refused_by_cli(argv, out):
    """cli.main(argv) exits 1 with one stderr line, prints nothing and
    creates no run directory."""
    def must_not_run(cfg):
        raise AssertionError("a refused config was run")

    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "run_from_config", must_not_run), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["run", *argv, "--out", str(out)])
    return (code == 1 and stdout.getvalue() == "" and stderr.getvalue().count("\n") == 1
            and stderr.getvalue().endswith("\n") and not out.exists())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(key=st.sampled_from(list(config_mod.KEYS)), text=YAML_VALUES, top=st.booleans())
# documents that are falsy but not empty, once taken for the defaults
@example(key="seed", text="0", top=True)
@example(key="seed", text="false", top=True)
@example(key="seed", text="[]", top=True)
@example(key="seed", text="''", top=True)
def test_config_file_is_a_config_or_one_named_refusal(key, text, top):
    # top: text is the whole document, else the value of key
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.yaml", Path(tmp) / "run"
        path.write_text(text + "\n" if top else f"{key}: {text}\n")
        try:
            cfg = config_mod.from_yaml(path)
        except ValueError as exc:
            # burn_in's bound is checked on iterations, which names that key;
            # a whole document that is a map may name any key of its own
            msg, keys = str(exc), {key, "iterations"} if key == "burn_in" else {key}
            shown = re.match(r"config key '([^']*)': ", msg)
            assert "\n" not in msg
            assert msg.startswith(f"config file {path}: ") or shown and (top or shown[1] in keys)
            assert _refused_by_cli(["--config", str(path)], out)
        else:
            # only an empty document or a mapping is read as a config
            assert not top or text in ("null", "~", "{}")
            assert cfg.hash() == config_mod.from_dict(cfg.to_dict()).hash()
            config_mod.to_yaml(cfg, path)
            assert config_mod.from_yaml(path).to_dict() == cfg.to_dict()
        # the same text as flag text; a bool key's flag takes none, out_dir's is --out
        typ = config_mod.KEYS[key][0]
        if key == "out_dir" or typ is bool:
            return
        try:
            config_mod.from_dict({**RunConfig().to_dict(), key: cli._flag_value(key, text)})
        except ValueError:
            assert _refused_by_cli([f"--{key.replace('_', '-')}={text}"], out)
