"""Smoke runs of the experiment scripts: each main() completes on a tiny
budget and returns 0. The benchmark-pairs writer is checked on canned
bench output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mesh_robustness():
    argv = ["--meshes", "4,6", "--iterations", "20", "--algorithms", "pcn,adr-inf-mmala"]
    assert load("mesh_robustness").main(argv) == 0


def test_elliptic_study_writes_table(tmp_path):
    argv = ["--iterations", "30", "--burn-in", "10", "--algorithms", "pcn,inf-mala",
            "--out", str(tmp_path)]
    # inf-mala accepts no proposal on this budget; its stuck chain has ESS 0
    with pytest.warns(UserWarning, match="constant or non-finite series"):
        assert load("run_elliptic_study").main(argv) == 0
    assert (tmp_path / "table.csv").read_text().strip()


def test_tune_steps():
    assert load("tune_steps").main(["--iterations", "20", "--algorithms", "pcn"]) == 0


# scripts/bench_pairs.py, on canned bench output: no bench process is started.

def canned_stdout(side, seed, ms, correct=True, trace=0, steps=2.0, describe=None):
    env = {"workload": "linear", "seed": seed, "seconds": 55.0, "trace": trace,
           "blas_threads": "1", "git_describe": describe or f"{side}-sha"}
    metrics = {"ms_per_iter.inf-hmc": {"value": ms, "unit": "ms"},
               "setup_s": {"value": 0.001, "unit": "s"}}
    if trace:
        metrics = {"proposals.leapfrog_steps_per_iter.inf-hmc": {"value": steps,
                                                                  "unit": "count/iter"},
                   "proposals.ms_per_iter.inf-hmc": {"value": ms, "unit": "ms/iter"}}
    result = {"correct": correct, "attempted": 16, "failed": 0 if correct else 1,
              "metrics": metrics}
    return "\n".join(["env " + json.dumps(env), "rounds 3  set-up batches 5",
                      "metric ms_per_iter.inf-hmc  0.1 ms", json.dumps(result)]) + "\n"


def canned_runner(ms_of, wrong=(), steps_of=None, describe=None):
    """A stand-in for run_bench: ms_of[(side, seed)] is the run's ms/iter;
    describe, when given, is every run's git_describe."""
    bench_pairs = load("bench_pairs")
    calls = []

    def run(tree, workload, seed, seconds, trace):
        side = tree.name
        calls.append((side, seed, trace))
        steps = (steps_of or {}).get(side, 2.0)
        stdout = canned_stdout(side, seed, ms_of.get((side, seed), 0.1),
                               correct=(side, seed) not in wrong, trace=trace, steps=steps,
                               describe=describe)
        env, result = bench_pairs.parse_output(stdout)
        return {"env": env, "result": result}
    return run, calls


def trees(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_bench_pairs_parses_env_and_last_line():
    bench_pairs = load("bench_pairs")
    env, result = bench_pairs.parse_output(canned_stdout("parent", 5, 0.25))
    assert env["seed"] == 5 and env["git_describe"] == "parent-sha"
    assert result["metrics"]["ms_per_iter.inf-hmc"]["value"] == 0.25
    # a run killed before its result line has no result
    assert bench_pairs.parse_output("env {}\nrounds 1\n") == ({}, None)
    assert bench_pairs.parse_output("") == (None, None)


def test_bench_pairs_seeds_and_alternation():
    bench_pairs = load("bench_pairs")
    assert bench_pairs.parse_seeds("2411-2414") == [2411, 2412, 2413, 2414]
    assert bench_pairs.parse_seeds("3,9") == [3, 9]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")
    order = [sides[0] for _, _, sides in bench_pairs.schedule([7, 8, 9])]
    assert order == ["parent", "change", "parent"]


def test_bench_pairs_aggregates_medians_quartiles_and_pairs_won():
    bench_pairs = load("bench_pairs")
    parent = [0.10, 0.14, 0.12, 0.16]
    change = [0.08, 0.14, 0.05, 0.09]  # pair 2 is a tie: it counts for neither side
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, ms in (("parent", p), ("change", c)):
            env, result = bench_pairs.parse_output(canned_stdout(side, pair, ms))
            runs.append({"pair": pair, "side": side, "seed": pair, "env": env,
                         "result": result})
    m = bench_pairs.summarize(runs)["ms_per_iter.inf-hmc"]
    assert m["parent_median"] == pytest.approx(0.13)
    assert m["parent_q1"] == pytest.approx(0.115) and m["parent_q3"] == pytest.approx(0.145)
    assert m["change_median"] == pytest.approx(0.085)
    assert m["change_q1"] == pytest.approx(0.0725) and m["change_q3"] == pytest.approx(0.1025)
    assert m["change_over_parent"] == pytest.approx(0.085 / 0.13)
    assert m["change_lower_in_pairs"] == "3/4"
    assert m["gap_exceeds_parent_iqr"] is True  # 0.045 > 0.03
    assert bench_pairs.summarize(runs)["setup_s"]["change_lower_in_pairs"] == "0/4"


def test_bench_pairs_writes_and_merges_workloads(tmp_path, capsys):
    bench_pairs = load("bench_pairs")
    out = tmp_path / "BENCH.json"
    run, calls = canned_runner({("change", 21): 0.05})
    argv = trees(tmp_path) + ["--workload", "linear", "--seeds", "21-22",
                              "--out", str(out), "--traced-seed", "23"]
    assert bench_pairs.main(argv, run=run) == 0
    assert calls == [("parent", 21, 0), ("change", 21, 0), ("change", 22, 0),
                     ("parent", 22, 0), ("parent", 23, 1), ("change", 23, 1),
                     ("change", 23, 1), ("parent", 23, 1)]
    doc = json.loads(out.read_text())
    assert doc["parent_commit"] == "parent-sha" and doc["change_commit"] == "change-sha"
    assert doc["blas_threads"] == "1" and doc["seeds"] == {"linear": [21, 22]}
    entry = doc["workloads"]["linear"]
    assert entry["first_in_pair"] == {"21": "parent", "22": "change"}
    assert entry["all_correct"] and len(entry["runs"]) == 4
    assert entry["medians"]["ms_per_iter.inf-hmc"]["change_lower_in_pairs"] == "1/2"
    traced = entry["traced"]
    assert [(r["side"], r["seed"]) for r in traced["runs"]] == [
        ("parent", 23), ("change", 23), ("change", 23), ("parent", 23)]
    assert [r["env"]["git_describe"] for r in traced["runs"]] == [
        "parent-sha", "change-sha", "change-sha", "parent-sha"]
    assert all(r["env"]["trace"] == 1 for r in traced["runs"])
    assert traced["differing_counts"] == []
    assert traced["ranges"]["parent"] == {"proposals.ms_per_iter.inf-hmc": [0.1, 0.1]}
    assert traced["ranges_apart"] == []

    # a second workload joins the same file; an incorrect run fails the exit code
    run, _ = canned_runner({}, wrong={("parent", 31)})
    argv = trees(tmp_path / "b") + ["--workload", "desk", "--seeds", "31",
                                    "--out", str(out)]
    assert bench_pairs.main(argv, run=run) == 1
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"linear", "desk"}
    assert not doc["workloads"]["desk"]["all_correct"]
    assert doc["workloads"]["linear"] == entry
    assert "NOT CORRECT" in capsys.readouterr().out


def test_bench_pairs_flags_count_metrics_that_moved(tmp_path):
    bench_pairs = load("bench_pairs")
    run, _ = canned_runner({}, steps_of={"change": 2.5})
    out = tmp_path / "BENCH.json"
    argv = trees(tmp_path) + ["--workload", "linear", "--seeds", "1", "--out", str(out),
                              "--traced-seed", "2"]
    assert bench_pairs.main(argv, run=run) == 0
    traced = json.loads(out.read_text())["workloads"]["linear"]["traced"]
    assert traced["differing_counts"] == ["proposals.leapfrog_steps_per_iter.inf-hmc"]


def test_bench_pairs_flags_a_count_that_moves_within_one_side():
    # the two parent runs disagree while each change run matches the first:
    # a count that differs anywhere among the four traced runs is flagged
    bench_pairs = load("bench_pairs")
    runs = [dict(zip(("env", "result"), bench_pairs.parse_output(
                canned_stdout(side, 2, 0.1, trace=1, steps=steps))))
            for side, steps in (("parent", 2.0), ("change", 2.0), ("change", 2.0),
                                ("parent", 3.0))]
    assert bench_pairs.differing_counts(runs) == ["proposals.leapfrog_steps_per_iter.inf-hmc"]
    assert bench_pairs.differing_counts(runs[:3]) == []


def test_bench_pairs_reports_each_sides_traced_range():
    # proposals.ms_per_iter reads 0.30/0.34 for the parent and 0.20/0.26 for
    # the change: disjoint ranges; ms_per_iter overlaps (0.1/0.2 against
    # 0.15/0.15). Count metrics get no range.
    bench_pairs = load("bench_pairs")
    runs = []
    for side, ms in (("parent", 0.30), ("change", 0.26), ("change", 0.20), ("parent", 0.34)):
        env, result = bench_pairs.parse_output(canned_stdout(side, 2, ms, trace=1))
        result["metrics"]["ms_per_iter.inf-hmc"] = {
            "value": {0.30: 0.1, 0.34: 0.2}.get(ms, 0.15), "unit": "ms"}
        runs.append({"side": side, "seed": 2, "env": env, "result": result})
    runs.append({"side": "parent", "seed": 2, "env": None, "result": None})  # a failed run
    ranges, apart = bench_pairs.traced_ranges(runs)
    assert ranges == {
        "parent": {"proposals.ms_per_iter.inf-hmc": [0.30, 0.34], "ms_per_iter.inf-hmc": [0.1, 0.2]},
        "change": {"proposals.ms_per_iter.inf-hmc": [0.20, 0.26],
                   "ms_per_iter.inf-hmc": [0.15, 0.15]}}
    assert apart == ["proposals.ms_per_iter.inf-hmc"]
    # a change range that touches the parent's overlaps it
    runs[1]["result"]["metrics"]["proposals.ms_per_iter.inf-hmc"]["value"] = 0.30
    assert bench_pairs.traced_ranges(runs)[1] == []


@pytest.mark.parametrize("flags", [False, True])
def test_bench_pairs_names_commits_of_trees_outside_git(tmp_path, flags):
    # a git archive copy reports "not a git checkout"; the flags name its commit
    bench_pairs = load("bench_pairs")
    run, _ = canned_runner({}, describe="not a git checkout")
    out = tmp_path / "BENCH.json"
    argv = trees(tmp_path) + ["--workload", "linear", "--seeds", "1", "--out", str(out)]
    if flags:
        argv += ["--parent-commit", "4a34845", "--change-commit", "c0ffee1"]
    assert bench_pairs.main(argv, run=run) == 0
    doc = json.loads(out.read_text())
    if flags:
        assert (doc["parent_commit"], doc["change_commit"]) == ("4a34845", "c0ffee1")
    else:
        assert doc["parent_commit"] == doc["change_commit"] == "not a git checkout"


def test_bench_pairs_keeps_git_describe_over_commit_flags(tmp_path):
    bench_pairs = load("bench_pairs")
    run, _ = canned_runner({})
    out = tmp_path / "BENCH.json"
    argv = trees(tmp_path) + ["--workload", "linear", "--seeds", "1", "--out", str(out),
                              "--parent-commit", "4a34845", "--change-commit", "c0ffee1"]
    assert bench_pairs.main(argv, run=run) == 0
    doc = json.loads(out.read_text())
    assert (doc["parent_commit"], doc["change_commit"]) == ("parent-sha", "change-sha")
