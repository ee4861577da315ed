"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workload linear --seeds 2411-2420 --seconds 55 --out BENCH_24.json \\
        [--traced-seed 2421] [--parent-commit SHA --change-commit SHA]

Each tree is a full checkout (a parent commit and the change on top of it).
Pair i runs ``python3 bench/run.py --workload W --seed S_i --seconds T
--trace 0`` once in each tree, each run its own process: the parent runs
first in odd pairs and the change in even ones. The bench pins BLAS to one
thread itself. With --traced-seed, four ``--trace 1`` runs follow the
pairs, in the order parent, change, change, parent, for the per-layer
metrics: two per side, so a run slowed by the machine shows against its
own side's other run, and a drift over time weighs on both sides alike.
Each side's range (min, max) of every non-count metric over its two traced
runs is kept, with the metrics whose parent and change ranges do not
overlap: a span difference smaller than a side's own spread is not one.

The file keeps, per workload, every run's env line and result line (the
bench's last stdout line, unchanged), the seeds, which side ran first in
each pair, and per metric the medians and quartiles (linear interpolation)
of each side and the number of pairs in which the change read lower (ties
count for neither). Running again with the same --out adds or replaces that
workload's entry, so one file holds several workloads. The file names each
side's commit by the bench's git_describe; where a tree is not a git
checkout (a ``git archive`` copy), --parent-commit and --change-commit name
it instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
NOT_A_CHECKOUT = "not a git checkout"  # bench/run.py's git_describe outside git
COMMAND = "python3 bench/run.py --workload <w> --seed <seed> --seconds {seconds:g} --trace {trace}"
WHAT = ("Alternating untraced bench pairs per workload, the parent commit against "
        "this change, written by scripts/bench_pairs.py. The side named in "
        "first_in_pair ran first. Each run's 'result' is its last stdout line (the "
        "bench's JSON object), unchanged; 'env' is its env line. 'medians' are "
        "per-metric medians over the runs of each side, with quartiles (linear "
        "interpolation), the count of pairs in which the change read lower, and "
        "whether the gap between the medians exceeds the parent's interquartile "
        "range. 'traced' holds, when made, four --trace 1 runs on one seed in the "
        "order they ran (parent, change, change, parent), the count metrics "
        "on which any two of them differ, each side's [min, max] of every other "
        "metric over its two traced runs ('ranges'), and the metrics whose parent "
        "and change ranges do not overlap ('ranges_apart').")
TRACED_ORDER = ("parent", "change", "change", "parent")


def parse_seeds(text):
    """'2411-2420' or '1,5,9' -> a list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def schedule(seeds):
    """(pair, seed, sides in the order they run): the parent first in odd pairs."""
    return [(i, seed, SIDES if i % 2 else SIDES[::-1])
            for i, seed in enumerate(seeds, start=1)]


def parse_output(stdout):
    """(env, result) from one bench run's stdout: the object on its 'env '
    line and the JSON object on its last line, None where missing."""
    env = result = None
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return env, result if isinstance(result, dict) else None


def run_bench(tree, workload, seed, seconds, trace):
    """One bench process in tree: {'env', 'result'}, plus its return code and
    the tail of its stderr when it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 1800)
    env, result = parse_output(proc.stdout)
    run = {"env": env, "result": result}
    if proc.returncode != 0 or result is None:
        run["returncode"] = proc.returncode
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def correct(run):
    result = run.get("result")
    return bool(result and result.get("correct") and result.get("failed") == 0)


def metric_value(run, name):
    metric = (run.get("result") or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summarize(runs):
    """Per-metric medians, quartiles and pairs won, over runs made in pairs."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    names = dict.fromkeys(name for run in runs
                          for name in (run.get("result") or {}).get("metrics", {}))
    medians = {}
    for name in names:
        values = {side: [v for v in (metric_value(r, name) for r in runs if r["side"] == side)
                         if v is not None] for side in SIDES}
        if not all(values.values()):
            continue
        (p1, pm, p3), (c1, cm, c3) = (np.percentile(values[side], [25, 50, 75]).tolist()
                                      for side in SIDES)
        pairs = [(metric_value(pair["parent"], name), metric_value(pair["change"], name))
                 for pair in by_pair.values() if set(pair) == set(SIDES)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        medians[name] = {
            "parent_median": pm, "change_median": cm,
            "change_over_parent": cm / pm if pm else None,
            "parent_q1": p1, "parent_q3": p3, "change_q1": c1, "change_q3": c3,
            "change_lower_in_pairs": f"{sum(c < p for p, c in pairs)}/{len(pairs)}",
            "gap_exceeds_parent_iqr": abs(pm - cm) > p3 - p1,
        }
    return medians


def differing_counts(runs):
    """Names of the count metrics (unit count or count/iter) that runs on one
    seed do not all report alike; a change that keeps every chain keeps them,
    and so does a rerun of one tree."""
    metrics = [(run.get("result") or {}).get("metrics", {}) for run in runs]
    names = set().union(*metrics)
    return sorted(name for name in names
                  if any(m.get(name, {}).get("unit", "").startswith("count") for m in metrics)
                  and any(m.get(name) != metrics[0].get(name) for m in metrics[1:]))


def traced_ranges(runs):
    """({side: {metric: [min, max]}} of every non-count metric over each
    side's runs, sorted names of the metrics whose parent and change ranges
    do not overlap)."""
    ranges = {side: {} for side in SIDES}
    for run in runs:
        for name, metric in (run.get("result") or {}).get("metrics", {}).items():
            if not metric.get("unit", "").startswith("count"):
                lo, hi = ranges[run["side"]].get(name, (metric["value"],) * 2)
                ranges[run["side"]][name] = [min(lo, metric["value"]), max(hi, metric["value"])]
    parent, change = (ranges[side] for side in SIDES)
    apart = sorted(name for name in parent.keys() & change.keys()
                   if parent[name][1] < change[name][0] or change[name][1] < parent[name][0])
    return ranges, apart


def workload_entry(seeds, runs):
    return {
        "pairs": len(seeds),
        "first_in_pair": {str(seed): order[0] for _, seed, order in schedule(seeds)},
        "all_correct": all(correct(run) for run in runs),
        "medians": summarize(runs),
        "runs": runs,
    }


def merge(doc, workload, seeds, seconds, entry, commits=None):
    """doc with the workload's seeds and entry set, and the header filled
    from the runs' env lines; commits[side], when given, names a side whose
    runs were not made in a git checkout."""
    commits = commits or {}
    doc.setdefault("what", WHAT)
    doc.setdefault("command", COMMAND.format(seconds=seconds, trace=0))
    if "traced" in entry:
        doc.setdefault("traced_command", COMMAND.format(seconds=seconds, trace=1))
    envs = [run["env"] for run in entry["runs"] if run.get("env")]
    if envs:
        doc["blas_threads"] = envs[0].get("blas_threads")
    for side in SIDES:
        described = [run["env"].get("git_describe") for run in entry["runs"]
                     if run["side"] == side and run.get("env")]
        name = described[0] if described else None
        if name in (None, NOT_A_CHECKOUT) and commits.get(side):
            name = commits[side]
        if name is not None:
            doc[f"{side}_commit"] = name
    doc.setdefault("seeds", {})[workload] = seeds
    doc.setdefault("workloads", {})[workload] = entry
    return doc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent commit's checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair: a range LO-HI or a comma list")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", required=True, type=Path)
    for side in SIDES:
        parser.add_argument(f"--{side}-commit", default=None,
                            help=f"the {side} tree's commit, recorded when the tree "
                                 "is not a git checkout")
    return parser.parse_args(argv)


def main(argv=None, run=run_bench):
    args = parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            raise SystemExit(f"bench_pairs: no bench/run.py in the {side} tree {tree}")
    runs = []
    for pair, seed, order in schedule(args.seeds):
        for side in order:
            made = run(trees[side], args.workload, seed, args.seconds, 0)
            runs.append({"pair": pair, "side": side, "seed": seed, **made})
            print(f"pair {pair}/{len(args.seeds)} {side:6s} seed {seed}: "
                  f"{'correct' if correct(made) else 'NOT CORRECT'}", flush=True)
    entry = workload_entry(args.seeds, runs)
    if args.traced_seed is not None:
        traced = [{"side": side, "seed": args.traced_seed,
                   **run(trees[side], args.workload, args.traced_seed, args.seconds, 1)}
                  for side in TRACED_ORDER]
        ranges, apart = traced_ranges(traced)
        entry["traced"] = {"runs": traced, "differing_counts": differing_counts(traced),
                           "ranges": ranges, "ranges_apart": apart}
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    merge(doc, args.workload, args.seeds, args.seconds, entry,
          {"parent": args.parent_commit, "change": args.change_commit})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    traced_ok = all(correct(made) for made in entry.get("traced", {}).get("runs", ()))
    return 0 if entry["all_correct"] and traced_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
