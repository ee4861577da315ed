"""Desk-scale elliptic efficiency study: all eight kernels, one table.

Runs every algorithm on the default elliptic problem (20 x 20, SNR 10,
2500 iterations, 500 burn-in) with the frozen step sizes, persists each
run directory under the output root, and prints the efficiency table
against the pCN baseline.

Usage: python3 scripts/run_elliptic_study.py [--out DIR] [--seed N]
       [--iterations N] [--algorithms a,b,...]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drgmc import runio
from drgmc.config import ALGORITHMS, RunConfig
from drgmc.diagnostics import summary_table, table_to_csv, table_to_text
from drgmc.harness import build_model, run_from_config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/elliptic_study")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=2500)
    parser.add_argument("--burn-in", type=int, default=500)
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS))
    args = parser.parse_args(argv)

    out_root = Path(args.out)
    study = RunConfig(model="elliptic", iterations=args.iterations,
                      burn_in=args.burn_in, seed=args.seed)
    model, _ = build_model(study)  # one model: every kernel samples the same posterior
    records = {}
    for algorithm in args.algorithms.split(","):
        cfg = replace(study, algorithm=algorithm)
        record = run_from_config(cfg, model=model)
        records[algorithm] = record
        run_dir = runio.write_run(out_root / f"{algorithm}_seed{args.seed}",
                                  record, cfg)
        ap = record.accepts[record.burn_in:].mean()
        print(f"{algorithm:>14}  AP={ap:.3f}  solves={record.pde_solves[-1]}"
              f"  -> {run_dir}", flush=True)

    baseline = "pcn" if "pcn" in records else next(iter(records))
    rows = summary_table(records, baseline=baseline)
    (out_root / "table.csv").write_text(table_to_csv(rows))
    (out_root / "table.txt").write_text(table_to_text(rows))
    print()
    print(table_to_text(rows), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
