"""Command-line driver.

Subcommands:
    run          execute one configured chain into a new run directory
    compare      build the efficiency table from several run directories
    lis-inspect  print the adapted subspace eigenvalues and d_F history

The default output root is $DRGMC_OUTPUT_ROOT (falling back to ./runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import yaml

from . import config as config_mod
from . import runio
from .diagnostics import MIN_ESS_SAMPLES, summary_table, table_to_csv, table_to_text
from .harness import run_from_config

OUTPUT_ROOT_ENV = "DRGMC_OUTPUT_ROOT"

# every RunConfig key is a `run` flag, out_dir as --out
_OVERRIDABLE = {key: typ for key, (typ, _, _) in config_mod.KEYS.items() if key != "out_dir"}


def _output_root():
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _build_parser():
    parser = argparse.ArgumentParser(prog="drgmc",
                                     description="Dimension-robust MCMC runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one chain")
    p_run.add_argument("--config", help="YAML config file")
    p_run.add_argument("--out", help="run directory (default: auto under output root)")
    for key, typ in _OVERRIDABLE.items():  # text flags are converted by cmd_run
        kind = {"action": argparse.BooleanOptionalAction} if typ is bool else {}
        p_run.add_argument(f"--{key.replace('_', '-')}", dest=key, **kind)

    p_cmp = sub.add_parser("compare", help="efficiency table across runs")
    p_cmp.add_argument("runs", nargs="+", help="run directories (pCN baseline required)")
    p_cmp.add_argument("--out", help="directory for table.csv/table.txt")
    p_cmp.add_argument("--baseline", default="pcn")

    p_lis = sub.add_parser("lis-inspect", help="dump LIS eigenvalues and d_F history")
    p_lis.add_argument("run", help="run directory of an adaptive chain")
    return parser


def _flag_value(key, value):
    """A run flag's value as its config key's type; text it cannot convert
    is refused in one line, and shown by its length past 20 characters."""
    typ = _OVERRIDABLE[key]
    try:
        return typ(value)
    except ValueError:  # includes int()'s refusal of more than 4300 digits
        shown = repr(value) if len(value) <= 20 else f"a text of {len(value)} characters"
        raise ValueError(f"config key '{key}': expected {typ.__name__}, got {shown}") from None


def cmd_run(args):
    try:  # a config that cannot be read or is refused creates no run directory
        cfg = config_mod.from_yaml(args.config) if args.config else config_mod.RunConfig()
        overrides = {k: _flag_value(k, getattr(args, k)) for k in _OVERRIDABLE
                     if getattr(args, k) is not None}
        if overrides:
            cfg = config_mod.from_dict({**cfg.to_dict(), **overrides})
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(exc, file=sys.stderr)
        return 1
    run_dir = Path(args.out or cfg.out_dir or _output_root()
                   / f"{cfg.algorithm}_{cfg.model}_seed{cfg.seed}_{cfg.hash()}")
    if (run_dir / "manifest.json").exists():  # two runs' outputs would mix
        print(f"run directory {run_dir} already holds a run", file=sys.stderr)
        return 1
    run_dir.mkdir(parents=True, exist_ok=True)
    started = runio.timestamp()
    try:
        if cfg.iterations - cfg.burn_in < MIN_ESS_SAMPLES:  # refused before sampling
            raise ValueError(f"too short for ESS (need >= {MIN_ESS_SAMPLES} kept samples)")
        runio.write_run(run_dir, run_from_config(cfg), cfg, started=started)
    except Exception as exc:
        runio.write_manifest(run_dir, cfg.to_dict(), cfg.hash(), started,
                             runio.timestamp(), incomplete=True, error=repr(exc))
        print(f"run failed, partial outputs flagged incomplete: {exc}", file=sys.stderr)
        return 1
    summary = json.loads((run_dir / "summary.json").read_text())
    print(f"run complete: {run_dir}")
    print(f"  AP {summary['AP']:.3f}  minESS {summary['minESS']:.1f}  "
          f"PDEsolns {summary['PDEsolns']}  wall {summary['wall_time']:.1f}s")
    return 0


def cmd_compare(args):
    records, dirs = {}, {}
    for run in args.runs:
        if not (Path(run) / "summary.json").exists():
            print(f"{run}: no summary.json (incomplete run?)", file=sys.stderr)
            return 1
        try:
            record, _cfg = runio.load_record(run)
        except (OSError, ValueError, KeyError, yaml.YAMLError) as exc:
            print(f"{run}: unreadable run: {exc!r}", file=sys.stderr)
            return 1
        algorithm = record.meta["algorithm"]
        if algorithm in dirs:
            print(f"runs {dirs[algorithm]} and {run} are both '{algorithm}'; "
                  "compare takes one run per algorithm", file=sys.stderr)
            return 1
        records[algorithm], dirs[algorithm] = record, run
    if args.baseline not in records:
        print(f"baseline '{args.baseline}' missing from supplied runs", file=sys.stderr)
        return 1
    rows = summary_table(records, baseline=args.baseline)
    out_dir = Path(args.out) if args.out else _output_root() / "compare"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "table.csv").write_text(table_to_csv(rows))
    (out_dir / "table.txt").write_text(table_to_text(rows))
    print(table_to_text(rows), end="")
    print(f"tables written to {out_dir}")
    return 0


def cmd_lis_inspect(args):
    lis_path = Path(args.run) / "lis.json"
    if not lis_path.exists():
        print(f"{args.run}: no LIS data (not an adaptive run?)", file=sys.stderr)
        return 1
    try:  # the whole report is formed before any of it is printed
        payload = json.loads(lis_path.read_text())
        lines = [f"updates m={payload['m']}  rank r={payload['r']}  "
                 f"final d_F={payload['d_f']:.3e}  frozen={payload['frozen']}  "
                 f"update_errors={payload['update_errors']}", "eigenvalues:"]
        lines += [f"  {i + 1:3d}  {lam:.6e}" for i, lam in enumerate(payload["eigenvalues"])]
        lines.append("history (update, m, r, d_F):")
        lines += [f"  {i:3d}  {m:3d}  {r:3d}  {d_f:.6e}"
                  for i, (m, r, d_f) in enumerate(payload["history"])]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{args.run}: unreadable lis.json: {exc!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare,
                "lis-inspect": cmd_lis_inspect}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
