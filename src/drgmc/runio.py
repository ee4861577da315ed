"""On-disk formats for chain outputs.

A run directory contains:

    config.yaml    resolved configuration
    trace.csv      iteration, then the columns of diagnostics.COLUMNS (4096-row blocks)
    samples.bin    binary sample stack, layout below
    mean.csv       posterior mean field as a grid (one CSV row per mesh row)
    summary.json   scalar efficiency summary
    manifest.json  config hash, seed, git state, timestamps, file inventory
    lis.csv        (adaptive kernels) update,m,r,d_F per subspace update
    lis.json       (adaptive kernels) final eigenvalues, update history and
                   the count of updates that failed (update_errors)

samples.bin byte layout, little-endian throughout:

    bytes 0..7    uint64  n      (coordinates per sample)
    bytes 8..15   uint64  count  (number of samples)
    bytes 16..    count * n float64, sample-major (sample i starts at
                  byte 16 + 8*n*i)
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import struct
import subprocess
from pathlib import Path

import numpy as np

from . import config as config_mod
from .diagnostics import COLUMNS, ChainRecord, efficiency

_MAGIC_LEN = 16
TRACE_COLUMNS = ("iteration", *(col.metadata["csv"] for col in COLUMNS))
TRACE_BLOCK_ROWS = 4096
REJECT_COUNTS = ("error_rejects", "nonfinite_rejects")  # meta keys kept in summary.json


def write_samples(path, samples):
    arr = np.ascontiguousarray(np.asarray(samples, dtype="<f8"))
    if arr.ndim != 2:
        raise ValueError("samples must be a 2-d array (count, n)")
    count, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", n, count))
        fh.write(arr.tobytes(order="C"))


def read_samples(path):
    with open(path, "rb") as fh:
        header = fh.read(_MAGIC_LEN)
        if len(header) != _MAGIC_LEN:
            raise ValueError(f"{path}: truncated header")
        n, count = struct.unpack("<QQ", header)
        payload = fh.read()
    expected = 8 * n * count
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(count, n).copy()


def write_trace(path, record):
    line = ",".join(["%d", *(col.metadata["fmt"] for col in COLUMNS)]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        # blocks of rows, never the whole file as one list
        for lo in range(0, len(record.samples), TRACE_BLOCK_ROWS):
            rows = slice(lo, lo + TRACE_BLOCK_ROWS)
            fh.write("".join(line % row for row in zip(range(lo, rows.stop), *(
                getattr(record, col.name)[rows].tolist() for col in COLUMNS))))


def read_trace(path):
    """trace.csv's columns by name, each as its dtype in COLUMNS (iteration: int64)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    dtypes = (np.int64, *(col.metadata["dtype"] for col in COLUMNS))
    return {name: col.astype(dtype) for name, col, dtype in zip(TRACE_COLUMNS, data, dtypes)}


def write_mean(path, mean, nx=None, ny=None):
    mean = np.asarray(mean, dtype=float)
    if nx is not None and ny is not None and mean.size == (nx + 1) * (ny + 1):
        grid = mean.reshape(ny + 1, nx + 1)
    else:
        grid = mean.reshape(1, -1)
    lines = [",".join(f"{v:.17g}" for v in row) for row in grid]
    Path(path).write_text("\n".join(lines) + "\n")


def write_lis(run_dir, meta):
    lis = meta.get("lis")
    if lis is None:
        return
    lines = ["update,m,r,d_F"]
    for i, (m, r, d_f) in enumerate(lis["history"]):
        lines.append(f"{i},{m},{r},{d_f:.17g}")
    (run_dir / "lis.csv").write_text("\n".join(lines) + "\n")
    payload = {"eigenvalues": lis["eigenvalues"], "history": lis["history"],
               "m": lis["m"], "r": lis["r"], "d_f": lis["d_f"],
               "frozen": lis["frozen"], "update_errors": lis["update_errors"]}
    (run_dir / "lis.json").write_text(json.dumps(payload, indent=1))


@functools.cache
def _git_describe():
    """State of the source tree drgmc is imported from, whatever the
    caller's working directory; looked up once per process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(run_dir, config_dict, digest, started, finished, incomplete=False, error=None):
    """manifest.json of the RunConfig whose to_dict() is config_dict and hash() digest."""
    inventory = {item.name: {"bytes": item.stat().st_size, "sha256": _sha256(item)}
                 for item in sorted(run_dir.iterdir())
                 if item.is_file() and item.name != "manifest.json"}
    payload = {
        "config": config_dict,
        "config_hash": digest,
        "seed": config_dict["seed"],
        "git_describe": _git_describe(),
        "started": started,
        "finished": finished,
        "incomplete": bool(incomplete),
        "files": inventory,
    }
    if error:
        payload["error"] = error
    (run_dir / "manifest.json").write_text(json.dumps(payload, indent=1))


def timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_run(run_dir, record, config, started=None):
    """Persist one completed chain into run_dir (created if needed); the
    manifest's start time is started, or now when it is None."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    started = started or timestamp()
    config_dict = config.to_dict()
    digest = config_mod.dict_hash(config_dict)
    config_mod.to_yaml(config_dict, run_dir / "config.yaml")
    write_trace(run_dir / "trace.csv", record)
    write_samples(run_dir / "samples.bin", record.samples)
    grid = (config.nx, config.ny) if config.model == "elliptic" else (None, None)
    write_mean(run_dir / "mean.csv", record.kept().mean(axis=0), *grid)
    write_lis(run_dir, record.meta)

    summary = {
        "algorithm": record.meta.get("algorithm"),
        "h": record.meta.get("h"),
        "iterations": len(record.samples),
        "burn_in": record.burn_in,
        **efficiency(record),
        **{key: int(record.meta.get(key, 0)) for key in REJECT_COUNTS},
        "wall_time": float(np.sum(record.wall_times)),
        "config_hash": digest,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    write_manifest(run_dir, config_dict, digest, started, timestamp())
    return run_dir


def load_record(run_dir):
    """Rebuild a ChainRecord (and its config) from a run directory."""
    run_dir = Path(run_dir)
    cfg = config_mod.from_yaml(run_dir / "config.yaml")
    trace = read_trace(run_dir / "trace.csv")
    samples = read_samples(run_dir / "samples.bin")
    summary = json.loads((run_dir / "summary.json").read_text())
    meta = {"seed": cfg.seed,
            **{key: summary[key] for key in ("algorithm", "h", "burn_in", *REJECT_COUNTS)}}
    if (run_dir / "lis.json").exists():
        meta["lis"] = json.loads((run_dir / "lis.json").read_text())
    return ChainRecord(samples=samples, meta=meta, **{
        col.name: trace[col.metadata["csv"]] for col in COLUMNS}), cfg
