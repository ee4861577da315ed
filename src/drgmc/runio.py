"""On-disk formats for chain outputs.

A run directory contains:

    config.yaml    resolved configuration
    trace.csv      iteration,phi,accept,wall_time,pde_solves
    samples.bin    binary sample stack, layout below
    mean.csv       posterior mean field as a grid (one CSV row per mesh row)
    summary.json   scalar efficiency summary
    manifest.json  config hash, seed, git state, timestamps, file inventory
    lis.csv        (adaptive kernels) update,m,r,d_F per subspace update
    lis.json       (adaptive kernels) final eigenvalues and update history

samples.bin byte layout, little-endian throughout:

    bytes 0..7    uint64  n      (coordinates per sample)
    bytes 8..15   uint64  count  (number of samples)
    bytes 16..    count * n float64, sample-major (sample i starts at
                  byte 16 + 8*n*i)
"""

from __future__ import annotations

import datetime
import hashlib
import json
import struct
import subprocess
from pathlib import Path

import numpy as np

from . import config as config_mod
from .diagnostics import ChainRecord

_MAGIC_LEN = 16


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
    lines = ["iteration,phi,accept,wall_time,pde_solves"]
    for i in range(len(record.samples)):
        lines.append(f"{i},{record.potentials[i]:.17g},{int(record.accepts[i])},"
                     f"{record.wall_times[i]:.9g},{int(record.pde_solves[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path):
    rows = Path(path).read_text().strip().splitlines()
    header = rows[0].split(",")
    data = {name: [] for name in header}
    for row in rows[1:]:
        for name, val in zip(header, row.split(",")):
            data[name].append(float(val))
    return {k: np.asarray(v) for k, v in data.items()}


def write_mean(path, mean, nx=None, ny=None):
    mean = np.asarray(mean, dtype=float)
    if nx is not None and ny is not None and mean.size == (nx + 1) * (ny + 1):
        grid = mean.reshape(ny + 1, nx + 1)
    else:
        grid = mean.reshape(1, -1)
    lines = [",".join(f"{v:.17g}" for v in row) for row in grid]
    Path(path).write_text("\n".join(lines) + "\n")


def read_mean(path):
    rows = Path(path).read_text().strip().splitlines()
    return np.asarray([[float(v) for v in row.split(",")] for row in rows])


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
               "frozen": lis["frozen"]}
    (run_dir / "lis.json").write_text(json.dumps(payload, indent=1))


def _git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
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


def write_manifest(run_dir, config, started, finished, incomplete=False, error=None):
    inventory = {}
    for item in sorted(run_dir.iterdir()):
        if item.name == "manifest.json" or not item.is_file():
            continue
        inventory[item.name] = {"bytes": item.stat().st_size, "sha256": _sha256(item)}
    payload = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "seed": config.seed,
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


def write_run(run_dir, record, config, summary_extra=None):
    """Persist one completed chain into run_dir (created if needed)."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    started = summary_extra.pop("started", timestamp()) if summary_extra else timestamp()
    config_mod.to_yaml(config, run_dir / "config.yaml")
    write_trace(run_dir / "trace.csv", record)
    write_samples(run_dir / "samples.bin", record.samples)
    kept = record.kept()
    write_mean(run_dir / "mean.csv", kept.mean(axis=0),
               nx=config.nx if config.model == "elliptic" else None,
               ny=config.ny if config.model == "elliptic" else None)
    write_lis(run_dir, record.meta)

    from .diagnostics import ess_per_coordinate
    ecoord = ess_per_coordinate(kept)
    total_time = float(np.sum(record.wall_times))
    summary = {
        "algorithm": record.meta.get("algorithm"),
        "h": record.meta.get("h"),
        "iterations": len(record.samples),
        "burn_in": record.burn_in,
        "AP": float(np.mean(record.accepts[record.burn_in:])),
        "s_per_iter": total_time / len(record.samples),
        "minESS": float(np.min(ecoord)),
        "medESS": float(np.median(ecoord)),
        "maxESS": float(np.max(ecoord)),
        "minESS_per_s": float(np.min(ecoord)) / total_time,
        "PDEsolns": int(record.pde_solves[-1]),
        "error_rejects": int(record.meta.get("error_rejects", 0)),
        "wall_time": total_time,
        "config_hash": config.hash(),
    }
    if summary_extra:
        summary.update(summary_extra)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    write_manifest(run_dir, config, started, timestamp())
    return run_dir


def load_record(run_dir):
    """Rebuild a ChainRecord (and its config) from a run directory."""
    run_dir = Path(run_dir)
    cfg = config_mod.from_yaml(run_dir / "config.yaml")
    trace = read_trace(run_dir / "trace.csv")
    samples = read_samples(run_dir / "samples.bin")
    summary = json.loads((run_dir / "summary.json").read_text())
    meta = {"algorithm": summary["algorithm"], "h": summary["h"],
            "burn_in": summary["burn_in"], "seed": cfg.seed}
    if (run_dir / "lis.json").exists():
        meta["lis"] = json.loads((run_dir / "lis.json").read_text())
    record = ChainRecord(samples=samples, potentials=trace["phi"],
                         accepts=trace["accept"].astype(bool),
                         wall_times=trace["wall_time"],
                         pde_solves=trace["pde_solves"].astype(np.int64),
                         meta=meta)
    return record, cfg
