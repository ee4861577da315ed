"""Chain diagnostics: effective sample size and efficiency tables. ESS
takes all coordinates at once: one rfft/irfft pair per batch of columns,
and Geyer's (1992) initial monotone sequence in array operations."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

MIN_ESS_SAMPLES = 10  # shortest series ess accepts; cli refuses shorter runs
# padded doubles per FFT batch (512 KiB): 441 series of 64 samples fit one
# batch; series over 16 384 samples go singly (bigger batches ran slower)
ACF_BATCH_DOUBLES = 1 << 16


@dataclass
class ChainRecord:
    """Per-iteration outputs of one chain, equal-length arrays throughout.
    The fields with metadata are the per-iteration columns (COLUMNS)."""

    samples: np.ndarray
    potentials: np.ndarray = field(metadata={"csv": "phi", "dtype": float, "fmt": "%.17g"})
    accepts: np.ndarray = field(metadata={"csv": "accept", "dtype": bool, "fmt": "%d"})
    # fixed width, so that a trace's size does not depend on its wall times
    wall_times: np.ndarray = field(metadata={"csv": "wall_time", "dtype": float, "fmt": "%.8e"})
    pde_solves: np.ndarray = field(metadata={"csv": "pde_solves", "dtype": np.int64, "fmt": "%d"})
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for col in COLUMNS:
            if len(getattr(self, col.name)) != len(self.samples):
                raise ValueError(f"{col.name} length does not match samples")
        if np.any(np.diff(self.pde_solves) < 0):
            raise ValueError("pde_solves must be non-decreasing")

    @property
    def burn_in(self):
        return int(self.meta.get("burn_in", 0))

    def kept(self):
        return self.samples[self.burn_in:]


COLUMNS = tuple(f for f in fields(ChainRecord) if f.metadata)


def _autocorrelation(x):
    """Autocorrelations at lags 0..N-1 of x's rows (the last axis is time)."""
    n = x.shape[-1]
    x = x - x.mean(axis=-1, keepdims=True)
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[..., :n] / n
    return acov / acov[..., :1]


def _geyer_ess(rho):
    """N / tau per row of autocorrelations rho, capped at N (so also for
    tau <= 0); tau = -1 + 2 sum of the pair sums rho_2t + rho_2t+1 before
    the first one <= 0, each cut to the running minimum."""
    n, half = rho.shape[1], rho.shape[1] // 2
    pairs = rho[:, 0:2 * half:2] + rho[:, 1:2 * half:2]
    positive = pairs > 0.0
    cut = np.where(positive.all(axis=1), half, positive.argmin(axis=1))
    terms = np.minimum.accumulate(pairs[:, :max(1, cut.max(initial=0))], axis=1)
    terms[np.arange(terms.shape[1]) >= cut[:, None]] = 0.0
    tau = -1.0 + 2.0 * np.cumsum(terms, axis=1)[:, -1]
    return n / np.maximum(tau, 1.0)


def ess_per_coordinate(samples):
    """ESS of each column of samples (count, n_coord); constant or
    non-finite columns get ESS 0, with one warning per call."""
    count, n_coord = samples.shape
    if count < MIN_ESS_SAMPLES:
        raise ValueError(f"series too short for ESS (need >= {MIN_ESS_SAMPLES})")
    out = np.zeros(n_coord)
    width = max(1, ACF_BATCH_DOUBLES >> (2 * count - 1).bit_length())
    for start in range(0, n_coord, width):
        rows = samples[:, start:start + width].T.copy()  # each series contiguous
        hi, lo = rows.max(axis=1), rows.min(axis=1)
        moving = np.isfinite(hi) & np.isfinite(lo) & (hi > lo)
        out[start:start + width][moving] = _geyer_ess(_autocorrelation(rows[moving]))
    stuck = n_coord - np.count_nonzero(out)  # a moving series has ESS > 0
    if stuck:
        warnings.warn(f"constant or non-finite series: ESS defined as 0 for "
                      f"{stuck} of {n_coord} coordinates")
    return out


def ess(series):
    """ESS of one series: the one-column case of ess_per_coordinate."""
    return float(ess_per_coordinate(np.asarray(series, dtype=float)[:, None])[0])


def efficiency(record):
    """Acceptance rate after burn-in, cost and ESS of one chain, keyed as
    in summary.json."""
    ecoord = ess_per_coordinate(record.kept())
    total_time = float(np.sum(record.wall_times))
    return {
        "AP": float(np.mean(record.accepts[record.burn_in:])),
        "s_per_iter": total_time / len(record.samples),
        "minESS": float(np.min(ecoord)),
        "medESS": float(np.median(ecoord)),
        "maxESS": float(np.max(ecoord)),
        "minESS_per_s": float(np.min(ecoord)) / total_time,
        "PDEsolns": int(record.pde_solves[-1]),
    }


TABLE_COLUMNS = ("algorithm", "h", "AP", "s/iter", "minESS", "medESS",
                 "maxESS", "minESS/s", "spdup", "PDEsolns")


def summary_table(records, baseline="pcn"):
    """Efficiency rows per algorithm, speed-up measured against the baseline.

    records: mapping algorithm name -> ChainRecord.
    """
    if baseline not in records:
        raise ValueError(f"baseline chain '{baseline}' missing from records")
    # the table spells efficiency()'s "_per_" as "/"
    rows = [{"algorithm": name, "h": rec.meta.get("h", float("nan")),
             **{k.replace("_per_", "/"): v for k, v in efficiency(rec).items()}}
            for name, rec in records.items()]
    base = next(r for r in rows if r["algorithm"] == baseline)["minESS/s"]
    for row in rows:
        row["spdup"] = row["minESS/s"] / base if base else float("nan")
    return rows


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        if x == 0 or 0.001 <= abs(x) < 1e6:
            return f"{x:.4g}"
        return f"{x:.3e}"
    return str(x)


def _cells(rows):
    return [TABLE_COLUMNS] + [[_fmt(row[c]) for c in TABLE_COLUMNS] for row in rows]


def table_to_csv(rows):
    return "".join(",".join(line) + "\n" for line in _cells(rows))


def table_to_text(rows):
    cells = _cells(rows)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) + "\n"
                   for line in cells)
