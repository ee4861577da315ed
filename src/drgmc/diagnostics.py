"""Chain diagnostics: effective sample size and efficiency tables."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

MIN_ESS_SAMPLES = 10  # shortest series ess accepts; cli refuses shorter runs


@dataclass
class ChainRecord:
    """Per-iteration outputs of one chain, equal-length arrays throughout."""

    samples: np.ndarray
    potentials: np.ndarray
    accepts: np.ndarray
    wall_times: np.ndarray
    pde_solves: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_iter = len(self.samples)
        for name in ("potentials", "accepts", "wall_times", "pde_solves"):
            if len(getattr(self, name)) != n_iter:
                raise ValueError(f"{name} length does not match samples")
        if np.any(np.diff(self.pde_solves) < 0):
            raise ValueError("pde_solves must be non-decreasing")

    @property
    def burn_in(self):
        return int(self.meta.get("burn_in", 0))

    def kept(self):
        return self.samples[self.burn_in:]


def _autocorrelation(x):
    n = len(x)
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n] / n
    return acov / acov[0]


def ess(series):
    """N / (1 + 2 sum rho_k), with Geyer's initial monotone positive
    sequence truncating the autocorrelation sum; capped at N."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < MIN_ESS_SAMPLES:
        raise ValueError(f"series too short for ESS (need >= {MIN_ESS_SAMPLES})")
    if np.ptp(x) == 0.0 or not np.isfinite(x).all():
        warnings.warn("constant or non-finite series: ESS defined as 0")
        return 0.0
    rho = _autocorrelation(x)
    terms = []
    for t in range(n // 2):
        gamma = rho[2 * t] + (rho[2 * t + 1] if 2 * t + 1 < n else 0.0)
        if gamma <= 0.0:
            break
        if terms and gamma > terms[-1]:
            gamma = terms[-1]
        terms.append(gamma)
    tau = -1.0 + 2.0 * sum(terms)
    if tau <= 0.0:
        return float(n)
    return float(min(n, n / tau))


def ess_per_coordinate(samples):
    return np.array([ess(samples[:, j]) for j in range(samples.shape[1])])


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
    rows = []
    for name, rec in records.items():
        # the table spells efficiency()'s "_per_" as "/"
        rows.append({"algorithm": name, "h": rec.meta.get("h", float("nan")),
                     **{k.replace("_per_", "/"): v
                        for k, v in efficiency(rec).items()}})
    base = next(r for r in rows if r["algorithm"] == baseline)["minESS/s"]
    for row in rows:
        row["spdup"] = row["minESS/s"] / base if base else float("nan")
    return rows


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        if x != x:
            return "nan"
        if x == 0 or 0.001 <= abs(x) < 1e6:
            return f"{x:.4g}"
        return f"{x:.3e}"
    return str(x)


def table_to_csv(rows):
    lines = [",".join(TABLE_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


def table_to_text(rows):
    cells = [[_fmt(row[c]) for c in TABLE_COLUMNS] for row in rows]
    widths = [max(len(TABLE_COLUMNS[j]), max((len(c[j]) for c in cells), default=0))
              for j in range(len(TABLE_COLUMNS))]
    out = ["  ".join(TABLE_COLUMNS[j].rjust(widths[j]) for j in range(len(widths)))]
    for c in cells:
        out.append("  ".join(c[j].rjust(widths[j]) for j in range(len(widths))))
    return "\n".join(out) + "\n"
