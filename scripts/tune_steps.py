"""Freeze per-algorithm step sizes by bisecting to a 60-70% acceptance band.

Each algorithm is run as a short chain on the default elliptic problem
(20 x 20 mesh, SNR 10, seed 0) and its step size h is bisected in log space
until the post-burn-in acceptance rate lands inside the band. Hamiltonian
kernels use a leapfrog ceiling of I = 4; dili keeps a fixed h_perp/h_r shape
and scales both by one factor. The resulting DEFAULT_STEPS literal is
printed for pasting into drgmc/config.py.

Usage: python3 scripts/tune_steps.py [--iterations N] [--algorithms a,b,...]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drgmc.chain import ADAPTIVE, run_chain
from drgmc.config import ALGORITHMS, DEFAULT_STEPS, RunConfig
from drgmc.harness import build_elliptic

BAND = (0.60, 0.70)
H_MAX = 3.9
LEAPFROG = 4
# dili keeps this complement-to-subspace step ratio while the scale bisects
DILI_SHAPE = (1.0, 0.1)


def acceptance(model, algorithm, h, iterations, seed=0):
    kwargs = dict(algorithm=algorithm, iterations=iterations,
                  burn_in=iterations // 3, seed=seed)
    if algorithm in ADAPTIVE:
        # enough subspace updates inside the short tuning burn-in
        kwargs.update(n_lag=max(20, iterations // 12))
    if "n_leapfrog" in DEFAULT_STEPS[algorithm]:
        kwargs.update(n_leapfrog=LEAPFROG)
    if algorithm == "dili":
        kwargs.update(h_r=h * DILI_SHAPE[0], h_perp=h * DILI_SHAPE[1])
    else:
        kwargs.update(h=h)
    record = run_chain(model, RunConfig(**kwargs))
    return float(np.mean(record.accepts[record.burn_in:]))


def bisect_step(model, algorithm, iterations, rounds=10):
    lo, hi = 1e-3, H_MAX
    ap_hi = acceptance(model, algorithm, hi, iterations)
    if ap_hi >= BAND[0]:
        return hi, ap_hi
    ap_lo = acceptance(model, algorithm, lo, iterations)
    if ap_lo <= BAND[1]:
        return lo, ap_lo
    h, ap = lo, ap_lo
    for _ in range(rounds):
        h = float(np.sqrt(lo * hi))
        ap = acceptance(model, algorithm, h, iterations)
        if BAND[0] <= ap <= BAND[1]:
            break
        if ap > BAND[1]:
            lo = h
        else:
            hi = h
    return h, ap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=450)
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS))
    args = parser.parse_args(argv)

    model, _ = build_elliptic(RunConfig())
    frozen = {}
    for algorithm in args.algorithms.split(","):
        t0 = time.perf_counter()
        h, ap = bisect_step(model, algorithm, args.iterations)
        elapsed = time.perf_counter() - t0
        if algorithm == "dili":
            frozen[algorithm] = {"h_r": round(h * DILI_SHAPE[0], 4),
                                 "h_perp": round(h * DILI_SHAPE[1], 4)}
        else:
            frozen[algorithm] = {"h": round(h, 4)}
        if "n_leapfrog" in DEFAULT_STEPS[algorithm]:
            frozen[algorithm]["n_leapfrog"] = LEAPFROG
        print(f"{algorithm:>14}  h={h:.4f}  AP={ap:.3f}  ({elapsed:.0f}s)",
              flush=True)

    print("\nDEFAULT_STEPS = {")
    for algorithm, entry in frozen.items():
        body = ", ".join(f'"{k}": {v}' for k, v in entry.items())
        print(f'    "{algorithm}": {{{body}}},')
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
