"""Acceptance-rate stability under mesh refinement.

Fixes the step size and the observation vector, then reruns the same
kernel across a ladder of meshes. Each mesh's model is built once, its
set-up time printed, and shared by every kernel. Function-space kernels
should show a flat acceptance-rate profile; a finite-dimensional kernel
would decay.

Usage: python3 scripts/mesh_robustness.py [--meshes 16,24,32]
       [--algorithms pcn,adr-inf-mmala] [--iterations N]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drgmc import elliptic
from drgmc.config import RunConfig
from drgmc.harness import build_elliptic, run_from_config


def shared_observations(config):
    """Draw y once, on the finest mesh of the ladder, so every mesh sees
    the same 25 sensor values."""
    mesh = elliptic.Mesh2D(config.nx, config.ny)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem,
                           config.snr, config.data_seed)
    return problem.y, problem.sigma_eta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--meshes", default="16,24,32")
    parser.add_argument("--algorithms", default="pcn,adr-inf-mmala")
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.meshes.split(",")]
    algorithms = args.algorithms.split(",")
    data = shared_observations(RunConfig(nx=max(sizes), ny=max(sizes)))

    aps = {algorithm: [] for algorithm in algorithms}
    for k in sizes:
        t0 = time.perf_counter()
        model, _ = build_elliptic(RunConfig(model="elliptic", nx=k, ny=k), data=data)
        print(f"{k:>2d}x{k:<2d} mesh: set-up {time.perf_counter() - t0:.3f} s", flush=True)
        for algorithm in algorithms:
            cfg = RunConfig(model="elliptic", algorithm=algorithm, nx=k, ny=k,
                            iterations=args.iterations,
                            burn_in=args.iterations // 4, seed=args.seed)
            record = run_from_config(cfg, model=model)
            aps[algorithm].append(float(record.accepts[record.burn_in:].mean()))

    print(f"{'algorithm':>14} " + " ".join(f"{k:>2d}x{k:<6d}" for k in sizes)
          + "  max drift")
    for algorithm, row in aps.items():
        drift = max(row) - min(row)
        print(f"{algorithm:>14} " + " ".join(f"{ap:8.3f}" for ap in row)
              + f"  {drift:9.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
