"""Fixed-seed golden runs: every kernel on both models must reproduce the
stored chains.

A refactor that claims to leave the samplers unchanged must keep these
16 chains: the data file pins the accept/reject sequence and the PDE solve
counts exactly and the samples to 1e-10. It does not pin samples bit for
bit: floating-point reorderings made since it was written (block GNH
actions, the grounded elliptic solve, the Jacobian-product GNH, exact
local spectra in place of the randomized eigensolver, first from a thin
SVD of the Jacobian and then from its Gram eigenproblem with a QR basis,
the banded Cholesky solve in place of sparse LU, the dense observation
matrix in place of sparse sensor sums, the LIS merge in the coordinates of
one Householder QR in place of an SVD of the stacked bases) move the geometric
kernels' samples by up to about 1e-11 (elliptic dili, 6.6e-12), and BLAS
thread counts by about 1e-13. Forming each elliptic state's chain-rule
inputs, residual and band by fewer passes reordered no arithmetic, and
every chain stayed bit for bit. Bit-for-bit equality is a
parent-versus-change check: run both trees with OPENBLAS_NUM_THREADS=1 and
compare the records.

Both models here (n = 81 and n = 8) lie below operators.SYMV_MIN_N, so
their prior applies are all S.dot. test_desk_parity runs every kernel on
the desk's 20 x 20 mesh (n = 441), where vector applies go through dsymv,
against the same chain with every apply through S.dot.

Which arrays a change may rewrite:

* a change that alters what a chain samples regenerates the whole file:

      OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_golden.py

* a change that alters only how many PDE solves a chain makes (its
  accepts and samples unchanged) rewrites only the pde_solves arrays:

      OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_golden.py --solves-only

  Before writing, this mode asserts that every chain's accepts equal the
  file's exactly and its samples lie within 1e-10 of the file's; the
  accepts and samples arrays are written back unchanged.

A parent-versus-change check dumps the 16 chains (accepts, pde_solves,
samples and potentials, and each adaptive chain's meta["lis"] as its
lis.json text) from the parent tree and compares the change's chains with
that dump:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<parent>/src python3 tests/test_golden.py --dump parent.npz
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/test_golden.py --compare parent.npz

--compare prints, per chain, whether accepts and solves are equal, whether
samples and potentials are bit-identical, the largest sample gap and, for
an adaptive chain, whether its lis.json text is equal; it exits non-zero
when any chain's accepts, solves or lis.json text differ.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from drgmc import linear_model
from drgmc.chain import ALGORITHMS, WhitenedModel, run_chain
from drgmc.config import RunConfig
from drgmc.harness import build_elliptic
from drgmc.operators import SYMV_MIN_N

from test_acceptance import LINEAR_STEPS  # criterion 02's step sizes

DATA = Path(__file__).parent / "data" / "golden_runs.npz"

ELLIPTIC_ITERATIONS = {"dr-inf-mmala": 15, "dr-inf-mhmc": 10}


def linear_run(algorithm):
    lm = linear_model.random_model(n=8, m=4, seed=20260815, noise_scale=0.5)
    model = WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
    return run_chain(model, RunConfig(algorithm=algorithm, iterations=300,
                                      burn_in=100, rank=4, n_lag=20, seed=7,
                                      **LINEAR_STEPS[algorithm]))


def elliptic_run(algorithm):
    model, _ = build_elliptic(RunConfig(model="elliptic", nx=8, ny=8))
    iterations = ELLIPTIC_ITERATIONS.get(algorithm, 60)
    # unset step sizes resolve to DEFAULT_STEPS
    return run_chain(model, RunConfig(algorithm=algorithm, iterations=iterations,
                                      burn_in=iterations // 2, n_lag=5, seed=11))


RUNS = {"linear": linear_run, "elliptic": elliptic_run}
CASES = [(name, algorithm) for name in RUNS for algorithm in ALGORITHMS]


def _key(name, algorithm, field):
    return f"{name}/{algorithm}/{field}"


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as data:
        return dict(data)


def _assert_chain_matches(record, stored, name, algorithm):
    assert np.array_equal(record.accepts, stored[_key(name, algorithm, "accepts")])
    expected = stored[_key(name, algorithm, "samples")]
    assert record.samples.shape == expected.shape
    assert np.max(np.abs(record.samples - expected)) <= 1e-10


@pytest.mark.parametrize("name,algorithm", CASES)
def test_golden_run(golden, name, algorithm):
    record = RUNS[name](algorithm)
    _assert_chain_matches(record, golden, name, algorithm)
    assert np.array_equal(record.pde_solves, golden[_key(name, algorithm, "pde_solves")])


class DotPrior:
    """The prior factor with every apply through S.dot, the route below
    operators.SYMV_MIN_N, at any n."""

    def __init__(self, cov):
        self.n, self.S = cov.n, cov.S

    def sqrt_apply(self, x):
        return self.S.dot(x)


@pytest.fixture(scope="module")
def desk():
    model, extras = build_elliptic(RunConfig(model="elliptic"))
    assert model.n >= SYMV_MIN_N
    return model, extras["cov"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_desk_parity(desk, algorithm):
    # seed 1 leaves every kernel's start within 200 iterations; from seeds
    # 2 and 3 inf-mala accepts nothing and would compare only zeros
    model, cov = desk
    iterations = {"dr-inf-mmala": 60, "dr-inf-mhmc": 40}.get(algorithm, 200)
    config = RunConfig(algorithm=algorithm, iterations=iterations,
                       burn_in=iterations // 2, n_lag=5, seed=1)
    record = run_chain(model, config)
    model.cov = DotPrior(cov)
    try:
        reference = run_chain(model, config)
    finally:
        model.cov = cov
    assert record.accepts.any()
    assert np.array_equal(record.accepts, reference.accepts)
    assert np.array_equal(record.pde_solves, reference.pde_solves)
    assert np.max(np.abs(record.samples - reference.samples)) <= 1e-10


FIELDS = ("accepts", "pde_solves", "samples")
DUMP_FIELDS = FIELDS + ("potentials",)


def records():
    """(name, algorithm, record) of every golden chain, run in this tree."""
    for name, algorithm in CASES:
        yield name, algorithm, RUNS[name](algorithm)


def regenerate():
    arrays = {_key(name, algorithm, field): getattr(record, field)
              for name, algorithm, record in records() for field in FIELDS}
    DATA.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(DATA, **arrays)
    return arrays


def regenerate_solves():
    """Rewrite only the pde_solves arrays, after checking every chain's
    accepts and samples against the file; returns the old solve totals of
    the chains whose counts changed, keyed like the file."""
    with np.load(DATA) as data:
        arrays = dict(data)
    changed = {}
    for name, algorithm, record in records():
        _assert_chain_matches(record, arrays, name, algorithm)
        key = _key(name, algorithm, "pde_solves")
        if not np.array_equal(record.pde_solves, arrays[key]):
            changed[key] = int(arrays[key][-1])
        arrays[key] = record.pde_solves
    np.savez_compressed(DATA, **arrays)
    return changed, arrays


def _dump_arrays(record):
    """DUMP_FIELDS of a record, and for an adaptive chain its lis.json text."""
    arrays = {field: getattr(record, field) for field in DUMP_FIELDS}
    if "lis" in record.meta:
        arrays["lis"] = np.array(json.dumps(record.meta["lis"], indent=1))
    return arrays


def dump(path):
    np.savez_compressed(path, **{_key(name, algorithm, field): array
                                 for name, algorithm, record in records()
                                 for field, array in _dump_arrays(record).items()})


def _bit_identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare(path):
    """Print how each chain of this tree compares with a dump; True when
    every chain's accepts, solves and lis.json text equal the dump's."""
    with np.load(path) as data:
        ref = dict(data)
    all_equal = True
    for name, algorithm, record in records():
        mine = _dump_arrays(record)
        theirs = {field: ref.get(_key(name, algorithm, field)) for field in mine}
        accepts, solves = (np.array_equal(mine[f], theirs[f])
                           for f in ("accepts", "pde_solves"))
        samples, potentials = (_bit_identical(mine[f], theirs[f])
                               for f in ("samples", "potentials"))
        lis = str(mine.get("lis")) == str(theirs.get("lis"))
        gap = (np.max(np.abs(mine["samples"] - theirs["samples"]))
               if mine["samples"].shape == theirs["samples"].shape else np.inf)
        equal = {True: "equal ", False: "DIFFER"}
        bits = {True: "bit-identical", False: "differ       "}
        print(f"{name:9s}{algorithm:14s} accepts {equal[accepts]} solves {equal[solves]} "
              f"samples {bits[samples]} potentials {bits[potentials]} "
              f"max sample gap {gap:.1e}"
              + (f" lis {equal[lis].strip()}" if "lis" in mine else ""))
        all_equal = all_equal and accepts and solves and lis
    return all_equal


if __name__ == "__main__":
    args = sys.argv[1:]
    if not (args in ([], ["--solves-only"])
            or (len(args) == 2 and args[0] in ("--dump", "--compare"))):
        sys.exit("usage: test_golden.py [--solves-only | --dump PATH | --compare PATH]")
    if args[:1] == ["--dump"]:
        dump(args[1])
        print(f"wrote {args[1]}")
    elif args[:1] == ["--compare"]:
        sys.exit(0 if compare(args[1]) else "accepts, solves or lis.json differ")
    elif args == ["--solves-only"]:
        changed, arrays = regenerate_solves()
        for key, old in changed.items():
            print(f"{key:38s} solves {old} -> {int(arrays[key][-1])}")
        print(f"wrote {DATA}")
    else:
        arrays = regenerate()
        for name, algorithm in CASES:
            rate = arrays[_key(name, algorithm, "accepts")].mean()
            print(f"{name:9s}{algorithm:14s} accept rate {rate:.2f}")
        print(f"wrote {DATA}")
