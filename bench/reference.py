"""A fixed piece of work that tells how fast the box runs right now.

The box the benchmark was built on (a 2-vCPU guest on a shared host)
changes speed by up to 45% in spells of one to several minutes, and the
floor moves with it, so no estimator over one 55-s run can average the
spells out. The benchmark therefore times this reference next to every
piece of program work, and reports the program's time scaled to the
speed at which the reference takes ``REFERENCE_S`` seconds. The
reference's time does not depend on anything under ``src/``, so a change
to the program moves the scaled time as much as the raw one.

The reference mixes the kinds of work the program's time goes to: small
numpy expressions driven by the interpreter (the ``linear`` chains'
loop), small dense LAPACK calls (the eigensolver and proposal algebra),
a sparse LU and its solves on a 21x21 grid (the elliptic forward and
adjoint solves on ``desk``) and dense matrix products of that size (the
dense prior's square root). Each part takes about a quarter of the time.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The unit of every scaled time: about what one pass of the reference
# took on the box described in README.md. A fixed constant, so scaled
# times of two commits compare directly.
REFERENCE_S = 0.02


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20260815)
        self.a8 = rng.standard_normal((8, 8)) / 8.0
        self.x8 = rng.standard_normal(8)
        self.b84 = rng.standard_normal((8, 4))
        spd = rng.standard_normal((8, 8))
        self.s8 = spd @ spd.T + 8.0 * np.eye(8)
        side = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(21, 21))
        eye = sp.identity(21)
        self.lap = (sp.kron(side, eye) + sp.kron(eye, side) + 0.1 * sp.identity(441)).tocsc()
        self.rhs = rng.standard_normal(441)
        self.dense = rng.standard_normal((441, 441)) / 21.0
        self.block = rng.standard_normal((441, 8))

    def interpreter(self, loops=600):
        x = self.x8.copy()
        total = 0.0
        for i in range(loops):
            x = 0.5 * x + 0.1 * (self.a8 @ x) + 0.01 * i
            total += float(x @ x)
        return total

    def lapack(self, loops=80):
        total = 0.0
        for _ in range(loops):
            q, _ = np.linalg.qr(self.b84)
            w, _ = np.linalg.eigh(self.s8)
            total += float(np.linalg.solve(self.s8, self.x8)[0]) + w[0] + q[0, 0]
        return total

    def sparse(self, factors=3, solves=10):
        total = 0.0
        for _ in range(factors):
            lu = spla.splu(self.lap)
            for _ in range(solves):
                total += float(lu.solve(self.rhs)[0])
        return total

    def matmul(self, loops=24):
        total = 0.0
        for _ in range(loops):
            total += float((self.dense @ self.block)[0, 0])
        return total

    def seconds(self):
        """Time one pass of the whole reference."""
        t0 = time.perf_counter()
        self.interpreter()
        self.lapack()
        self.sparse()
        self.matmul()
        return time.perf_counter() - t0


class ScaledClock:
    """Times program work between two passes of the reference workload.

    Every timed piece of work is preceded and followed by one pass of
    ``Reference``, and its time is scaled by REFERENCE_S over the mean of
    those two passes: the time the work would take on the box at the speed
    at which the reference takes REFERENCE_S. See reference.py.
    """

    def __init__(self, reference, clock=time.perf_counter):
        self.reference = reference
        self.clock = clock
        self.last = reference.seconds()

    def time(self, work):
        """(result of work(), raw seconds, scaled seconds)."""
        t0 = self.clock()
        result = work()
        raw = self.clock() - t0
        after = self.reference.seconds()
        scaled = raw * REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        return result, raw, scaled
