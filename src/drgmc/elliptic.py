"""Steady elliptic inverse problem on the unit square.

Forward model: -div(exp(u) grad p) = f with homogeneous no-flux boundary,
discretized by vertex-centered five-point finite volumes with harmonic-mean
face transmissivities t. One edge-difference operator G, (G p)[e] =
p[a_e] - p[b_e], gives the stiffness G^T diag(t) G and the potential drops
G p. The Neumann nullspace is pinned by grounding node 0: a solve projects
its right-hand side onto zero sum and returns the zero-mean solution, i.e.
applies the stiffness pseudo-inverse. On the lexicographic node order the
grounded stiffness is SPD and banded with half-bandwidth kd = nx + 1 (edges
join nodes 1 and nx + 1 apart), so it is filled straight into LAPACK lower
band storage and factored by a banded Cholesky in its natural order. Point
observations are bilinear interpolants of p at 25 interior sensors, held
as one dense m x n observation matrix O: the readings O p, the adjoint
source O^T r and the Jacobian's sensor sources (the rows of O) all read it.

The potential is the Gaussian data misfit Phi(u) = 0.5 |y - O p(u)|^2 / sigma^2.
Its gradient comes from one adjoint solve against the exact discrete
system. Curvature comes from the m x n Jacobian J = O (dp/du) / sigma of
the m sensors: M = A^+ O^T costs one solve per sensor, once per state, and
the Gauss-Newton Hessian is J^T J. All solves reuse the factorization
cached at u, and a shared counter tallies every one so runs can report
PDE-solution counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

PLUME_CENTERS = np.array([(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)])
PLUME_WEIGHTS = np.array([2.0, -3.0, 3.0, -2.0])
PLUME_STD = 0.05


@dataclass(frozen=True)
class Mesh2D:
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("mesh must have at least 2 cells per side")

    @property
    def hx(self):
        return 1.0 / self.nx

    @property
    def hy(self):
        return 1.0 / self.ny

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def nodes(self):
        x = np.linspace(0.0, 1.0, self.nx + 1)
        y = np.linspace(0.0, 1.0, self.ny + 1)
        X, Y = np.meshgrid(x, y)  # lexicographic: x fastest, then y
        return np.column_stack([X.ravel(), Y.ravel()])

    def node_index(self, i, j):
        return j * (self.nx + 1) + i


def _edge_arrays(mesh):
    """Endpoint indices and geometric weights (face length / distance) per face."""
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    ea, eb, w = [], [], []
    for j in range(ny + 1):
        ly = hy if 0 < j < ny else hy / 2.0  # boundary control volumes are halved
        for i in range(nx):
            ea.append(mesh.node_index(i, j))
            eb.append(mesh.node_index(i + 1, j))
            w.append(ly / hx)
    for j in range(ny):
        for i in range(nx + 1):
            lx = hx if 0 < i < nx else hx / 2.0
            ea.append(mesh.node_index(i, j))
            eb.append(mesh.node_index(i, j + 1))
            w.append(lx / hy)
    return np.asarray(ea), np.asarray(eb), np.asarray(w, dtype=float)


def _cell_areas(mesh):
    wx = np.full(mesh.nx + 1, mesh.hx)
    wx[0] = wx[-1] = mesh.hx / 2.0
    wy = np.full(mesh.ny + 1, mesh.hy)
    wy[0] = wy[-1] = mesh.hy / 2.0
    return np.outer(wy, wx).ravel()


def build_forcing(mesh):
    """Four weighted Gaussian plumes, std 0.05; weights sum to zero."""
    pts = mesh.nodes
    f = np.zeros(mesh.n_nodes)
    norm = 1.0 / (2.0 * np.pi * PLUME_STD ** 2)
    for c, w in zip(PLUME_CENTERS, PLUME_WEIGHTS):
        d2 = ((pts - c) ** 2).sum(axis=1)
        f += w * norm * np.exp(-d2 / (2.0 * PLUME_STD ** 2))
    return f


def true_field(mesh):
    """Smooth-plus-bump log-conductivity, deliberately off the prior's sample class."""
    pts = mesh.nodes
    u = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    bump = np.linalg.norm(pts - np.array([0.7, 0.3]), axis=1) < 0.15
    return u + 0.5 * bump


def default_sensors():
    g = np.arange(1, 6) / 6.0
    X, Y = np.meshgrid(g, g)
    return np.column_stack([X.ravel(), Y.ravel()])


def _observation_matrix(mesh, sensors):
    """Dense m x n bilinear interpolation weights of the sensors."""
    sensors = np.asarray(sensors, dtype=float)
    O = np.zeros((len(sensors), mesh.n_nodes))
    for k, (x, y) in enumerate(sensors):
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise ValueError("sensors must be strictly interior to the unit square")
        i = min(int(x / mesh.hx), mesh.nx - 1)
        j = min(int(y / mesh.hy), mesh.ny - 1)
        tx = x / mesh.hx - i
        ty = y / mesh.hy - j
        for di, dj, wgt in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                            (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
            O[k, mesh.node_index(i + di, j + dj)] = wgt
    return O


class SolveCounter:
    """Counts linear solves with the grounded stiffness operator."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


@dataclass
class EllipticProblem:
    mesh: Mesh2D
    forcing: np.ndarray
    sensors: np.ndarray
    sigma_eta: float = 0.0
    y: np.ndarray | None = None
    solves: SolveCounter = field(default_factory=SolveCounter)

    def __post_init__(self):
        self.forcing = np.asarray(self.forcing, dtype=float)
        self.sensors = np.asarray(self.sensors, dtype=float)
        self._ea, self._eb, self._geow = _edge_arrays(self.mesh)
        # node x edge incidences: (_to_a @ x)[i] sums x over edges whose a-end is i
        ones, edges = np.ones(len(self._ea)), np.arange(len(self._ea))
        self._to_a = sp.csr_matrix((ones, (self._ea, edges)), shape=(self.n, edges.size))
        self._to_b = sp.csr_matrix((ones, (self._eb, edges)), shape=(self.n, edges.size))
        # LAPACK lower band storage of the grounded stiffness, (kd + 1) x
        # (n - 1), built as its C-ordered transpose: edge (a, b), a < b, not
        # touching node 0 puts -t at band row b - a of column a - 1
        self._kd = self.mesh.nx + 1
        self._inner = self._ea > 0
        self._band_at = ((self._ea[self._inner] - 1) * (self._kd + 1)
                         + (self._eb - self._ea)[self._inner])
        self.areas = _cell_areas(self.mesh)
        self.O = _observation_matrix(self.mesh, self.sensors)
        self.b = self.areas * self.forcing
        total = float(self.forcing @ self.areas)
        if abs(total) > 1e-6:
            raise ValueError("forcing must integrate to zero over the domain")

    @property
    def n(self):
        return self.mesh.n_nodes


def make_problem(mesh, sensors=None):
    sensors = default_sensors() if sensors is None else sensors
    return EllipticProblem(mesh=mesh, forcing=build_forcing(mesh), sensors=sensors)


class ForwardSolveResult:
    """Banded Cholesky factor chol of the grounded stiffness at u (LAPACK
    lower band storage, kd = nx + 1) with the forward solution p (zero mean,
    one counted solve), the per-edge transmissivities, their u-derivative
    coefficients and potential drops that the adjoint and Jacobian
    assemblies reuse, and the m x n Jacobian jac once formed."""

    __slots__ = ("p", "chol", "t", "ca", "cb", "dpe", "jac", "_problem")

    def __init__(self, chol, t, ca, cb, problem):
        self.chol = chol
        self.t = t
        self.ca = ca
        self.cb = cb
        self.jac = None
        self._problem = problem
        self.p = self.solve(problem.b)
        self.dpe = self.p[problem._ea] - self.p[problem._eb]  # G p, drop along each edge

    def solve(self, rhs):
        """Zero-mean pseudo-inverse solution for a nodal right-hand side, whose
        zero-sum projection is solved with node 0 grounded; counts one solve."""
        self._problem.solves.count += 1
        n = len(rhs)
        x = np.empty(n)
        x[0] = 0.0
        x[1:], _ = dpbtrs(self.chol, rhs[1:] - rhs.sum() / n, lower=1)
        x -= x.sum() / n
        return x


def assemble_and_solve(u, problem):
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        k = np.exp(u)
    if not np.all(np.isfinite(k)):
        raise FloatingPointError(
            "conductivity overflow: max u = %.3g" % float(np.max(u)))
    ea, eb, geow = problem._ea, problem._eb, problem._geow
    ka, kb = k[ea], k[eb]
    with np.errstate(over="ignore", invalid="ignore"):
        harm = 2.0 * ka * kb / (ka + kb)
    t = harm * geow
    if not np.all(np.isfinite(t)):
        raise FloatingPointError("transmissivity overflow in face averaging")
    n = problem.n
    band = np.zeros((n - 1, problem._kd + 1))
    band[:, 0] = (np.bincount(ea, t, n) + np.bincount(eb, t, n))[1:]
    band.flat[problem._band_at] = -t[problem._inner]
    chol, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info:
        # degenerate conductivity contrast: reject the state, not the run
        raise FloatingPointError(
            f"singular stiffness factorization: leading minor {info} is not positive")
    # dt/du at each endpoint, chain rule through the harmonic mean and exp(u)
    ca = t * kb / (ka + kb)
    cb = t * ka / (ka + kb)
    return ForwardSolveResult(chol, t, ca, cb, problem)


def observe(result, problem):
    return problem.O @ result.p


def generate_data(u_true, problem, snr, seed):
    """Observe the true field and add N(0, sigma^2 I) noise, sigma = max(u)/snr.

    snr = inf is the noiseless flag: y = O p(u_true) exactly and sigma_eta is
    left untouched. Records (y, sigma_eta) on the problem.
    """
    u_true = np.asarray(u_true, dtype=float)
    umax = float(np.max(u_true))
    if umax <= 0:
        raise ValueError("SNR undefined: max of the true field is not positive")
    g = observe(assemble_and_solve(u_true, problem), problem)
    if np.isinf(snr):
        problem.y = g.copy()
        return problem.y
    if snr <= 0:
        raise ValueError("snr must be positive")
    sigma = umax / snr
    rng = np.random.default_rng(seed)
    problem.sigma_eta = sigma
    problem.y = g + sigma * rng.standard_normal(len(g))
    return problem.y


def attach_data(problem, y, sigma_eta):
    """Install externally generated data (e.g. reused across meshes)."""
    if sigma_eta <= 0:
        raise ValueError("sigma_eta must be positive")
    problem.y = np.asarray(y, dtype=float)
    problem.sigma_eta = float(sigma_eta)


def potential(u, problem, result=None):
    if result is None:
        result = assemble_and_solve(u, problem)
    res = observe(result, problem) - problem.y
    return 0.5 * float(res @ res) / problem.sigma_eta ** 2


def _chain_rule_assemble(problem, result, q):
    """Entries -q^T (dA/du_k) p for a nodal vector q or for each column of an
    n x k block; shared by gradient and Jacobian. A vector's edge terms are
    scattered by bincount, a block's by the sparse incidences."""
    ea, eb = problem._ea, problem._eb
    if q.ndim == 1:
        s = result.dpe * (q[ea] - q[eb])
        return -(np.bincount(ea, result.ca * s, problem.n)
                 + np.bincount(eb, result.cb * s, problem.n))
    s = result.dpe[:, None] * (q.take(ea, axis=0) - q.take(eb, axis=0))
    return -(problem._to_a @ (result.ca[:, None] * s)
             + problem._to_b @ (result.cb[:, None] * s))


def gradient(u, problem, result=None):
    """grad Phi(u) via one adjoint solve against the cached factorization."""
    if result is None:
        result = assemble_and_solve(u, problem)
    res = observe(result, problem) - problem.y
    q = result.solve(problem.O.T @ (res / problem.sigma_eta ** 2))
    return _chain_rule_assemble(problem, result, q)


def jacobian(u, problem, result=None):
    """m x n Jacobian J = O (dp/du) / sigma of the sensor readings, formed
    from M = A^+ O^T (one solve per sensor) on the first request at u and
    cached on the result: A^+ is symmetric, so J[i, k] = -M[:, i]^T
    (dA/du_k) p / sigma."""
    if result is None:
        result = assemble_and_solve(u, problem)
    if result.jac is None:
        M = np.column_stack([result.solve(c) for c in problem.O])
        result.jac = (_chain_rule_assemble(problem, result, M) / problem.sigma_eta).T
    return result.jac


def gnh_action(u, w, problem, result=None):
    """Gauss-Newton Hessian J^T (J w) on a vector or an n x k block."""
    J = jacobian(u, problem, result)
    return J.T @ (J @ w)


class EllipticState:
    """Per-state cache: shares one factorization across Phi, gradient and
    Jacobian."""

    __slots__ = ("u", "_problem", "_result", "_phi", "_grad")

    def __init__(self, problem, u):
        self._problem = problem
        self.u = np.asarray(u, dtype=float)
        self._result = None
        self._phi = None
        self._grad = None

    @property
    def result(self):
        if self._result is None:
            self._result = assemble_and_solve(self.u, self._problem)
        return self._result

    @property
    def phi(self):
        if self._phi is None:
            self._phi = potential(self.u, self._problem, self.result)
        return self._phi

    @property
    def grad(self):
        if self._grad is None:
            self._grad = gradient(self.u, self._problem, self.result)
        return self._grad

    @property
    def jac(self):
        return jacobian(self.u, self._problem, self.result)


def make_state(problem, u):
    return EllipticState(problem, u)
