"""Steady elliptic inverse problem on the unit square.

Forward model: -div(exp(u) grad p) = f with homogeneous no-flux boundary,
discretized by vertex-centered five-point finite volumes with harmonic-mean
face transmissivities t. One edge-difference operator G, (G p)[e] =
p[a_e] - p[b_e], gives the stiffness G^T diag(t) G and the potential drops
G p. The Neumann nullspace is pinned by grounding node 0: a solve projects
its right-hand side onto zero sum and returns the zero-mean solution, i.e.
applies the stiffness pseudo-inverse. On the lexicographic node order the
grounded stiffness is SPD and banded with half-bandwidth kd = nx + 1 (edges
join nodes 1 and nx + 1 apart). Its LAPACK lower band storage is filled by
slices, the x-faces at offset 1 and the y-faces at offset kd in the order
_edge_arrays lists them, and factored by a banded Cholesky. Point
observations are bilinear interpolants of p at 25 interior sensors, held
as one dense m x n observation matrix O: the readings O p, the adjoint
source O^T r and the Jacobian's sensor sources (the rows of O) all read it.

The model state at u is one object, the ForwardSolveResult that
assemble_and_solve(u, problem) returns with p solved. Its phi is the data
misfit Phi(u) = 0.5 |y - O p(u)|^2 / sigma^2 (+inf when O p - y
overflows), its grad takes one adjoint solve, and its jac, the m x n
Jacobian J = O (dp/du) / sigma of the m sensors, one solve per sensor
(M = A^+ O^T); the Gauss-Newton Hessian is J^T J. Each, and the chain-rule
inputs only grad and jac read, is formed on its first read, so a pcn state
pays for assembly, one factorization, one solve and phi. Every solve reuses
the state's factorization; problem.solves.count tallies them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

PLUME_CENTERS = np.array([(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)])
PLUME_WEIGHTS = np.array([2.0, -3.0, 3.0, -2.0])
PLUME_STD = 0.05
_sum = np.add.reduce  # what ndarray.sum reduces with, without its Python wrapper


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


def _widths(n, h):
    """Control-volume widths of n + 1 nodes along one axis: h inside, h/2 at both ends."""
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


def _edge_arrays(mesh):
    """Endpoint indices and geometric weights (face length / distance) per
    face: x-faces row by row, then y-faces."""
    nx, ny, hx, hy = mesh.nx, mesh.ny, mesh.hx, mesh.hy
    node = np.arange(mesh.n_nodes).reshape(ny + 1, nx + 1)
    ea = np.concatenate([node[:, :-1].ravel(), node[:-1].ravel()])
    eb = np.concatenate([node[:, 1:].ravel(), node[1:].ravel()])
    w = np.concatenate([np.repeat(_widths(ny, hy) / hx, nx), np.tile(_widths(nx, hx) / hy, ny)])
    return ea, eb, w


def _cell_areas(mesh):
    return np.outer(_widths(mesh.ny, mesh.hy), _widths(mesh.nx, mesh.hx)).ravel()


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
    if not np.all((0.0 < sensors) & (sensors < 1.0)):
        raise ValueError("sensors must be strictly interior to the unit square")
    x, y = sensors[:, 0] / mesh.hx, sensors[:, 1] / mesh.hy
    i = np.minimum(x.astype(int), mesh.nx - 1)
    j = np.minimum(y.astype(int), mesh.ny - 1)
    tx, ty = x - i, y - j
    O = np.zeros((len(sensors), mesh.n_nodes))
    rows = np.arange(len(sensors))
    for di, dj, wgt in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                        (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
        O[rows, mesh.node_index(i + di, j + dj)] = wgt
    return O


@dataclass
class EllipticProblem:
    mesh: Mesh2D
    forcing: np.ndarray
    sensors: np.ndarray
    sigma_eta: float = 0.0
    y: np.ndarray | None = None
    solves: SimpleNamespace = field(default_factory=lambda: SimpleNamespace(count=0))

    def __post_init__(self):
        self.forcing = np.asarray(self.forcing, dtype=float)
        self.sensors = np.asarray(self.sensors, dtype=float)
        self._ea, self._eb, self._geow = _edge_arrays(self.mesh)
        # node x edge incidences: (_to_a @ x)[i] sums x over edges whose a-end is i
        ones, edges = np.ones(len(self._ea)), np.arange(len(self._ea))
        self._to_a = sp.csr_matrix((ones, (self._ea, edges)), shape=(self.n, edges.size))
        self._to_b = sp.csr_matrix((ones, (self._eb, edges)), shape=(self.n, edges.size))
        self._kd = self.mesh.nx + 1  # half-bandwidth of the lexicographic stiffness
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
    """The model state at u: the banded Cholesky factor chol of the grounded
    stiffness (LAPACK lower band storage, kd = nx + 1), the zero-mean forward
    solution p and the per-edge transmissivities t. The residual O p - y
    that phi and grad share, phi, the chain-rule inputs, grad and jac are
    each formed on first read, so a state does only the passes its kernel reads."""

    __slots__ = ("u", "p", "chol", "t", "problem", "_k", "_rule", "_res",
                 "_phi", "_grad", "_jac")

    def __init__(self, u, chol, t, k, problem):
        # k: (ka, kb, ka + kb), the conductivities at each edge's two ends
        self.u, self.chol, self.t, self._k, self.problem = u, chol, t, k, problem
        self._rule = self._res = self._phi = self._grad = self._jac = None
        self.p = self.solve(problem.b)

    def solve(self, rhs):
        """Zero-mean pseudo-inverse solution for a nodal right-hand side, whose
        zero-sum projection is solved with node 0 grounded; counts one solve."""
        self.problem.solves.count += 1
        n = len(rhs)
        x = np.empty(n)
        x[0] = 0.0
        x[1:], _ = dpbtrs(self.chol, rhs[1:] - _sum(rhs) / n, lower=1)
        x -= _sum(x) / n
        return x

    @property
    def residual(self):
        if self._res is None:
            self._res = self.problem.O.dot(self.p) - self.problem.y
        return self._res

    @property
    def phi(self):
        if self._phi is None:
            with np.errstate(over="ignore", invalid="ignore"):
                res = self.residual
                phi = 0.5 * float(res.dot(res)) / self.problem.sigma_eta ** 2
            # an overflowing residual reads inf, or nan where inf - inf met
            self._phi = phi if phi < math.inf else math.inf
        return self._phi

    @property
    def chain_rule(self):
        """(ca, cb, dpe): dt/du at each edge's two ends, through the harmonic
        mean and exp(u), and the drop G p along each edge."""
        if self._rule is None:
            ka, kb, ksum = self._k
            self._rule = (self.t * kb / ksum, self.t * ka / ksum,
                          self.p[self.problem._ea] - self.p[self.problem._eb])
        return self._rule

    @property
    def grad(self):
        if self._grad is None:  # gradient, jacobian: module globals, wrappers see each call
            self._grad = gradient(self)
        return self._grad

    @property
    def jac(self):
        if self._jac is None:
            self._jac = jacobian(self)
        return self._jac


def assemble_and_solve(u, problem):
    u = np.asarray(u, dtype=float)
    ea, eb, n, kd = problem._ea, problem._eb, problem.n, problem._kd
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.exp(u)
        ka, kb = k[ea], k[eb]
        ksum = ka + kb
        t = 2.0 * ka * kb / ksum * problem._geow  # harmonic mean x face length / distance
    if not np.isfinite(t).all():  # a non-finite k makes every face of its node nan
        if not np.isfinite(k).all():
            raise FloatingPointError("conductivity overflow: max u = %.3g" % float(np.max(u)))
        raise FloatingPointError("transmissivity overflow in face averaging")
    # LAPACK lower band storage as its C-ordered transpose, one row per
    # node: the diagonal, -t of the x-faces at offset 1 (a row's last node
    # has none) and of the y-faces at offset kd; node 0's row is grounded away
    band = np.zeros((n, kd + 1))
    band[:, 0] = np.bincount(ea, t, n) + np.bincount(eb, t, n)
    n_xfaces = (problem.mesh.ny + 1) * (kd - 1)
    band.reshape(-1, kd, kd + 1)[:, :-1, 1] = -t[:n_xfaces].reshape(-1, kd - 1)
    band[:-kd, kd] = -t[n_xfaces:]
    chol, info = dpbtrf(band[1:].T, lower=1, overwrite_ab=1)
    if info:
        # degenerate conductivity contrast: reject the state, not the run
        raise FloatingPointError(
            f"singular stiffness factorization: leading minor {info} is not positive")
    return ForwardSolveResult(u, chol, t, (ka, kb, ksum), problem)


def generate_data(u_true, problem, snr, seed):
    """Observe the true field and add N(0, sigma^2 I) noise, sigma = max(u)/snr.

    snr = inf is the noiseless flag: y = O p(u_true) exactly and sigma_eta =
    inf, which switches the likelihood off (phi and grad are 0). Installs (y,
    sigma_eta) on the problem through attach_data.
    """
    u_true = np.asarray(u_true, dtype=float)
    umax = float(np.max(u_true))
    if umax <= 0:
        raise ValueError("SNR undefined: max of the true field is not positive")
    if not snr > 0:
        raise ValueError("snr must be positive")
    g = problem.O @ assemble_and_solve(u_true, problem).p
    if np.isinf(snr):
        attach_data(problem, g, float("inf"))
    else:
        noise = np.random.default_rng(seed).standard_normal(len(g))
        attach_data(problem, g + (umax / snr) * noise, umax / snr)
    return problem.y


def attach_data(problem, y, sigma_eta):
    """Install externally generated data (e.g. reused across meshes)."""
    if not sigma_eta > 0:  # also refuses nan
        raise ValueError(f"sigma_eta must be positive, got {sigma_eta!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != (len(problem.sensors),):
        raise ValueError(f"y must hold one reading per sensor, got shape {y.shape}")
    problem.y = y
    problem.sigma_eta = float(sigma_eta)


def _chain_rule_assemble(problem, state, q):
    """Entries -q^T (dA/du_k) p for a nodal vector q or for each column of an
    n x k block; shared by gradient and Jacobian. A vector's edge terms are
    scattered by bincount, a block's by the sparse incidences."""
    ea, eb = problem._ea, problem._eb
    ca, cb, dpe = state.chain_rule
    if q.ndim == 1:
        s = dpe * (q[ea] - q[eb])
        return -(np.bincount(ea, ca * s, problem.n) + np.bincount(eb, cb * s, problem.n))
    s = dpe[:, None] * (q.take(ea, axis=0) - q.take(eb, axis=0))
    return -(problem._to_a @ (ca[:, None] * s) + problem._to_b @ (cb[:, None] * s))


def gradient(state):
    """grad Phi(u) via one adjoint solve against the state's factorization;
    an overflow raises FloatingPointError, as in assembly (a chain's ERROR)."""
    problem = state.problem
    with np.errstate(over="raise", invalid="raise"):
        q = state.solve(problem.O.T.dot(state.residual / problem.sigma_eta ** 2))
        return _chain_rule_assemble(problem, state, q)


def jacobian(state):
    """m x n Jacobian J = O (dp/du) / sigma of the sensor readings, formed
    from M = A^+ O^T, one solve per sensor: A^+ is symmetric, so J[i, k] =
    -M[:, i]^T (dA/du_k) p / sigma."""
    problem = state.problem
    M = np.column_stack([state.solve(c) for c in problem.O])
    return (_chain_rule_assemble(problem, state, M) / problem.sigma_eta).T


def gnh_action(state, w):
    """Gauss-Newton Hessian J^T (J w) on a vector or an n x k block."""
    J = state.jac
    return J.T @ (J @ w)
