"""Steady elliptic inverse problem on the unit square.

Forward model: -div(exp(u) grad p) = f with homogeneous no-flux boundary,
discretized by vertex-centered five-point finite volumes with harmonic-mean
face transmissivities. The Neumann nullspace is pinned by a zero-mean
constraint imposed through a single Lagrange multiplier row/column. Point
observations are bilinear interpolants of p at 25 interior sensors.

The potential is the Gaussian data misfit Phi(u) = 0.5 |y - G(u)|^2 / sigma^2.
Its gradient comes from one adjoint solve against the exact discrete system,
and Gauss-Newton Hessian actions on a vector or an n x k block from one
tangent plus one adjoint solve per direction, all reusing the factorization
cached at u; edge-to-node scatters are products with incidence matrices
built once per problem. A shared counter tallies every linear solve so runs
can report PDE-solution counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    rows, cols, vals = [], [], []
    for k, (x, y) in enumerate(np.asarray(sensors, dtype=float)):
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise ValueError("sensors must be strictly interior to the unit square")
        i = min(int(x / mesh.hx), mesh.nx - 1)
        j = min(int(y / mesh.hy), mesh.ny - 1)
        tx = x / mesh.hx - i
        ty = y / mesh.hy - j
        for di, dj, wgt in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                            (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
            rows.append(k)
            cols.append(mesh.node_index(i + di, j + dj))
            vals.append(wgt)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(sensors), mesh.n_nodes))


def _incidence(ends, n):
    """n x E CSR matrix scattering edge values onto the given endpoint nodes."""
    m = len(ends)
    return sp.csr_matrix((np.ones(m), (ends, np.arange(m))), shape=(n, m))


class SolveCounter:
    """Counts linear solves with the (augmented) stiffness operator."""

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
        # node x edge incidence: (_to_a @ x)[i] sums x over edges whose a-end is i
        self._to_a = _incidence(self._ea, self.n)
        self._to_b = _incidence(self._eb, self.n)
        self.areas = _cell_areas(self.mesh)
        self.O = _observation_matrix(self.mesh, self.sensors)
        self._OT = self.O.T.tocsr()
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
    """Solution p (zero mean) plus the factorized constrained system at u.

    Caches the per-edge transmissivities and their u-derivative coefficients
    so adjoint, tangent and Hessian assemblies reuse them.
    """

    __slots__ = ("p", "lu", "t", "ca", "cb", "dpe", "_problem")

    def __init__(self, p, lu, t, ca, cb, dpe, problem):
        self.p = p
        self.lu = lu
        self.t = t
        self.ca = ca
        self.cb = cb
        self.dpe = dpe
        self._problem = problem

    def solve(self, rhs):
        """Solve the augmented system for a nodal right-hand side; counts one solve."""
        prob = self._problem
        prob.solves.count += 1
        aug = self.lu.solve(np.concatenate([rhs, [0.0]]))
        return aug[:-1]


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
    rows = np.concatenate([ea, eb, ea, eb])
    cols = np.concatenate([ea, eb, eb, ea])
    vals = np.concatenate([t, t, -t, -t])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    c = np.full((n, 1), 1.0 / n)
    aug = sp.bmat([[A, sp.csc_matrix(c)], [sp.csc_matrix(c.T), None]], format="csc")
    try:
        lu = spla.splu(aug)
    except RuntimeError as exc:
        # degenerate conductivity contrast: reject the state, not the run
        raise FloatingPointError(f"singular stiffness factorization: {exc}") from exc
    # dt/du at each endpoint, chain rule through the harmonic mean and exp(u)
    ca = t * kb / (ka + kb)
    cb = t * ka / (ka + kb)
    res = ForwardSolveResult(p=None, lu=lu, t=t, ca=ca, cb=cb, dpe=None,
                             problem=problem)
    p = res.solve(problem.b)
    p = p - p.mean()
    res.p = p
    res.dpe = p[ea] - p[eb]
    return res


def observe(result, problem):
    return problem.O @ result.p


def generate_data(u_true, problem, snr, seed):
    """Observe the true field and add N(0, sigma^2 I) noise, sigma = max(u)/snr.

    snr = inf is the noiseless flag: y = G(u_true) exactly and sigma_eta is
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
    n x k block; shared by gradient and GNH."""
    Q = q.reshape(problem.n, -1)
    s = result.dpe[:, None] * (Q[problem._ea] - Q[problem._eb])
    return -(problem._to_a @ (result.ca[:, None] * s)
             + problem._to_b @ (result.cb[:, None] * s)).reshape(q.shape)


def gradient(u, problem, result=None):
    """grad Phi(u) via one adjoint solve against the cached factorization."""
    if result is None:
        result = assemble_and_solve(u, problem)
    res = observe(result, problem) - problem.y
    q = result.solve(problem._OT @ (res / problem.sigma_eta ** 2))
    return _chain_rule_assemble(problem, result, q)


def gnh_action(u, w, problem, result=None):
    """Gauss-Newton Hessian action on a vector or on each column of an n x k
    block: one tangent and one adjoint solve per direction at u."""
    if result is None:
        result = assemble_and_solve(u, problem)
    w = np.asarray(w, dtype=float)
    W = w.reshape(problem.n, -1)
    flux = result.dpe[:, None] * (result.ca[:, None] * W[problem._ea]
                                  + result.cb[:, None] * W[problem._eb])
    r = problem._to_a @ flux - problem._to_b @ flux
    pdot = np.column_stack([result.solve(-c) for c in r.T])
    rhs = problem._OT @ (problem.O @ pdot / problem.sigma_eta ** 2)
    qdot = np.column_stack([result.solve(c) for c in rhs.T])
    return _chain_rule_assemble(problem, result, qdot).reshape(w.shape)


class EllipticState:
    """Per-state cache: shares one factorization across Phi, gradient, GNH."""

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

    def gnh_action(self, w):
        return gnh_action(self.u, w, self._problem, self.result)


def make_state(problem, u):
    return EllipticState(problem, u)
