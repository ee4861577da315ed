"""Dense, from-first-principles reference computations used as oracles.

Everything here is built on explicit matrices and brute-force Gaussian
transition densities. Nothing but the test-only helpers at the end
imports the package's reduced-form algebra, so agreement between these
oracles and the package is a real check and not a tautology.
"""

import math
from dataclasses import dataclass

import numpy as np

from drgmc.acceptance import dr_mmala_log_ratio
from drgmc.linear_model import make_state
from drgmc.operators import CovarianceOperator, LowRankSpectrum, apply_sqrtK_hat
from drgmc.proposals import (DiliOperators, StepParams, dili_propose,
                             dr_mhmc_propose, dr_mmala_propose, reduced_ngrad,
                             whitened_ngrad)


def rho_params(h):
    rho0 = (1.0 - h / 4.0) / (1.0 + h / 4.0)
    return rho0, 1.0 - rho0, np.sqrt(1.0 - rho0 * rho0)


def dense_K(V, lam, n):
    """GAP covariance I + V ((1+lam)^-1 - 1) V^T as an explicit matrix."""
    K = np.eye(n)
    if len(lam):
        K += V @ np.diag(1.0 / (1.0 + lam) - 1.0) @ V.T
    return K


def dense_sqrtK(V, lam, n):
    K = np.eye(n)
    if len(lam):
        K += V @ np.diag(1.0 / np.sqrt(1.0 + lam) - 1.0) @ V.T
    return K


def dense_invK(V, lam, n):
    K = np.eye(n)
    if len(lam):
        K += V @ np.diag(lam) @ V.T
    return K


def dense_ghat(v, grad, V, lam, gamma_r, gamma_perp):
    """Natural gradient V D (Lam V^T v - gamma_r V^T grad) - gamma_perp (I-VV^T) grad."""
    n = len(v)
    out = np.zeros(n)
    if len(lam):
        D = 1.0 / (1.0 + lam)
        g_r = lam * (V.T @ v) - gamma_r * (V.T @ grad)
        out += V @ (D * g_r)
    if gamma_perp:
        out -= grad - (V @ (V.T @ grad) if len(lam) else 0.0)
    return out


def gaussian_logpdf(x, mean, cov):
    d = x - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (d @ np.linalg.solve(cov, d)) - 0.5 * logdet - 0.5 * len(x) * np.log(2 * np.pi)


def mh_log_ratio(v, v_prime, phi_v, phi_vp, mean_fwd, cov_fwd, mean_rev, cov_rev):
    """Brute-force Metropolis-Hastings log ratio for a Gaussian proposal.

    Target density on whitened coordinates: exp(-0.5|v|^2 - Phi(v)).
    """
    log_target = (-0.5 * v_prime @ v_prime - phi_vp) - (-0.5 * v @ v - phi_v)
    log_q = gaussian_logpdf(v, mean_rev, cov_rev) - gaussian_logpdf(v_prime, mean_fwd, cov_fwd)
    return log_target + log_q


def dr_mmala_mean_cov(v, grad, V, lam, h, gamma_r, gamma_perp):
    """Proposal moments: mean rho0 v + rho1 ghat, covariance rho2^2 Khat."""
    n = len(v)
    rho0, rho1, rho2 = rho_params(h)
    mean = rho0 * v + rho1 * dense_ghat(v, grad, V, lam, gamma_r, gamma_perp)
    return mean, rho2 ** 2 * dense_K(V, lam, n)


def inf_mala_mean_cov(v, grad, h):
    rho0, _, rho2 = rho_params(h)
    mean = rho0 * v - rho2 * (np.sqrt(h) / 2.0) * grad
    return mean, rho2 ** 2 * np.eye(len(v))


def dili_mean_cov(v, grad, V, ops):
    """Operator-split proposal moments from explicit diagonal factors."""
    n = len(v)
    P = V @ V.T if V.shape[1] else np.zeros((n, n))
    A = ops.a_perp * (np.eye(n) - P)
    B2 = ops.b_perp ** 2 * (np.eye(n) - P)
    if V.shape[1]:
        A += V @ np.diag(ops.D_Ar) @ V.T
        B2 += V @ np.diag(ops.D_Br ** 2) @ V.T
    mean = A @ v
    if V.shape[1] and grad is not None and np.any(ops.D_Gr):
        mean -= V @ (ops.D_Gr * (V.T @ grad))
    return mean, B2


def dili_unnormalized_log_ratio(v, v_prime, phi_v, phi_vp, mean_fwd, cov_fwd,
                                mean_rev, cov_rev):
    """MH ratio with the proposal normalization constants dropped.

    This is the operator-form acceptance a position-independent analysis
    yields; with position-specific covariances it differs from the exact
    ratio by the determinant term.
    """
    log_target = (-0.5 * v_prime @ v_prime - phi_vp) - (-0.5 * v @ v - phi_v)
    d_rev = v - mean_rev
    d_fwd = v_prime - mean_fwd
    log_q = (-0.5 * d_rev @ np.linalg.solve(cov_rev, d_rev)
             + 0.5 * d_fwd @ np.linalg.solve(cov_fwd, d_fwd))
    return log_target + log_q


def hmc_total_energy(v, vt, phi, V, lam):
    """H(v, vt) = Phi + 0.5|v|^2 + 0.5 <vt, Khat^{-1} vt> for a fixed spectrum."""
    n = len(v)
    quad = vt @ dense_invK(V, lam, n) @ vt
    return phi + 0.5 * v @ v + 0.5 * quad


def dense_leapfrog_path(v, vt, grad_drift, eps, n_steps):
    """Reference integrator: half kick, rotation by matrix product, half kick."""
    R = np.array([[np.cos(eps), np.sin(eps)], [-np.sin(eps), np.cos(eps)]])
    vs = [v.copy()]
    vts = [vt.copy()]
    for _ in range(n_steps):
        vt = vt + 0.5 * eps * grad_drift(v)
        stacked = np.stack([v, vt])
        stacked = R @ stacked
        v, vt = stacked[0], stacked[1]
        vt = vt + 0.5 * eps * grad_drift(v)
        vs.append(v.copy())
        vts.append(vt.copy())
    return vs, vts


def split_delta_E(trajectory, phi_0, phi_I, grad_fn, gamma_r, gamma_perp):
    """Energy difference of a recorded leapfrog path in its split form.

    The subspace terms use D g_r = D (Lam V^T v - gamma_r V^T grad) and
    V^T vt; when gamma_perp = 1 the complement terms add
    c = -(I - VV^T) grad and (I - VV^T) vt. Both are recomputed at every
    recorded state from its spectrum and grad_fn, not read from the drift
    the integrator applied.
    """
    vs, vts, specs = trajectory.vs, trajectory.vts, trajectory.specs
    eps = trajectory.eps
    kin, dots = [], []
    for v, vt, spec in zip(vs, vts, specs):
        V, lam = spectrum_arrays(spec)
        grad = grad_fn(v)
        dg = (lam * (V.T @ v) - gamma_r * (V.T @ grad)) / (1.0 + lam)
        cvt = V.T @ vt
        k, d = dg @ dg, dg @ cvt
        if gamma_perp:
            c = -(grad - V @ (V.T @ grad))
            k, d = k + c @ c, d + c @ (vt - V @ cvt)
        kin.append(k)
        dots.append(d)
    (V0, lam0), (VI, lamI) = spectrum_arrays(specs[0]), spectrum_arrays(specs[-1])
    c0, cI = V0.T @ vts[0], VI.T @ vts[-1]
    quad = 0.5 * cI @ (lamI * cI) - 0.5 * c0 @ (lam0 * c0)
    logdet = 0.5 * np.log1p(lam0).sum() - 0.5 * np.log1p(lamI).sum()
    cross = sum(dots[i] + dots[i + 1] for i in range(len(dots) - 1))
    return (phi_I - phi_0 + quad + logdet - (eps ** 2 / 8.0) * (kin[-1] - kin[0])
            + (eps / 2.0) * cross)


def forstner_dense(A, B):
    """sqrt(sum log^2 gamma) over generalized eigenvalues of (A, B)."""
    from scipy.linalg import eigh
    gam = eigh(A, B, eigvals_only=True)
    gam = np.clip(gam, 1e-300, None)
    return float(np.sqrt(np.sum(np.log(gam) ** 2)))


def analytic_gaussian_posterior(A, Sigma, C, y):
    """Conjugate linear-Gaussian posterior, written out directly."""
    Ci = np.linalg.inv(C)
    Si = np.linalg.inv(Sigma)
    cov = np.linalg.inv(Ci + A.T @ Si @ A)
    mean = cov @ (A.T @ (Si @ y))
    return mean, cov


def spectrum_arrays(spec):
    """Pull (V, lam) out of a package spectrum without using its methods."""
    return np.asarray(spec.basis), np.asarray(spec.eigenvalues)


def ess_reference(series):
    """Per-series ESS, one FFT and one Python pass of Geyer's initial
    monotone sequence per call: N / (1 + 2 sum rho_k), capped at N, and
    0.0 for a constant or non-finite series."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if not np.isfinite(x).all() or np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n] / n
    rho = acov / acov[0]
    terms = []
    for t in range(n // 2):
        gamma = rho[2 * t] + rho[2 * t + 1]
        if gamma <= 0.0:
            break
        if terms and gamma > terms[-1]:
            gamma = terms[-1]
        terms.append(gamma)
    tau = -1.0 + 2.0 * sum(terms)
    if tau <= 0.0:
        return float(n)
    return float(min(n, n / tau))


# Test-only reduced forms and checks, built on the package's algebra and
# not oracles: no chain runs them, and criteria 03, 07, 08 and 10 check the
# package against them.

def reduced(v, grad, spec, params):
    """(g_r, g_perp) of v on spec as a chain state forms them: reduced_ngrad
    of the projections, and the complement gradient grad - V V^T grad when
    gamma_perp = 1 (None otherwise). grad may be None when no flag is set."""
    cg = spec.project(grad) if params.gamma_r or params.gamma_perp else None
    g_perp = grad - spec.lift(cg) if params.gamma_perp else None
    return reduced_ngrad(spec.project(v), cg, spec, params.gamma_r), g_perp


def drift(v, grad, spec, params):
    """ghat(v) on spec: whitened_ngrad of reduced(v, grad, spec, params)."""
    return whitened_ngrad(*reduced(v, grad, spec, params), spec, params.gamma_perp)


def drift_fn(grad_fn, params):
    """The Hamiltonian proposals' drift_fn(v, spec) for a whitened gradient
    function, which it calls only when a gamma flag is set."""
    reads_grad = params.gamma_r or params.gamma_perp
    return lambda v, spec: drift(v, grad_fn(v) if reads_grad else None, spec, params)


def dili_coords(v, grad, spec, ops):
    """(V^T v, V^T grad) as the DILI proposal and ratio take them, V^T grad
    None when the operators do not weight the gradient or grad is None."""
    uses = ops.uses_grad and grad is not None
    return spec.project(v), spec.project(grad) if uses else None


def dili_log_ratio(v, v_prime, spec_v, grad_v, grad_vp, phi_v, phi_vp,
                   params, spec_vp=None):
    """Ratio for the operator-form proposal: the DR ratio minus its
    determinant correction, which cancels entirely when the spectrum is a
    fixed global one (spec_vp omitted)."""
    svp = spec_v if spec_vp is None else spec_vp
    base = dr_mmala_log_ratio(v, v_prime, spec_v, svp,
                              reduced(v, grad_v, spec_v, params),
                              reduced(v_prime, grad_vp, svp, params),
                              phi_v, phi_vp, params)
    corr = 0.5 * float(np.sum(np.log(spec_v.D))) - 0.5 * float(np.sum(np.log(svp.D)))
    return float(base - corr)


def dili_connection_operators(spec, params):
    """Parameter substitution under which DILI reproduces the DR proposal:

    D_Ar = I - rho1 D, D_Br = rho2 sqrt(D), D_Gr = rho1 D gamma_r,
    a_perp = rho0, b_perp = rho2.
    """
    D = spec.D
    return DiliOperators(1.0 - params.rho1 * D,
                         params.rho2 * np.sqrt(D),
                         params.rho1 * D * float(params.gamma_r),
                         params.rho0, params.rho2)


# Randomized check of the proposal-difference bounds (criterion 07), on the
# package's proposals against dense reference operators.

@dataclass
class BoundReport:
    rows: list
    violations: list

    @property
    def n_violations(self):
        return len(self.violations)


def _tail_coefficients(lam_tail):
    """State and noise coefficients of the truncation-error bound."""
    c_v = lam_tail / (lam_tail + 1.0)
    c_xi = lam_tail / (lam_tail + 1.0 + math.sqrt(lam_tail + 1.0))
    return c_v, c_xi


def _dense_whitened(model):
    s = model.prior.S
    h_w = s @ (model._jac.T @ model._jac) @ s
    h_w = (h_w + h_w.T) / 2.0
    lam, vecs = np.linalg.eigh(h_w)
    lam, vecs = np.clip(lam[::-1], 0.0, None), vecs[:, ::-1]
    return h_w, LowRankSpectrum(lam, vecs)


def bound_report(model, ranks=None, trials=200, h=0.8, seed=0, n_leapfrog=3):
    """Randomized check of the three proposal-difference bounds on a
    linear-Gaussian model (dense reference operators).

    1. reduced vs full manifold Langevin, both gamma_perp settings;
    2. reduced vs operator-form proposal with a perturbed diagonal K_r,
       both gamma_perp settings (identical complement drift on both sides);
    3. reduced vs full Hamiltonian path, gamma_perp = 1. The big-O constant
       is instantiated by a per-step error recursion: kicks amplify the
       state gap by the drift Lipschitz constant and add the truncation
       error of the drift, rotations are isometries.

    Each trial asserts LHS <= RHS + 1e-9; offenders are serialized into the
    report for debugging.
    """
    rng = np.random.default_rng(seed)
    h_w, full_spec = _dense_whitened(model)
    n = model.n
    s = model.prior.S
    if ranks is None:
        ranks = list(range(1, n))
    rows, violations = [], []

    def grad_v(v):
        return s @ make_state(model, s @ v).grad

    def record(bound, gp, r, lhs, rhs, state):
        slack = rhs + 1e-9 - lhs
        row = {"bound": bound, "gamma_perp": gp, "r": r,
               "lhs": float(lhs), "rhs": float(rhs), "slack": float(slack)}
        rows.append(row)
        if slack < 0.0:
            violations.append({**row, "state": state})

    for _ in range(trials):
        r = int(rng.choice(ranks))
        spec_r = LowRankSpectrum(full_spec.eigenvalues[:r], full_spec.basis[:, :r])
        lam_tail = full_spec.eigenvalues[r] if r < n else 0.0
        c_v, c_xi = _tail_coefficients(lam_tail)
        v = rng.standard_normal(n)
        xi = rng.standard_normal(n)
        g = grad_v(v)
        nv, ng, nxi = np.linalg.norm(v), np.linalg.norm(g), np.linalg.norm(xi)
        state = {"v": v.tolist(), "xi": xi.tolist(), "r": r}

        full_params = StepParams(h=h, gamma_r=1, gamma_perp=0)
        vp_full = dr_mmala_propose(v, drift(v, g, full_spec, full_params),
                                   full_spec, full_params, xi)
        for gp in (0, 1):
            params = StepParams(h=h, gamma_r=1, gamma_perp=gp)
            vp_dr = dr_mmala_propose(v, drift(v, g, spec_r, params), spec_r, params, xi)
            lhs = np.linalg.norm(vp_dr - vp_full)
            if gp:
                rhs = params.rho1 * c_v * (nv + ng) + params.rho2 * c_xi * nxi
            else:
                rhs = params.rho1 * (c_v * nv + ng) + params.rho2 * c_xi * nxi
            record("dr_vs_full", gp, r, lhs, rhs, state)

        k_diag = spec_r.D * np.exp(rng.uniform(-0.5, 0.5, size=spec_r.r))
        for gp in (0, 1):
            params = StepParams(h=h, gamma_r=1, gamma_perp=gp)
            vp_dr = dr_mmala_propose(v, drift(v, g, spec_r, params), spec_r, params, xi)
            ops = DiliOperators(1.0 - params.rho1 * k_diag,
                                params.rho2 * np.sqrt(k_diag),
                                params.rho1 * k_diag,
                                params.rho0, params.rho2)
            vp_dili = dili_propose(v, *dili_coords(v, g, spec_r, ops), spec_r, ops, xi)
            if gp:
                g_perp = g - spec_r.lift(spec_r.project(g))
                vp_dili = vp_dili - params.rho1 * g_perp
            lhs = np.linalg.norm(vp_dr - vp_dili)
            rhs = (params.rho1 * np.max(np.abs(spec_r.D - k_diag)) * (nv + ng)
                   + params.rho2 * np.max(np.abs(np.sqrt(spec_r.D) - np.sqrt(k_diag))) * nxi)
            record("dr_vs_dili", gp, r, lhs, rhs, state)

        hmc = _hmc_bound_trial(v, xi, grad_v, h_w, spec_r, full_spec,
                               c_v, c_xi, h, n_leapfrog)
        if hmc is not None:
            record("dr_vs_full_hmc", 1, r, hmc[0], hmc[1], state)

    return BoundReport(rows=rows, violations=violations)


def _hmc_bound_trial(v, xi, grad_v, h_w, spec_r, full_spec, c_v, c_xi, h, n_steps):
    params_dr = StepParams(h=h, gamma_r=1, gamma_perp=1)
    params_full = StepParams(h=h, gamma_r=1, gamma_perp=0)
    out_dr = dr_mhmc_propose(v, spec_r, params_dr, drift_fn(grad_v, params_dr),
                             apply_sqrtK_hat(xi, spec_r), n_steps)
    out_full = dr_mhmc_propose(v, full_spec, params_full, drift_fn(grad_v, params_full),
                               apply_sqrtK_hat(xi, full_spec), n_steps)
    if out_dr.diverged or out_full.diverged:
        return None
    lhs = np.linalg.norm(out_dr.v_prime - out_full.v_prime)

    # With gamma_perp = 1 the reduced drift is ghat(v) = (I - Khat)v - Khat
    # grad Phi(v); for the linear model grad Phi is affine, so the drift's
    # Lipschitz constant is the spectral norm of (I - Khat) - Khat H_w.
    n = len(v)
    k_hat = np.eye(n) + (spec_r.basis * (spec_r.D - 1.0)) @ spec_r.basis.T
    lip = np.linalg.norm((np.eye(n) - k_hat) - k_hat @ h_w, 2)

    eps = params_dr.eps
    kick = 1.0 + eps * lip / 2.0
    amp = kick ** 2
    # Momentum mismatch of the shared-noise draws enters as an initial gap.
    err = c_xi * np.linalg.norm(xi)
    traj = out_full.trajectory
    deltas = [c_v * (np.linalg.norm(traj.vs[i]) + np.linalg.norm(grad_v(traj.vs[i])))
              for i in range(len(traj.vs))]
    for i in range(n_steps):
        err = amp * err + (eps / 2.0) * (kick * deltas[i] + deltas[i + 1])
    return lhs, err


def apply_K_hat(v, spec):
    """(I + V_r (D_r - I_r) V_r^T) v, the Woodbury form of (I + V L V^T)^{-1}."""
    if spec.r == 0:
        return np.array(v, dtype=float, copy=True)
    c = spec.project(v)
    return v + spec.lift((spec.D - 1.0) * c)


def broadcast_prior_covariance(nodes, sigma_u, s_0):
    """Exponential-kernel prior built from an n x n x 2 broadcast difference
    array, fresh n x n temporaries and C0 + jitter I on every escalation
    step: the build that operators.build_prior_covariance replaced, kept so
    that its in-place rewrite can be held to the same S bit for bit."""
    pts = np.asarray(nodes, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = (diff ** 2).sum(axis=-1)
    n = len(pts)
    if (dist2 + np.eye(n)).min() <= 0:
        raise ValueError("prior nodes must be distinct")
    C0 = sigma_u ** 2 * np.exp(-np.sqrt(dist2) / (2.0 * s_0))
    jitter = 1e-10 * sigma_u ** 2
    while True:
        try:
            return CovarianceOperator(C0 + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-6 * sigma_u ** 2 * (1 + 1e-12):
                raise ValueError("ill-conditioned kernel: jitter escalation exhausted")


def loop_edge_arrays(mesh):
    """Endpoint indices and geometric weights per face, one face at a time:
    the loop that elliptic._edge_arrays replaced."""
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


def loop_cell_areas(mesh):
    """Control-volume areas node by node, h inside and h/2 on each boundary."""
    area = np.empty(mesh.n_nodes)
    for j in range(mesh.ny + 1):
        ly = mesh.hy if 0 < j < mesh.ny else mesh.hy / 2.0
        for i in range(mesh.nx + 1):
            lx = mesh.hx if 0 < i < mesh.nx else mesh.hx / 2.0
            area[mesh.node_index(i, j)] = ly * lx
    return area


def loop_observation_matrix(mesh, sensors):
    """Bilinear interpolation weights sensor by sensor: the loop that
    elliptic._observation_matrix replaced."""
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
