"""Dense, from-first-principles reference computations used as oracles.

Everything here is built on explicit matrices and brute-force Gaussian
transition densities. Nothing but the two test-only helpers at the end
imports the package's reduced-form algebra, so agreement between these
oracles and the package is a real check and not a tautology.
"""

import numpy as np

from drgmc.acceptance import dr_mmala_log_ratio
from drgmc.proposals import DiliOperators


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


# Test-only reduced forms, built on the package's algebra and not oracles:
# no chain runs them, and criteria 07, 08 and 10 check the package against
# them.

def dili_log_ratio(v, v_prime, spec_v, grad_v, grad_vp, phi_v, phi_vp,
                   params, spec_vp=None):
    """Ratio for the operator-form proposal: the DR ratio minus its
    determinant correction, which cancels entirely when the spectrum is a
    fixed global one (spec_vp omitted)."""
    svp = spec_v if spec_vp is None else spec_vp
    base = dr_mmala_log_ratio(v, v_prime, spec_v, svp, grad_v, grad_vp,
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
