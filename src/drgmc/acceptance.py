"""Metropolis-Hastings log ratios for the whitened kernels.

The low-rank structure collapses every determinant and quadratic form onto
the r-dimensional subspace, so no n x n solve appears here. For a proposal
v' = rho0 v + rho1 ghat(v) + rho2 Khat(v)^{1/2} xi define the innovation
w* = (v' - rho0 v)/rho2. The proposal density relative to the prior-reversible
reference kernel is

    log lambda(w*; v) = -1/2 |(sqrt(h)/2) D^{1/2} g_r(v) - D^{-1/2} V^T w*|^2
                        + 1/2 |V^T w*|^2 - 1/2 log det D_r

plus, when gamma_perp = 1 adds the complement drift -(I - VV^T) grad Phi,

    -(h/8) |g_perp|^2 - (sqrt(h)/2) <g_perp, w*_perp>,  g_perp = (I - VV^T) grad Phi.

The acceptance ratio is then [Phi(v) - Phi(v')] + log lambda(w*_rev; v')
- log lambda(w*_fwd; v).
"""

from __future__ import annotations

import math

import numpy as np

from .proposals import reduced_ngrad


def decide(log_ratio, rng):
    """Accept iff log u < min(0, log_ratio) for one draw u in (0, 1]. Every
    call makes the draw; a NaN ratio compares false, so it is rejected."""
    log_u = math.log(1.0 - rng.random())  # u in (0, 1], so log_u is finite
    return log_u < 0.0 and log_u < float(log_ratio)


def pcn_log_ratio(phi_old, phi_new):
    return float(phi_old - phi_new)


def _perp_log_lambda(grad, w_star, spec, h):
    gp = grad - spec.lift(spec.project(grad))
    wp = w_star - spec.lift(spec.project(w_star))
    return -(h / 8.0) * float(gp @ gp) - (math.sqrt(h) / 2.0) * float(gp @ wp)


def log_lambda(v, grad, spec, w_star, params):
    """log lambda(w*; v) of the position-v proposal density."""
    cw = spec.project(w_star)
    gr = reduced_ngrad(v, grad, spec, params.gamma_r)
    sqrt_d = spec.sqrt_D
    resid = (math.sqrt(params.h) / 2.0) * sqrt_d * gr - cw / sqrt_d
    val = -0.5 * float(resid @ resid) + 0.5 * float(cw @ cw) - 0.5 * spec.logdet_D
    if params.gamma_perp:
        val += _perp_log_lambda(grad, w_star, spec, params.h)
    return val


def inf_mala_log_ratio(v, v_prime, grad_v, grad_vp, phi_v, phi_vp, params):
    """Langevin ratio: log kappa(v', v) - log kappa(v, v') with

    log kappa(v, v') = -Phi(v) - (h/8)|grad Phi(v)|^2
                       - (sqrt(h)/2) <grad Phi(v), w*(v, v')>.
    """
    rho0, rho2, h = params.rho0, params.rho2, params.h
    w_fwd = (v_prime - rho0 * v) / rho2
    w_rev = (v - rho0 * v_prime) / rho2
    sh = math.sqrt(h) / 2.0
    fwd = -phi_v - (h / 8.0) * float(grad_v @ grad_v) - sh * float(grad_v @ w_fwd)
    rev = -phi_vp - (h / 8.0) * float(grad_vp @ grad_vp) - sh * float(grad_vp @ w_rev)
    return float(rev - fwd)


def dr_mmala_log_ratio(v, v_prime, spec_v, spec_vp, grad_v, grad_vp,
                       phi_v, phi_vp, params):
    rho0, rho2 = params.rho0, params.rho2
    w_fwd = (v_prime - rho0 * v) / rho2
    w_rev = (v - rho0 * v_prime) / rho2
    fwd = -phi_v + log_lambda(v, grad_v, spec_v, w_fwd, params)
    rev = -phi_vp + log_lambda(v_prime, grad_vp, spec_vp, w_rev, params)
    return float(rev - fwd)


def dili_exact_log_ratio(v, v_prime, spec, grad_v, grad_vp, phi_v, phi_vp, ops):
    """Density ratio of the operator-form proposal with arbitrary diagonal
    operators (A, B, G) on the subspace and a prior-reversible complement
    (a_perp^2 + b_perp^2 = 1). Agrees with the DR ratio minus its
    determinant correction (dili_log_ratio in tests/_dense_reference.py)
    whenever the operators come from the autoregressive substitution."""
    if abs(ops.a_perp ** 2 + ops.b_perp ** 2 - 1.0) > 1e-10:
        raise ValueError("complement parameters are not prior-reversible")
    z, zp = spec.project(v), spec.project(v_prime)
    if spec.r == 0:
        return pcn_log_ratio(phi_v, phi_vp)
    uses_grad = bool(np.any(np.asarray(ops.D_Gr) != 0.0))
    if uses_grad and (grad_v is None or grad_vp is None):
        raise ValueError("gradient-weighted operators need both gradients")
    cg = ops.D_Gr * spec.project(grad_v) if uses_grad else 0.0
    cgp = ops.D_Gr * spec.project(grad_vp) if uses_grad else 0.0
    fwd = (zp - (ops.D_Ar * z - cg)) / ops.D_Br
    rev = (z - (ops.D_Ar * zp - cgp)) / ops.D_Br
    return (float(phi_v - phi_vp) + 0.5 * float(z @ z) - 0.5 * float(zp @ zp)
            - 0.5 * float(rev @ rev) + 0.5 * float(fwd @ fwd))


def dr_mhmc_delta_E(trajectory, phi_0, phi_I):
    """Energy difference across a recorded leapfrog path.

    Delta E = Phi(v_I) - Phi(v_0)
              + 1/2 |Lambda^{1/2}(v_I) V^T(v_I) vt_I|^2 - 1/2 |...(v_0) vt_0|^2
              + 1/2 log det D(v_I) - 1/2 log det D(v_0)
              - (eps^2/8) (|ghat_I|^2 - |ghat_0|^2)
              + (eps/2) sum_i [<ghat, vt>_i + <ghat, vt>_{i+1}]

    with ghat_i the drift applied at v_i. For orthonormal V its parts
    V D g_r and c = -gamma_perp (I - VV^T) grad Phi are orthogonal, so these
    are the subspace terms in D g_r plus the complement terms in c. Returns
    +inf for diverged trajectories so they are always rejected.
    """
    if trajectory.diverged:
        return float("inf")
    specs, vts, ghats = trajectory.specs, trajectory.vts, trajectory.ghats
    eps = trajectory.eps
    s0, sI = specs[0], specs[-1]
    c0, cI = s0.project(vts[0]), sI.project(vts[-1])
    quad = 0.5 * float(cI @ (sI.eigenvalues * cI)) - 0.5 * float(c0 @ (s0.eigenvalues * c0))
    logdet = 0.5 * sI.logdet_D - 0.5 * s0.logdet_D
    kin = -(eps ** 2 / 8.0) * (float(ghats[-1] @ ghats[-1]) - float(ghats[0] @ ghats[0]))
    dots = [float(g @ vt) for g, vt in zip(ghats, vts)]
    cross = (eps / 2.0) * (sum(dots[:-1]) + sum(dots[1:]))
    return float(phi_I - phi_0) + quad + logdet + kin + cross
