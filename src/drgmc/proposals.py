"""Proposal kernels in whitened coordinates.

All kernels operate on v = C^{-1/2} u, where the prior is a standard
Gaussian. Each maps its noise (and leapfrog count) to a candidate; the
chain draws them. The autoregressive parameters derive from a step size h:

    rho0 = rho = (1 - h/4)/(1 + h/4),  rho1 = 1 - rho,  rho2 = sqrt(1 - rho^2)

so that rho0^2 + rho2^2 = 1 and rho2 * sqrt(h)/2 = rho1. Low-rank curvature
enters through a LowRankSpectrum of the whitened Gauss-Newton Hessian; the
reduced natural gradient is

    g_r(v) = Lambda_r V_r^T v - gamma_r V_r^T grad Phi(v)
    ghat(v) = V_r D_r g_r(v)  [- (I - V_r V_r^T) grad Phi(v) when gamma_perp = 1]

with D_r = (I + Lambda_r)^{-1}. The DR and DILI proposals take ghat, or the
projections V_r^T v and V_r^T grad Phi, from the caller; a chain forms
them once per state and spectrum in chain._values (with reduced_ngrad and
whitened_ngrad) and chain._projected. Hamiltonian kernels use the splitting
whose drift-free flow is an exact rotation of (v, vtilde) by the angle eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import apply_sqrtK_hat

DIVERGENCE_THRESHOLD = 1e6  # |v| beyond this flags a diverged trajectory


@dataclass(frozen=True)
class StepParams:
    h: float
    gamma_r: int
    gamma_perp: int
    eps: float | None = None
    rho0: float = field(init=False)
    rho1: float = field(init=False)
    rho2: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:  # NaN fails it too
            raise ValueError("step size h must be positive and finite")
        if self.gamma_r not in (0, 1) or self.gamma_perp not in (0, 1):
            raise ValueError("gamma flags must be 0 or 1")
        if self.eps is None:
            object.__setattr__(self, "eps", math.sqrt(self.h))
        elif not 0.0 < self.eps < math.inf:
            raise ValueError("leapfrog step eps must be positive and finite")
        rho0 = (1.0 - self.h / 4.0) / (1.0 + self.h / 4.0)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "rho1", 1.0 - rho0)
        object.__setattr__(self, "rho2", math.sqrt(1.0 - rho0 ** 2))


@dataclass
class Trajectory:
    """Leapfrog path: states, boundary momenta, spectra and drifts.

    Everything the energy-difference formula needs is recorded per step
    boundary: the state v_i, the momentum vt_i, the spectrum in force at v_i
    and the drift ghat(v_i) that the integrator applied there.
    """

    eps: float
    vs: list = field(default_factory=list)
    vts: list = field(default_factory=list)
    specs: list = field(default_factory=list)
    ghats: list = field(default_factory=list)
    diverged: bool = False


@dataclass
class ProposalOutput:  # a Hamiltonian proposal's end point and path
    v_prime: np.ndarray
    trajectory: Trajectory
    diverged: bool


def pcn_propose(v, params, xi):
    return params.rho0 * v + params.rho2 * xi


def inf_mala_propose(v, grad, params, xi):
    vt = xi - (math.sqrt(params.h) / 2.0) * grad
    return params.rho0 * v + params.rho2 * vt


def reduced_ngrad(cv, cg, spec, gamma_r):
    """g_r = Lambda_r cv - gamma_r cg from cv = V_r^T v and cg = V_r^T grad
    (None when gamma_r = 0)."""
    gr = spec.eigenvalues * cv
    if gamma_r:
        gr = gr - cg
    return gr


def whitened_ngrad(gr, g_perp, spec, gamma_perp):
    """ghat = V_r D_r g_r - gamma_perp g_perp, with the complement gradient
    g_perp = grad - V_r V_r^T grad (None when gamma_perp = 0)."""
    ghat = spec.lift(spec.D * gr)
    if gamma_perp:
        ghat = ghat - g_perp
    return ghat


def dr_mmala_propose(v, ghat, spec, params, xi):
    """v' = rho0 v + rho1 ghat(v) + rho2 Khat^{1/2} xi."""
    return params.rho0 * v + params.rho1 * ghat + params.rho2 * apply_sqrtK_hat(xi, spec)


@dataclass(frozen=True)
class DiliOperators:
    """Diagonal operators (A, B, G) on the LIS and the complement pair
    (a_perp, b_perp), refused unless a_perp^2 + b_perp^2 = 1 (a prior-
    reversible complement). uses_grad: whether G weights the gradient."""

    D_Ar: np.ndarray
    D_Br: np.ndarray
    D_Gr: np.ndarray
    a_perp: float
    b_perp: float
    uses_grad: bool = field(init=False)

    def __post_init__(self):
        if not abs(self.a_perp ** 2 + self.b_perp ** 2 - 1.0) <= 1e-10:  # NaN fails it too
            raise ValueError("complement parameters are not prior-reversible")
        object.__setattr__(self, "uses_grad", bool(np.any(np.asarray(self.D_Gr) != 0.0)))

    def grad_step(self, cg):
        """G V^T grad in subspace coordinates from cg = V^T grad, 0.0 when
        G is zero."""
        if not self.uses_grad:
            return 0.0
        if cg is None:
            raise ValueError("gradient-weighted operators need the gradient")
        return self.D_Gr * cg


def dili_operators(spec, h_r, h_perp, gamma_r):
    """Operator diagonals of the likelihood-informed proposal.

    D_Ar = (I - h D) + (2I + h D)^{-1} h^2 D^2 (1 - gamma_r)
    D_Br = sqrt((2I + h D)^{-2} 8 h D (1 - gamma_r) + 2 h D gamma_r)
    D_Gr = h D gamma_r,  a_perp = (2 - h_perp)/(2 + h_perp),
    b_perp = sqrt(8 h_perp)/(2 + h_perp).
    """
    if not (0.0 < h_r < math.inf and 0.0 < h_perp < math.inf):  # NaN fails it too
        raise ValueError("DILI step sizes must be positive and finite")
    D = spec.D
    hD = h_r * D
    D_Ar = (1.0 - hD) + hD ** 2 * (1.0 - gamma_r) / (2.0 + hD)
    D_Br = np.sqrt(8.0 * hD * (1.0 - gamma_r) / (2.0 + hD) ** 2 + 2.0 * hD * gamma_r)
    D_Gr = hD * float(gamma_r)
    a_perp = (2.0 - h_perp) / (2.0 + h_perp)
    b_perp = math.sqrt(8.0 * h_perp) / (2.0 + h_perp)
    return DiliOperators(D_Ar, D_Br, np.asarray(D_Gr), a_perp, b_perp)


def dili_propose(v, cv, cg, spec, ops, xi):
    """v' = A v - G grad + B xi, split between the LIS and its complement;
    cv = V^T v and cg = V^T grad (None when G is zero)."""
    cxi = spec.project(xi)
    v_prime = (ops.a_perp * (v - spec.lift(cv)) + spec.lift(ops.D_Ar * cv)
               + ops.b_perp * (xi - spec.lift(cxi)) + spec.lift(ops.D_Br * cxi))
    if ops.uses_grad:
        v_prime = v_prime - spec.lift(ops.grad_step(cg))
    return v_prime


def dr_mhmc_propose(v, spec, params, drift_fn, vt, n_steps, spec_fn=None):
    """n_steps leapfrog steps of size params.eps with low-rank curvature
    from (v, vt).

    The caller draws the initial momentum vt from Khat(v_0), as
    Khat(v_0)^{1/2} xi, and gives the drift: drift_fn(v, spec) is ghat(v)
    on spec. The drift at each state uses the spectrum in force there:
    fixed global spectrum when spec_fn is None, refreshed at every leapfrog
    state otherwise. Records the whole path so the energy difference can be
    assembled afterwards.
    """
    eps = params.eps
    traj = Trajectory(eps)
    cur_spec, ghat = spec, drift_fn(v, spec)

    c, s = math.cos(eps), math.sin(eps)
    for step in range(n_steps + 1):
        traj.vs.append(v)
        traj.vts.append(vt)
        traj.specs.append(cur_spec)
        traj.ghats.append(ghat)
        if step == n_steps:
            break
        vt_half = vt + (eps / 2.0) * ghat
        v, vt_rot = c * v + s * vt_half, -s * v + c * vt_half
        if not math.sqrt(v.dot(v)) <= DIVERGENCE_THRESHOLD:  # NaN and inf fail it too
            traj.diverged = True
            break
        if spec_fn is not None:
            cur_spec = spec_fn(v)
        ghat = drift_fn(v, cur_spec)
        vt = vt_rot + (eps / 2.0) * ghat

    return ProposalOutput(traj.vs[-1], traj, traj.diverged)


def inf_hmc_propose(v, params, drift_fn, vt, n_steps, flat):
    """Hamiltonian proposal with identity mass: the empty spectrum flat, on
    which drift_fn gives the full drift -grad Phi (gamma_r = 0,
    gamma_perp = 1)."""
    return dr_mhmc_propose(v, flat, params, drift_fn, vt, n_steps)
