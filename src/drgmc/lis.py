"""Likelihood-informed subspace estimation and its online adaptation.

A global basis is accumulated from local spectra of the whitened
Gauss-Newton Hessian collected along the chain, each exact from the m x m
Gram eigenproblem of the state's whitened Jacobian. Each update merges the
running estimate (weight m) with the newest local spectrum (weight 1) in the
coordinates of one Householder QR of both bases, re-diagonalizes, and keeps
the descending eigenvalues >= threshold, the cut local spectra also make.
The Forstner distance between consecutive operators I + V Lambda V^T comes
from the same coordinates; adaptation stops once the distance stalls, the
update budget is exhausted or burn-in ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dsyevd

from .operators import (NUMERICAL_ERRORS, LowRankSpectrum, forstner_pencil,
                        householder_frame)
from .operators import randomized_eig  # noqa: F401  bench/layers.py wraps it here


def local_spectrum(jv, rank, threshold=None):
    """Leading eigenpairs of the whitened Gauss-Newton Hessian Jv^T Jv, exact
    from the m x m Gram matrix Jv Jv^T of the m x n whitened Jacobian jv: its
    eigenvalues, clipped at 0, and as basis the orthonormal QR factor of
    Jv^T U for its leading eigenvectors U. At most rank pairs are kept (and
    at most min(m, n)), none with an eigenvalue below threshold when one is
    given. The basis matches Jv's right singular vectors up to column signs,
    and it stays orthonormal where Jv is zero or rank-deficient.
    """
    r = min(rank, *jv.shape)
    w, u, info = dsyevd(jv @ jv.T)
    if info or not np.isfinite(w).all():
        raise np.linalg.LinAlgError("Gram eigenproblem of the Jacobian failed")
    lam = np.maximum(w[::-1][:r], 0.0)
    if threshold is not None:
        r = int(np.count_nonzero(lam >= threshold))
        lam = lam[:r]
    basis, _ = householder_frame(jv.T @ u[:, ::-1][:, :r])
    return LowRankSpectrum._unchecked(lam, basis)


@dataclass(frozen=True)
class LISState:
    """Running global subspace estimate: m local spectra merged, last d_F,
    whether adaptation stopped, the (m, r, d_F) trail, failed updates."""

    spectrum: LowRankSpectrum
    m: int = 0
    d_f: float = float("inf")
    frozen: bool = False
    history: tuple = ()
    errors: int = 0

    @property
    def r(self):
        return self.spectrum.r


def _merge_spectra(running, m, local, threshold):
    """(m * running + local)/(m + 1) re-diagonalized and cut at threshold,
    and d_F from running to it, in the coordinates R of one Householder QR
    [V_run, V_loc] = Q R; Q spans both bases even if the stack is rank-
    deficient or wider than tall, its extra directions at eigenvalue 0."""
    frame, R = householder_frame(np.hstack([running.basis, local.basis]))
    r_a, r_b = R[:, :running.r], R[:, running.r:]
    mid = (r_a * (m * running.eigenvalues)) @ r_a.T + (r_b * local.eigenvalues) @ r_b.T
    mid = (mid + mid.T) / (2.0 * (m + 1))
    lam, w = np.linalg.eigh(mid)
    lam, w = lam[::-1], w[:, ::-1]
    if lam.size and lam[-1] < -1e-10:
        raise np.linalg.LinAlgError("merged curvature operator lost positivity")
    r = int(np.count_nonzero(lam >= threshold))  # all kept are >= threshold > 0
    d_f = forstner_pencil(r_a, running.eigenvalues, w[:, :r], lam[:r])
    return LowRankSpectrum._unchecked(lam[:r], frame @ w[:, :r]), d_f


def update_lis(state, local_spec, threshold):
    """Merge one local spectrum into the running estimate, cut at threshold;
    returns the new state with m, d_F and the history advanced."""
    merged, d_f = _merge_spectra(state.spectrum, state.m, local_spec, threshold)
    m = state.m + 1
    hist = state.history + ((m, merged.r, d_f),)
    return replace(state, spectrum=merged, m=m, d_f=d_f, history=hist)


def adaptation_step(it, state, config, local_spec_fn):
    """The state after iteration it (0-based) of a chain run with config.
    Every n_lag burn-in iterations local_spec_fn() is merged in; an update
    that raises a numerical error is counted and changes nothing else. The
    subspace freezes once m_max is spent, d_F < delta_lis or burn-in ends."""
    if state.frozen or it >= config.burn_in:
        return state
    if (it + 1) % config.n_lag == 0:
        try:  # called as a module global: bench/layers.py wraps lis.update_lis
            state = update_lis(state, local_spec_fn(), config.threshold)
        except NUMERICAL_ERRORS:
            state = replace(state, errors=state.errors + 1)
    if (state.m >= config.m_max or state.d_f < config.delta_lis
            or it + 1 == config.burn_in):
        state = replace(state, frozen=True)
    return state
