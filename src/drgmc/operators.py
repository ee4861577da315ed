"""Structured linear operators for function-space sampling.

Dense prior covariances with self-adjoint square roots, whitening maps,
randomized partial (generalized) eigendecomposition, Woodbury-form low-rank
covariance actions, and the Forstner distance between SPD operators of the
form I + V diag(lam) V^T.

Conventions: fields are flat float64 arrays, the inner product is plain
Euclidean on nodal coefficients, low-rank bases are column-orthonormal.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg as sla


class CovarianceOperator:
    """Dense SPD covariance with a cached symmetric factor S, S @ S = C.

    The factor is built from a symmetric eigendecomposition so that C^{1/2}
    is self-adjoint (a triangular factor would not be).
    """

    def __init__(self, C):
        C = np.asarray(C, dtype=float)
        scale = np.abs(C).max()
        if scale > 0 and np.abs(C - C.T).max() > 1e-12 * scale:
            raise ValueError("covariance matrix is not symmetric")
        w, Q = np.linalg.eigh(C)
        if w.min() <= 0:
            raise ValueError("covariance matrix is not positive definite")
        self.C = C
        self.n = C.shape[0]
        self._eigvals = w
        self._eigvecs = Q
        self.S = (Q * np.sqrt(w)) @ Q.T
        self.S_inv = (Q * (1.0 / np.sqrt(w))) @ Q.T

    def apply(self, x):
        return self.C @ x

    def solve(self, x):
        w = self._eigvecs.T @ x
        w = (w.T / self._eigvals).T  # divide along the eigen index for blocks too
        return self._eigvecs @ w

    def sqrt_apply(self, x):
        return self.S @ x

    def sqrt_solve(self, x):
        return self.S_inv @ x


def build_prior_covariance(nodes, sigma_u, s_0):
    """Exponential-kernel prior covariance with escalating diagonal jitter.

    Jitter starts at 1e-10 sigma_u^2 and escalates tenfold up to 1e-6 sigma_u^2
    until a Cholesky factorization succeeds; beyond that the kernel is
    reported ill-conditioned.
    """
    if sigma_u <= 0 or s_0 <= 0:
        raise ValueError("sigma_u and s_0 must be positive")
    pts = np.asarray(nodes, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = (diff ** 2).sum(axis=-1)
    n = len(pts)
    off = dist2 + np.eye(n)
    if off.min() <= 0:
        raise ValueError("prior nodes must be distinct")
    C0 = sigma_u ** 2 * np.exp(-np.sqrt(dist2) / (2.0 * s_0))
    jitter = 1e-10 * sigma_u ** 2
    while True:
        C = C0 + jitter * np.eye(n)
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-6 * sigma_u ** 2 * (1 + 1e-12):
                raise ValueError("ill-conditioned kernel: jitter escalation exhausted")
            continue
        return CovarianceOperator(C)


def sample_prior(cov, seed):
    """Draw u = S z with z standard normal, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return cov.S @ rng.standard_normal(cov.n)


def whiten(u, cov):
    return cov.S_inv @ u


def unwhiten(v, cov):
    return cov.S @ v


class LowRankSpectrum:
    """Rank-r spectral factor: eigenvalues lam (descending, >= 0) and basis V.

    metric records the inner product in which V is orthonormal: "identity"
    for whitened coordinates, "covariance" for generalized (C^{-1}-weighted)
    bases carried in unwhitened coordinates.
    """

    __slots__ = ("r", "eigenvalues", "basis", "metric")

    def __init__(self, eigenvalues, basis, metric="identity"):
        lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        V = np.asarray(basis, dtype=float)
        if V.ndim != 2 or V.shape[1] != lam.shape[0]:
            raise ValueError("basis must be n x r matching eigenvalue count")
        if lam.size and np.any(np.diff(lam) > 1e-12):
            raise ValueError("eigenvalues must be non-increasing")
        if lam.size and lam.min() < -1e-10:
            raise ValueError("negative eigenvalue in PSD spectrum")
        self.r = int(lam.shape[0])
        self.eigenvalues = np.maximum(lam, 0.0)
        self.basis = V
        self.metric = metric

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def D(self):
        # D_r = (I_r + Lambda_r)^{-1}, the projected posterior-covariance surrogate
        return 1.0 / (1.0 + self.eigenvalues)

    def project(self, x):
        return self.basis.T @ x

    def lift(self, c):
        return self.basis @ c

    def truncate(self, r=None, threshold=None):
        keep = self.r
        if r is not None:
            keep = min(keep, int(r))
        if threshold is not None:
            keep = min(keep, int(np.sum(self.eigenvalues >= threshold)))
        return LowRankSpectrum(self.eigenvalues[:keep], self.basis[:, :keep], self.metric)

    def to_json(self):
        """Schema: {r, eigenvalues: [...], basis: row-major nested array, metric}."""
        return json.dumps({
            "r": self.r,
            "eigenvalues": self.eigenvalues.tolist(),
            "basis": self.basis.tolist(),
            "metric": self.metric,
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        spec = cls(np.asarray(doc["eigenvalues"]), np.asarray(doc["basis"]),
                   metric=doc["metric"])
        if spec.r != doc["r"]:
            raise ValueError("rank field inconsistent with eigenvalue count")
        return spec

    @classmethod
    def empty(cls, n, metric="identity"):
        return cls(np.zeros(0), np.zeros((n, 0)), metric)


def _orthonormalize(M, rel_tol=1e-12):
    """Orthonormal basis of the column span, rank-revealing via SVD."""
    if M.shape[1] == 0:
        return M
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return U[:, :0]
    return U[:, s > rel_tol * s[0]]


def randomized_eig(apply_A, n, r, p=5, q=2, rng=None, probe=None):
    """Randomized partial eigendecomposition of a symmetric PSD action.

    Block Krylov subspace built from q power iterations of an (r+p)-column
    Gaussian probe, followed by Nystrom extraction (the plain Rayleigh-Ritz
    subspace iteration is an order of magnitude less accurate at equal q on
    i^{-2}-type spectra). Exact to roundoff for actions of rank <= r.

    apply_A must be a block action: given an n x k array it returns the
    n x k array of its column images. It is called once per block, at most
    q + 2 times in all. A result of any other shape raises ValueError, and
    exceptions raised by apply_A propagate unchanged. Non-symmetric actions
    are rejected by a Galerkin symmetry test.
    """
    if r < 0 or r > n:
        raise ValueError("rank r must lie in [0, n]")
    if r == 0:
        return LowRankSpectrum.empty(n)
    k = min(r + p, n)
    if probe is None:
        if rng is None:
            rng = np.random.default_rng(0)
        probe = rng.standard_normal((n, k))
    else:
        probe = np.asarray(probe, dtype=float)
        if probe.shape != (n, k):
            raise ValueError("probe block must be n x (r+p)")

    def apply_block(B):
        out = np.asarray(apply_A(B), dtype=float)
        if out.shape != B.shape:
            raise ValueError(f"block action mapped a {B.shape} block to shape "
                             f"{out.shape}; apply_A must take n x k blocks")
        return out

    Y = apply_block(probe)
    blocks = [Y]
    for _ in range(q):
        Yo = _orthonormalize(Y)
        if Yo.shape[1] == 0:
            break
        Y = apply_block(Yo)
        blocks.append(Y)
    Q = _orthonormalize(np.hstack(blocks))
    if Q.shape[1] == 0:
        # null operator
        V = _orthonormalize(probe)[:, :r]
        return LowRankSpectrum(np.zeros(V.shape[1]), V)
    AQ = apply_block(Q)
    T = Q.T @ AQ
    scale = np.abs(T).max()
    if scale > 0 and np.abs(T - T.T).max() > 1e-8 * scale:
        raise ValueError("operator action is not symmetric")
    T = 0.5 * (T + T.T)
    if scale == 0.0:
        V = Q[:, :r] if Q.shape[1] >= r else _orthonormalize(probe)[:, :r]
        return LowRankSpectrum(np.zeros(V.shape[1]), V)
    # Nystrom extraction: A ~= (AQ) T^+ (AQ)^T, shifted for stable Cholesky
    nu = np.finfo(float).eps * scale * max(T.shape[0], 1)
    L = np.linalg.cholesky(T + nu * np.eye(T.shape[0]))
    F = sla.solve_triangular(L, AQ.T, lower=True).T
    U, s, _ = np.linalg.svd(F, full_matrices=False)
    lam = np.maximum(s ** 2 - nu, 0.0)
    take = min(r, lam.size)
    return LowRankSpectrum(lam[:take], U[:, :take])


def generalized_eig(apply_H, cov, r, p=5, q=2, rng=None, probe=None):
    """Leading eigenpairs of H u = lam C^{-1} u via the whitened action.

    Runs randomized_eig on w -> S H(S w); the returned basis is orthonormal
    in the identity metric on whitened coordinates (v_i = C^{-1/2} u_i).
    """
    S = cov.S

    def whitened(B):
        return S @ np.asarray(apply_H(S @ B), dtype=float)

    spec = randomized_eig(whitened, cov.n, r, p=p, q=q, rng=rng, probe=probe)
    return spec


def apply_K_hat(v, spec):
    """(I + V_r (D_r - I_r) V_r^T) v, the Woodbury form of (I + V L V^T)^{-1}."""
    if spec.r == 0:
        return np.array(v, dtype=float, copy=True)
    c = spec.project(v)
    return v + spec.lift((spec.D - 1.0) * c)


def apply_sqrtK_hat(v, spec):
    """(I + V_r (D_r^{1/2} - I_r) V_r^T) v; self-adjoint square root of K_hat."""
    if spec.r == 0:
        return np.array(v, dtype=float, copy=True)
    c = spec.project(v)
    return v + spec.lift((np.sqrt(spec.D) - 1.0) * c)


def apply_invK_hat(v, spec):
    """K_hat^{-1} v = (I + V_r Lambda_r V_r^T) v."""
    if spec.r == 0:
        return np.array(v, dtype=float, copy=True)
    c = spec.project(v)
    return v + spec.lift(spec.eigenvalues * c)


def logdet_K_hat(spec):
    return float(np.sum(np.log(spec.D)))


def forstner_distance(spec_a, spec_b):
    """d_F(A, B) = sqrt(sum_i ln^2 gamma_i) for A = I + V_a L_a V_a^T, B likewise.

    Generalized eigenvalues are computed on the joint column span; the
    identity complement contributes ln^2(1) = 0.
    """
    if spec_a.r == 0 and spec_b.r == 0:
        return 0.0
    W = _orthonormalize(np.hstack([spec_a.basis, spec_b.basis]))
    t = W.shape[1]

    def projected(spec):
        M = np.eye(t)
        if spec.r:
            R = W.T @ spec.basis
            M = M + (R * spec.eigenvalues) @ R.T
        return 0.5 * (M + M.T)

    A = projected(spec_a)
    B = projected(spec_b)
    gamma = sla.eigh(A, B, eigvals_only=True)
    if np.any(gamma <= 0):
        raise ValueError("SPD violation: non-positive generalized eigenvalue")
    return float(np.sqrt(np.sum(np.log(gamma) ** 2)))
