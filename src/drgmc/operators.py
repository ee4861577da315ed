"""Structured linear operators for function-space sampling.

Dense prior covariances held only by their self-adjoint square roots,
the Householder frame that orthonormalises every stack of bases, a
randomized partial eigendecomposition built on it, Woodbury-form low-rank
covariance actions, and the Forstner distance between SPD operators of the
form I + V diag(lam) V^T.

Conventions: fields are flat float64 arrays, the inner product is plain
Euclidean on nodal coefficients, low-rank bases are column-orthonormal.
Dense products a chain forms per state or iteration are ndarray.dot, the
same BLAS call as @ without its gufunc dispatch; @ stays in set-up and
test-only code and in lis.local_spectrum, where .dot rounds the Gram
products differently and moves the LIS.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgeqrf, dorgqr


# what a failed solve or decomposition raises; a chain survives each of them
NUMERICAL_ERRORS = (FloatingPointError, np.linalg.LinAlgError, OverflowError)


class CovarianceOperator:
    """Dense SPD covariance C held only by its symmetric factor S, S @ S = C.

    The factor is built from a symmetric eigendecomposition so that C^{1/2}
    is self-adjoint (a triangular factor would not be). That decomposition
    is also the positivity test: a non-positive eigenvalue raises
    LinAlgError, a ValueError.
    """

    def __init__(self, C):
        C = np.asarray(C, dtype=float)
        scale = max(C.max(), -C.min())  # max |C|, read without a temporary
        if not np.isfinite(scale):  # an inf or a NaN anywhere in C
            raise ValueError("covariance matrix has a non-finite entry")
        # compared in blocks of 32 rows, so no n x n temporary is made
        if scale > 0 and any(np.abs(C[i:i + 32] - C[:, i:i + 32].T).max() > 1e-12 * scale
                             for i in range(0, len(C), 32)):
            raise ValueError("covariance matrix is not symmetric")
        w, Q = np.linalg.eigh(C)
        if w.min() <= 0:
            raise np.linalg.LinAlgError("covariance matrix is not positive definite")
        self.n = C.shape[0]
        self.S = (Q * np.sqrt(w)) @ Q.T

    def sqrt_apply(self, x):
        return self.S.dot(x)


def build_prior_covariance(nodes, sigma_u, s_0):
    """Exponential-kernel prior covariance with escalating diagonal jitter.

    Jitter starts at 1e-10 sigma_u^2 and escalates tenfold up to 1e-6 sigma_u^2
    until the operator's eigendecomposition finds every eigenvalue positive;
    beyond that the kernel is reported ill-conditioned.
    """
    if sigma_u <= 0 or s_0 <= 0:
        raise ValueError("sigma_u and s_0 must be positive")
    pts = np.asarray(nodes, dtype=float)
    C = sum(np.subtract.outer(x, x) ** 2 for x in pts.T)  # squared distances
    if np.count_nonzero(C == 0) > len(pts):  # a zero besides the self-distances
        raise ValueError("prior nodes must be distinct")
    np.sqrt(C, out=C)
    np.exp(np.divide(C, -2.0 * s_0, out=C), out=C)
    C *= sigma_u ** 2
    jitter, diagonal = 1e-10 * sigma_u ** 2, C.diagonal().copy()
    while True:
        np.fill_diagonal(C, diagonal + jitter)
        try:
            return CovarianceOperator(C)
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > 1e-6 * sigma_u ** 2 * (1 + 1e-12):
                raise ValueError("ill-conditioned kernel: jitter escalation exhausted")


class LowRankSpectrum:
    """Rank-r spectral factor: eigenvalues lam (descending, >= 0) and an
    orthonormal basis V, both in whitened coordinates, with the projected
    posterior-covariance surrogate D = (I_r + Lambda_r)^{-1}, its square root
    sqrt_D and log det D_r as logdet_D. The constructor checks outside input;
    _unchecked takes spectra valid by construction."""

    __slots__ = ("r", "eigenvalues", "basis", "D", "sqrt_D", "logdet_D")

    def __init__(self, eigenvalues, basis):
        lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        V = np.asarray(basis, dtype=float)
        if V.ndim != 2 or V.shape[1] != lam.shape[0]:
            raise ValueError("basis must be n x r matching eigenvalue count")
        if not (np.isfinite(lam).all() and np.isfinite(V).all()):
            raise ValueError("spectrum has a non-finite entry")
        if lam.size and np.any(np.diff(lam) > 1e-12):
            raise ValueError("eigenvalues must be non-increasing")
        if lam.size and lam.min() < -1e-10:
            raise ValueError("negative eigenvalue in PSD spectrum")
        self._fill(np.maximum(lam, 0.0), V)

    def _fill(self, lam, V):
        self.r = lam.shape[0]
        self.eigenvalues = lam
        self.basis = V
        self.D = 1.0 / (1.0 + lam)
        self.sqrt_D = np.sqrt(self.D)
        self.logdet_D = float(np.log(self.D).sum())

    @classmethod
    def _unchecked(cls, lam, V):
        """Spectrum from non-increasing eigenvalues clipped at 0 and an n x r
        orthonormal basis, taken as they are."""
        spec = cls.__new__(cls)
        spec._fill(lam, V)
        return spec

    @property
    def n(self):
        return self.basis.shape[0]

    def project(self, x):
        return self.basis.T.dot(x)

    def lift(self, c):
        return self.basis.dot(c)

    @classmethod
    def empty(cls, n):
        return cls._unchecked(np.zeros(0), np.zeros((n, 0)))


def householder_frame(X):
    """Q (n x t) and R (t x k), t = min(n, k), of one Householder QR X = Q R;
    Q spans X's columns even where they are rank-deficient or k > n."""
    qr, tau, _, _ = dgeqrf(X)
    t = min(X.shape)
    return dorgqr(qr[:, :t], tau[:t])[0], np.triu(qr[:t])


def randomized_eig(apply_A, n, r, p=5, q=2, *, rng):
    """Randomized partial eigendecomposition of a symmetric PSD action: the
    QR-based range finder of Halko, Martinsson & Tropp (2011), q power
    iterations of an (r+p)-column Gaussian probe drawn from rng, each iterate
    and then the stacked Krylov blocks orthonormalised by householder_frame,
    and Nystrom extraction (an order of magnitude more accurate than plain
    Rayleigh-Ritz at equal q on i^{-2} spectra). Exact to roundoff for
    actions of rank <= r; a null action gives 0 on the frame's first r columns.

    apply_A maps an n x k block to the n x k block of its column images and
    is called q + 2 times. A result of another shape raises ValueError, its
    own exceptions propagate unchanged, and a Galerkin symmetry test
    rejects non-symmetric actions.
    """
    if r < 0 or r > n:
        raise ValueError("rank r must lie in [0, n]")
    if r == 0:
        return LowRankSpectrum.empty(n)

    def apply_block(B):
        out = np.asarray(apply_A(B), dtype=float)
        if out.shape != B.shape:
            raise ValueError(f"block action mapped a {B.shape} block to shape "
                             f"{out.shape}; apply_A must take n x k blocks")
        return out

    # every frame has min(n, columns) >= r columns, so none comes out empty
    blocks = [apply_block(rng.standard_normal((n, min(r + p, n))))]
    for _ in range(q):
        blocks.append(apply_block(householder_frame(blocks[-1])[0]))
    Q = householder_frame(np.hstack(blocks))[0]
    AQ = apply_block(Q)
    T = Q.T @ AQ
    scale = np.abs(T).max()
    if scale == 0.0:  # the null operator
        return LowRankSpectrum(np.zeros(r), Q[:, :r])
    if np.abs(T - T.T).max() > 1e-8 * scale:
        raise ValueError("operator action is not symmetric")
    T = 0.5 * (T + T.T)
    # Nystrom extraction: A ~= (AQ) T^+ (AQ)^T, shifted for stable Cholesky
    nu = np.finfo(float).eps * scale * T.shape[0]
    L = np.linalg.cholesky(T + nu * np.eye(T.shape[0]))
    F = sla.solve_triangular(L, AQ.T, lower=True).T
    U, s, _ = np.linalg.svd(F, full_matrices=False)
    return LowRankSpectrum(np.maximum(s[:r] ** 2 - nu, 0.0), U[:, :r])


def apply_sqrtK_hat(v, spec):
    """(I + V_r (D_r^{1/2} - I_r) V_r^T) v; self-adjoint square root of K_hat."""
    if spec.r == 0:
        return np.array(v, dtype=float, copy=True)
    c = spec.project(v)
    return v + spec.lift((spec.sqrt_D - 1.0) * c)


def forstner_distance(spec_a, spec_b):
    """d_F(A, B) = sqrt(sum_i ln^2 gamma_i) for A = I + V_a L_a V_a^T, B likewise,
    from the coordinates R of one Householder QR [V_a, V_b] = Q R; the
    complement of Q's span contributes ln^2(1) = 0."""
    _, R = householder_frame(np.hstack([spec_a.basis, spec_b.basis]))
    return forstner_pencil(R[:, :spec_a.r], spec_a.eigenvalues,
                           R[:, spec_a.r:], spec_b.eigenvalues)


def forstner_pencil(coords_a, lam_a, coords_b, lam_b):
    """d_F between I + C_a diag(lam_a) C_a^T and I + C_b diag(lam_b) C_b^T
    from their coordinates C in one orthonormal frame of both spans."""
    A, B = (np.eye(len(C)) + (C * lam) @ C.T
            for C, lam in ((coords_a, lam_a), (coords_b, lam_b)))
    gamma = sla.eigh(A, B, eigvals_only=True)
    if np.any(gamma <= 0):
        raise ValueError("SPD violation: non-positive generalized eigenvalue")
    return float(np.sqrt(np.sum(np.log(gamma) ** 2)))
