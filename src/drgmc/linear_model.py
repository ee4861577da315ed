"""Linear-Gaussian inverse problem with a closed-form posterior.

Observation y = A u + eta, eta ~ N(0, Sigma), prior u ~ N(0, C). Every
sampler can be checked against the exact posterior mean and covariance.
For the linear forward map the Jacobian J = L^T A, with Sigma^{-1} = L L^T,
does not depend on u, and the Gauss-Newton Hessian J^T J = A^T Sigma^{-1} A
is the exact data-misfit Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import CovarianceOperator


@dataclass
class LinearGaussianModel:
    A: np.ndarray
    Sigma: np.ndarray
    prior: CovarianceOperator
    y: np.ndarray
    _Sigma_inv: np.ndarray = field(init=False, repr=False)
    _jac: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.Sigma = np.asarray(self.Sigma, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self._Sigma_inv = np.linalg.inv(self.Sigma)
        self._jac = np.linalg.cholesky(self._Sigma_inv).T @ self.A
        # every state returns this one array, so it must not change
        self._jac.setflags(write=False)

    @property
    def n(self):
        return self.A.shape[1]


def analytic_posterior(model):
    """Posterior N(mu, K) with K = (C^{-1} + A^T Sigma^{-1} A)^{-1}."""
    C_inv = np.linalg.inv(model.prior.C)
    prec = C_inv + model._jac.T @ model._jac
    try:
        K = np.linalg.inv(prec)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular posterior normal equations") from exc
    K = 0.5 * (K + K.T)
    mu = K @ (model.A.T @ (model._Sigma_inv @ model.y))
    return mu, K


class _LinearState:
    """Per-state cache mirroring the PDE model's state interface."""

    __slots__ = ("u", "_model", "_phi", "_grad")

    def __init__(self, model, u):
        self._model = model
        self.u = u
        self._phi = None
        self._grad = None

    @property
    def phi(self):
        if self._phi is None:
            res = self._model.y - self._model.A @ self.u
            self._phi = 0.5 * float(res @ (self._model._Sigma_inv @ res))
        return self._phi

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._model.A.T @ (
                self._model._Sigma_inv @ (self._model.A @ self.u - self._model.y))
        return self._grad

    @property
    def jac(self):
        return self._model._jac


def make_state(model, u):
    return _LinearState(model, u)


def random_model(n=8, m=4, seed=0, noise_scale=0.5, prior_scale=1.0):
    """A well-conditioned random instance for oracles and property tests."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    Sigma = noise_scale ** 2 * np.eye(m)
    M = rng.standard_normal((n, n))
    C = prior_scale ** 2 * (M @ M.T / n + np.eye(n))
    u_true = rng.standard_normal(n)
    y = A @ u_true + noise_scale * rng.standard_normal(m)
    return LinearGaussianModel(A=A, Sigma=Sigma, prior=CovarianceOperator(C), y=y)
