"""Linear-Gaussian inverse problem with a closed-form posterior.

Observation y = A u + eta, eta ~ N(0, Sigma), prior u ~ N(0, C). Every
sampler can be checked against the exact posterior mean and covariance.
The model holds the data only in noise-whitened form: with
Sigma^{-1} = L L^T, the Jacobian J = L^T A and the whitened data
y_w = L^T y. J does not depend on u, the misfit is 0.5 |J u - y_w|^2, and
the Gauss-Newton Hessian J^T J = A^T Sigma^{-1} A is its exact Hessian.
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
    _jac: np.ndarray = field(init=False, repr=False)
    _y_white: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.Sigma = np.asarray(self.Sigma, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        L_T = np.linalg.cholesky(np.linalg.inv(self.Sigma)).T
        self._jac = L_T @ self.A
        # every state returns this one array, so it must not change
        self._jac.setflags(write=False)
        self._y_white = L_T @ self.y

    @property
    def n(self):
        return self.A.shape[1]


def analytic_posterior(model):
    """Posterior N(mu, K) in whitened coordinates: with Jv = J S,
    K = S (I + Jv^T Jv)^{-1} S = (C^{-1} + J^T J)^{-1} and mu = K J^T y_w."""
    S = model.prior.S
    jv = model._jac @ S
    K = S @ np.linalg.inv(np.eye(model.n) + jv.T @ jv) @ S
    K = 0.5 * (K + K.T)
    mu = K @ (model._jac.T @ model._y_white)
    return mu, K


class _LinearState:
    """Per-state cache mirroring the PDE model's state interface: the
    whitened residual J u - y_w is formed once, phi and grad from it."""

    __slots__ = ("u", "_model", "_res", "_phi", "_grad")

    def __init__(self, model, u):
        self._model = model
        self.u = u
        self._res = model._jac.dot(u) - model._y_white
        self._phi = None
        self._grad = None

    @property
    def phi(self):
        if self._phi is None:
            self._phi = 0.5 * float(self._res.dot(self._res))
        return self._phi

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._model._jac.T.dot(self._res)
        return self._grad

    @property
    def jac(self):
        return self._model._jac


def make_state(model, u):
    return _LinearState(model, u)


def random_model(n=8, m=4, seed=0, noise_scale=0.5):
    """A well-conditioned random instance for oracles and property tests."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    Sigma = noise_scale ** 2 * np.eye(m)
    M = rng.standard_normal((n, n))
    C = M @ M.T / n + np.eye(n)
    u_true = rng.standard_normal(n)
    y = A @ u_true + noise_scale * rng.standard_normal(m)
    return LinearGaussianModel(A=A, Sigma=Sigma, prior=CovarianceOperator(C), y=y)
