"""Linear-Gaussian test model: conjugate posterior and the calculus of the
states the chains use."""

import numpy as np
import pytest

from drgmc import linear_model
from drgmc.operators import CovarianceOperator

from _dense_reference import analytic_gaussian_posterior


@pytest.fixture(scope="module")
def model():
    return linear_model.random_model(n=6, m=3, seed=4)


def test_posterior_matches_direct_formula(model):
    mu, K = linear_model.analytic_posterior(model)
    C = model.prior.S @ model.prior.S
    mu_ref, K_ref = analytic_gaussian_posterior(model.A, model.Sigma, C, model.y)
    assert np.allclose(mu, mu_ref, atol=1e-10)
    assert np.allclose(K, K_ref, atol=1e-10)


def test_full_noise_covariance():
    # a non-diagonal Sigma: whitening by L^T (Sigma^{-1} = L L^T) is not a
    # scalar, so a transposed or misapplied factor shows
    rng = np.random.default_rng(11)
    n, m = 7, 5
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, m))
    Sigma = B @ B.T / m + 0.5 * np.eye(m)
    M = rng.standard_normal((n, n))
    C = M @ M.T / n + np.eye(n)
    y = rng.standard_normal(m)
    model = linear_model.LinearGaussianModel(A=A, Sigma=Sigma,
                                             prior=CovarianceOperator(C), y=y)
    Si = np.linalg.inv(Sigma)
    for _ in range(5):
        u = rng.standard_normal(n)
        res = A @ u - y
        state = linear_model.make_state(model, u)
        assert state.phi == pytest.approx(0.5 * res @ Si @ res, rel=1e-12)
        g = A.T @ (Si @ res)
        assert np.linalg.norm(state.grad - g) <= 1e-12 * np.linalg.norm(g)
    mu, K = linear_model.analytic_posterior(model)
    mu_ref, K_ref = analytic_gaussian_posterior(A, Sigma, C, y)
    assert np.allclose(mu, mu_ref, atol=1e-10)
    assert np.allclose(K, K_ref, atol=1e-10)


def test_jacobian_is_read_only(model):
    # every state shares this array, and chains reuse its curvature on
    # identity alone
    jac = linear_model.make_state(model, np.zeros(model.n)).jac
    assert jac is model._jac
    with pytest.raises(ValueError):
        jac[0, 0] = 1.0


def phi(model, u):
    return linear_model.make_state(model, u).phi


def grad(model, u):
    return linear_model.make_state(model, u).grad


def test_gradient_matches_finite_differences(model):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(model.n)
    g = grad(model, u)
    t = 1e-6
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(model.n)
        w /= np.linalg.norm(w)
        fd = (phi(model, u + t * w) - phi(model, u - t * w)) / (2 * t)
        worst = max(worst, abs(fd - g @ w) / max(abs(fd), 1e-12))
    assert worst < 1e-8


def test_gnh_equals_hessian(model):
    # for a linear forward map the Gauss-Newton Hessian is the exact Hessian
    rng = np.random.default_rng(1)
    u = rng.standard_normal(model.n)
    w = rng.standard_normal(model.n)
    t = 1e-6
    fd = (grad(model, u + t * w) - grad(model, u - t * w)) / (2 * t)
    J = linear_model.make_state(model, u).jac
    assert J.shape == (len(model.y), model.n)
    assert np.allclose(J.T @ (J @ w), fd, rtol=1e-6, atol=1e-8)


def test_state_caches(model):
    state = linear_model.make_state(model, np.zeros(model.n))
    assert state.phi == state.phi
    assert np.array_equal(state.grad, state.grad)
    # at u = 0 the residual is y itself
    assert state.phi == pytest.approx(0.5 * model.y @ np.linalg.solve(model.Sigma, model.y))


def test_random_model_reproducible():
    a = linear_model.random_model(seed=9)
    b = linear_model.random_model(seed=9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
