"""Linear-operator layer: prior factors, Woodbury actions, randomized eig."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from drgmc.operators import (
    CovarianceOperator,
    LowRankSpectrum,
    _orthonormalize,
    apply_K_hat,
    apply_invK_hat,
    apply_sqrtK_hat,
    build_prior_covariance,
    forstner_distance,
    generalized_eig,
    logdet_K_hat,
    randomized_eig,
    sample_prior,
    unwhiten,
    whiten,
)

from _dense_reference import dense_K, dense_invK, dense_sqrtK, forstner_dense


def random_spectrum(n, r, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.sort(rng.uniform(0.0, scale, r))[::-1]
    return LowRankSpectrum(lam, V)


def grid_nodes(k):
    xs = np.linspace(0.0, 1.0, k)
    X, Y = np.meshgrid(xs, xs)
    return np.column_stack([X.ravel(), Y.ravel()])


class TestPriorCovariance:
    def test_spd_and_sqrt_composition(self):
        cov = build_prior_covariance(grid_nodes(5), sigma_u=1.25, s_0=0.0625)
        x = np.random.default_rng(1).standard_normal(cov.n)
        assert np.allclose(cov.S @ (cov.S @ x), cov.apply(x), atol=1e-10)
        assert np.allclose(cov.solve(cov.apply(x)), x, atol=1e-8)
        # the symmetric factor is self-adjoint, unlike a Cholesky factor
        assert np.allclose(cov.S, cov.S.T)

    def test_whiten_roundtrip(self):
        cov = build_prior_covariance(grid_nodes(4), sigma_u=1.25, s_0=0.0625)
        u = sample_prior(cov, seed=3)
        assert np.allclose(unwhiten(whiten(u, cov), cov), u, atol=1e-9)

    def test_sample_prior_reproducible(self):
        cov = build_prior_covariance(grid_nodes(4), sigma_u=1.0, s_0=0.1)
        a = sample_prior(cov, seed=11)
        b = sample_prior(cov, seed=11)
        c = sample_prior(cov, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_prior_covariance(grid_nodes(4), sigma_u=-1.0, s_0=0.1)
        with pytest.raises(ValueError):
            nodes = np.zeros((3, 2))
            build_prior_covariance(nodes, sigma_u=1.0, s_0=0.1)
        with pytest.raises(ValueError):
            CovarianceOperator(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            CovarianceOperator(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestLowRankSpectrum:
    def test_validation(self):
        V = np.eye(4)[:, :2]
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0, 2.0], V)  # increasing
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0, -0.5], V)  # negative
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0], V)  # shape mismatch

    def test_truncate_by_rank_and_threshold(self):
        spec = random_spectrum(8, 5, seed=2)
        assert spec.truncate(r=3).r == 3
        lam = spec.eigenvalues
        # the cutoff is absolute: the whitened GNH eigenvalue measures
        # data-informativeness against the unit prior scale
        thr = spec.truncate(threshold=lam[2])
        assert thr.r == int(np.sum(lam >= lam[2]))

    def test_json_roundtrip(self):
        spec = random_spectrum(6, 3, seed=4)
        back = LowRankSpectrum.from_json(spec.to_json())
        assert np.allclose(back.eigenvalues, spec.eigenvalues)
        assert np.allclose(back.basis, spec.basis)
        assert back.metric == spec.metric

    def test_empty(self):
        spec = LowRankSpectrum.empty(5)
        assert spec.r == 0 and spec.n == 5
        x = np.arange(5.0)
        assert np.allclose(apply_K_hat(x, spec), x)
        assert logdet_K_hat(spec) == 0.0


class TestWoodburyActions:
    @pytest.mark.parametrize("n,r", [(12, 4), (9, 9)])
    def test_against_dense(self, n, r):
        spec = random_spectrum(n, r, seed=n + r)
        V, lam = spec.basis, spec.eigenvalues
        x = np.random.default_rng(0).standard_normal(n)
        assert np.allclose(apply_K_hat(x, spec), dense_K(V, lam, n) @ x, atol=1e-10)
        assert np.allclose(apply_sqrtK_hat(x, spec), dense_sqrtK(V, lam, n) @ x, atol=1e-10)
        assert np.allclose(apply_invK_hat(x, spec), dense_invK(V, lam, n) @ x, atol=1e-10)
        sign, logdet = np.linalg.slogdet(dense_K(V, lam, n))
        assert sign > 0
        assert abs(logdet_K_hat(spec) - logdet) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 16), st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
    def test_inverse_and_sqrt_identities(self, n, r, seed):
        r = min(r, n)
        spec = random_spectrum(n, r, seed=seed) if r else LowRankSpectrum.empty(n)
        x = np.random.default_rng(seed).standard_normal(n)
        assert np.allclose(apply_invK_hat(apply_K_hat(x, spec), spec), x, atol=1e-9)
        assert np.allclose(
            apply_sqrtK_hat(apply_sqrtK_hat(x, spec), spec),
            apply_K_hat(x, spec), atol=1e-9)


class TestRandomizedEig:
    def decay_operator(self, n, power=2.0, seed=0):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = (1.0 + np.arange(n)) ** -power
        A = (Q * lam) @ Q.T
        return A, lam

    def test_accuracy_on_decaying_spectrum(self):
        n = 50
        worst = 0.0
        for seed in range(5):
            A, lam = self.decay_operator(n, seed=seed)
            spec = randomized_eig(lambda x: A @ x, n, r=10, p=5, q=2,
                                  rng=np.random.default_rng(100 + seed))
            rel = np.abs(spec.eigenvalues - lam[:10]) / lam[:10]
            worst = max(worst, rel.max())
        assert worst < 1e-6

    def test_exact_on_low_rank(self):
        n, r = 20, 4
        spec_true = random_spectrum(n, r, seed=9)
        A = (spec_true.basis * spec_true.eigenvalues) @ spec_true.basis.T
        spec = randomized_eig(lambda x: A @ x, n, r=r, rng=np.random.default_rng(1))
        assert np.allclose(spec.eigenvalues, spec_true.eigenvalues, atol=1e-9)

    @pytest.mark.parametrize("action", [
        lambda A, B: A @ B[:, 0],      # vector-only: images the first column
        lambda A, B: (A @ B).T,        # transposed block
        lambda A, B: A @ B[:, :-1],    # drops a column
        lambda A, B: np.diag(A) * B,   # vector-only scaling: cannot broadcast
    ])
    def test_action_must_map_blocks_to_blocks(self, action):
        n = 15
        A, _ = self.decay_operator(n, seed=3)
        with pytest.raises(ValueError):
            randomized_eig(lambda B: action(A, B), n, r=6,
                           rng=np.random.default_rng(5))

    def test_action_errors_propagate_unchanged(self):
        # the chain rejects a candidate on FloatingPointError, so the
        # eigensolver must neither swallow nor retry it
        err = FloatingPointError("singular stiffness factorization")
        calls = []

        def failing(B):
            calls.append(B.shape)
            raise err

        with pytest.raises(FloatingPointError) as info:
            randomized_eig(failing, 12, r=3, rng=np.random.default_rng(0))
        assert info.value is err
        assert calls == [(12, 8)]

    def test_probe_shape_enforced(self):
        A, _ = self.decay_operator(10, seed=0)
        with pytest.raises(ValueError, match="probe"):
            randomized_eig(lambda x: A @ x, 10, r=3, p=5, probe=np.zeros((10, 4)))

    def test_rejects_nonsymmetric(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="symmetric"):
            randomized_eig(lambda x: M @ x, 8, r=3, rng=rng)

    def test_zero_operator(self):
        spec = randomized_eig(lambda x: 0.0 * x, 7, r=2, rng=np.random.default_rng(0))
        assert spec.r == 2
        assert np.allclose(spec.eigenvalues, 0.0)

    def test_generalized_matches_dense_pencil(self):
        rng = np.random.default_rng(8)
        n = 14
        nodes = rng.uniform(size=(n, 2))
        cov = build_prior_covariance(nodes, 1.0, 0.3)
        B = rng.standard_normal((n, 5))
        H = B @ B.T
        spec = generalized_eig(lambda x: H @ x, cov, r=5, rng=np.random.default_rng(2))
        lam_dense = sla.eigh(H, cov.solve(np.eye(n)), eigvals_only=True)[::-1][:5]
        assert np.allclose(spec.eigenvalues, lam_dense, rtol=1e-8, atol=1e-10)
        # basis orthonormal in the whitened metric
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(5), atol=1e-9)


class TestForstner:
    def test_identity_and_symmetry(self):
        a = random_spectrum(10, 3, seed=1)
        b = random_spectrum(10, 4, seed=2)
        assert forstner_distance(a, a) < 1e-9
        assert abs(forstner_distance(a, b) - forstner_distance(b, a)) < 1e-9

    def test_hand_value(self):
        # d(I, I + (e-1) vv^T): single generalized eigenvalue e -> d = 1
        v = np.zeros((6, 1))
        v[2, 0] = 1.0
        a = LowRankSpectrum.empty(6)
        b = LowRankSpectrum(np.array([np.e - 1.0]), v)
        assert abs(forstner_distance(a, b) - 1.0) < 1e-12

    def test_against_dense(self):
        n = 9
        a = random_spectrum(n, 3, seed=5)
        b = random_spectrum(n, 5, seed=6)
        A = np.eye(n) + (a.basis * a.eigenvalues) @ a.basis.T
        B = np.eye(n) + (b.basis * b.eigenvalues) @ b.basis.T
        assert abs(forstner_distance(a, b) - forstner_dense(A, B)) < 1e-9


def test_orthonormalize_rank_deficient():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((10, 3))
    W = _orthonormalize(np.hstack([M, M]))
    assert W.shape[1] == 3
    assert np.allclose(W.T @ W, np.eye(3), atol=1e-10)
