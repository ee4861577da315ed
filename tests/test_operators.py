"""Linear-operator layer: prior factors, Woodbury actions, randomized eig."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.blas import dsymv

from drgmc.operators import (
    SYMV_MIN_N,
    CovarianceOperator,
    LowRankSpectrum,
    apply_sqrtK_hat,
    build_prior_covariance,
    randomized_eig,
)
from drgmc.lis import local_spectrum

from _dense_reference import (apply_K_hat, broadcast_prior_covariance, dense_K,
                              dense_sqrtK, forstner_dense, forstner_distance)


def random_spectrum(n, r, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.sort(rng.uniform(0.0, scale, r))[::-1]
    return LowRankSpectrum(lam, V)


def grid_nodes(k):
    xs = np.linspace(0.0, 1.0, k)
    X, Y = np.meshgrid(xs, xs)
    return np.column_stack([X.ravel(), Y.ravel()])


def exponential_kernel(nodes, sigma_u, s_0):
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)
    return sigma_u ** 2 * np.exp(-dist / (2.0 * s_0))


class TestPriorCovariance:
    def test_spd_and_sqrt_composition(self):
        nodes, sigma_u, s_0 = grid_nodes(5), 1.25, 0.0625
        cov = build_prior_covariance(nodes, sigma_u=sigma_u, s_0=s_0)
        C = (exponential_kernel(nodes, sigma_u, s_0)
             + 1e-10 * sigma_u ** 2 * np.eye(len(nodes)))
        x = np.random.default_rng(1).standard_normal(cov.n)
        assert np.allclose(cov.S @ (cov.S @ x), C @ x, atol=1e-10)
        # the symmetric factor is self-adjoint, unlike a Cholesky factor
        assert np.allclose(cov.S, cov.S.T)

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

    @pytest.mark.parametrize("entry", ["inf", "nan"])
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 1), (2, 0)])
    def test_non_finite_entry_is_refused(self, entry, i, j):
        C = np.eye(3)
        C[i, j] = float(entry)
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceOperator(C)

    def test_non_finite_node_is_refused(self):
        nodes = grid_nodes(4)
        nodes[5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build_prior_covariance(nodes, sigma_u=1.0, s_0=0.1)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 99), (99, 0), (31, 32), (70, 40)])
    def test_asymmetry_in_any_row_block_is_refused(self, i, j):
        # one entry off by more than 1e-12 max|C| is refused, wherever it is
        M = np.random.default_rng(0).standard_normal((100, 100))
        C = M @ M.T + 100.0 * np.eye(100)
        C = (C + C.T) / 2.0
        tol = 1e-12 * np.abs(C).max()
        C[i, j] += 0.5 * tol
        CovarianceOperator(C)
        C[i, j] += tol
        with pytest.raises(ValueError, match="not symmetric"):
            CovarianceOperator(C)

    @pytest.mark.parametrize("k, failures", [(5, 0), (5, 3), (21, 0)])
    @pytest.mark.parametrize("sigma_u, s_0", [(1.25, 0.0625), (0.5, 0.2)])
    def test_same_factor_as_broadcast_build(self, monkeypatch, k, failures, sigma_u, s_0):
        """Bit for bit, also after `failures` steps of jitter escalation."""
        nodes = grid_nodes(k)
        factors = []
        for build in (build_prior_covariance, broadcast_prior_covariance):
            with monkeypatch.context() as patch:
                self.failing_eigh(patch, failures)
                factors.append(build(nodes, sigma_u, s_0).S)
        assert np.array_equal(*factors)

    def test_one_repeated_node_is_rejected(self):
        nodes = grid_nodes(4)
        nodes[7] = nodes[2]
        with pytest.raises(ValueError, match="distinct"):
            build_prior_covariance(nodes, sigma_u=1.0, s_0=0.1)
        with pytest.raises(ValueError, match="distinct"):
            broadcast_prior_covariance(nodes, 1.0, 0.1)

    @staticmethod
    def failing_eigh(monkeypatch, failures):
        """Make the first `failures` eigendecompositions report a negative
        eigenvalue; returns the jitter (C[0, 0] - sigma_u^2 with
        sigma_u = 1) of every matrix tried."""
        real_eigh = np.linalg.eigh
        tried = []

        def eigh(C):
            tried.append(C[0, 0] - 1.0)
            w, Q = real_eigh(C)
            if len(tried) <= failures:
                w = w - w.max()
            return w, Q

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return tried

    @pytest.mark.parametrize("failures", [0, 1, 2, 4])
    def test_jitter_escalates_until_positive(self, monkeypatch, failures):
        nodes = grid_nodes(4)
        tried = self.failing_eigh(monkeypatch, failures)
        cov = build_prior_covariance(nodes, sigma_u=1.0, s_0=0.0625)
        ladder = [1e-10 * 10.0 ** k for k in range(failures + 1)]
        assert tried == pytest.approx(ladder, rel=1e-5)
        C = exponential_kernel(nodes, 1.0, 0.0625) + ladder[-1] * np.eye(len(nodes))
        assert np.allclose(cov.S @ cov.S, C, atol=1e-12)

    def test_jitter_escalation_exhausted(self, monkeypatch):
        tried = self.failing_eigh(monkeypatch, 5)
        with pytest.raises(ValueError, match="jitter escalation exhausted"):
            build_prior_covariance(grid_nodes(4), sigma_u=1.0, s_0=0.0625)
        assert tried == pytest.approx([1e-10, 1e-9, 1e-8, 1e-7, 1e-6], rel=1e-5)


class TestLowRankSpectrum:
    def test_validation(self):
        V = np.eye(4)[:, :2]
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0, 2.0], V)  # increasing
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0, -0.5], V)  # negative
        with pytest.raises(ValueError):
            LowRankSpectrum([1.0], V)  # shape mismatch

    @pytest.mark.parametrize("lam, basis_entry", [
        ([np.nan, 1.0], None),     # passed the order and sign checks: D = [nan, 0.5]
        ([1.0, np.nan], None),
        ([np.inf, 1.0], None),     # gave logdet_D = -inf
        ([2.0, 1.0], np.nan),
        ([2.0, 1.0], np.inf),
        ([2.0, 1.0], -np.inf),
    ])
    def test_non_finite_entry_is_refused(self, lam, basis_entry):
        V = np.eye(3)[:, :2]
        if basis_entry is not None:
            V[2, 1] = basis_entry
        with pytest.raises(ValueError, match="non-finite"):
            LowRankSpectrum(lam, V)

    def test_empty(self):
        spec = LowRankSpectrum.empty(5)
        assert spec.r == 0 and spec.n == 5
        x = np.arange(5.0)
        assert np.allclose(apply_K_hat(x, spec), x)


class TestDotMatchesMatmul:
    """The per-iteration products are ndarray.dot, and the golden chains
    hold them to the bit: each must equal its @ form exactly, on the
    layouts a chain hands them (contiguous vectors, a C-order block, the
    transposed Jacobian, a column-sliced basis, an empty one). The one
    exception is the prior factor on a vector at n >= SYMV_MIN_N, pinned
    to its dsymv route exactly and to S @ x to roundoff."""

    @pytest.mark.parametrize("k", [3, 21])  # n = 9 and the desk's n = 441
    def test_sqrt_apply(self, k):
        cov = build_prior_covariance(grid_nodes(k), 1.25, 0.0625)
        rng = np.random.default_rng(k)
        x = rng.standard_normal(cov.n)
        block = rng.standard_normal((cov.n, 25))
        jac = rng.standard_normal((25, cov.n))
        for arg in (block, jac.T):
            assert np.array_equal(cov.sqrt_apply(arg), cov.S @ arg)
        if cov.n < SYMV_MIN_N:
            assert np.array_equal(cov.sqrt_apply(x), cov.S @ x)
        else:
            assert np.array_equal(cov.sqrt_apply(x), dsymv(1.0, cov.S.T, x, lower=1))
            assert np.allclose(cov.sqrt_apply(x), cov.S @ x, rtol=1e-13, atol=0)

    def test_sqrt_apply_route_depends_on_n_only(self):
        # either side of the crossover, and a vector of the wrong length
        # is refused as S.dot refuses it, not read in part by dsymv
        for n in (SYMV_MIN_N - 1, SYMV_MIN_N):
            rng = np.random.default_rng(n)
            A = rng.standard_normal((n, n))
            cov = CovarianceOperator(A @ A.T + n * np.eye(n))
            x = rng.standard_normal(n)
            route = cov.S @ x if n < SYMV_MIN_N else dsymv(1.0, cov.S.T, x, lower=1)
            assert np.array_equal(cov.sqrt_apply(x), route)
            with pytest.raises(ValueError):
                cov.sqrt_apply(rng.standard_normal(n + 1))

    @pytest.mark.parametrize("n,m,rank", [(8, 4, 4), (441, 25, 30)])
    def test_project_and_lift(self, n, m, rank):
        rng = np.random.default_rng(n)
        full = local_spectrum(rng.standard_normal((m, n)), rank)
        k = full.r - 1
        sliced = LowRankSpectrum(full.eigenvalues[:k], full.basis[:, :k])
        x = rng.standard_normal(n)
        for spec in (full, sliced, LowRankSpectrum.empty(n)):
            c = rng.standard_normal(spec.r)
            assert np.array_equal(spec.project(x), spec.basis.T @ x)
            assert np.array_equal(spec.lift(c), spec.basis @ c)
        assert not sliced.basis.flags.c_contiguous


class TestWoodburyActions:
    @pytest.mark.parametrize("n,r", [(12, 4), (9, 9), (40, 7)])
    def test_against_dense(self, n, r):
        spec = random_spectrum(n, r, seed=n + r)
        V, lam = spec.basis, spec.eigenvalues
        x = np.random.default_rng(0).standard_normal(n)
        assert np.allclose(apply_K_hat(x, spec), dense_K(V, lam, n) @ x, atol=1e-10)
        assert np.allclose(apply_sqrtK_hat(x, spec), dense_sqrtK(V, lam, n) @ x, atol=1e-10)
        composed = apply_sqrtK_hat(apply_sqrtK_hat(x, spec), spec)
        assert np.max(np.abs(composed - apply_K_hat(x, spec))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 16), st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
    def test_inverse_and_sqrt_identities(self, n, r, seed):
        r = min(r, n)
        spec = random_spectrum(n, r, seed=seed) if r else LowRankSpectrum.empty(n)
        x = np.random.default_rng(seed).standard_normal(n)
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

    def test_rejects_nonsymmetric(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="symmetric"):
            randomized_eig(lambda x: M @ x, 8, r=3, rng=rng)

    def test_zero_operator(self):
        spec = randomized_eig(lambda x: 0.0 * x, 7, r=2, rng=np.random.default_rng(0))
        assert spec.r == 2
        assert np.allclose(spec.eigenvalues, 0.0)


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
