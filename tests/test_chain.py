"""Chain driver: kernel dispatch, determinism, solve accounting, adaptation."""

import numpy as np
import pytest

from drgmc import elliptic, linear_model
from drgmc.chain import ALGORITHMS, WhitenedModel, run_chain
from drgmc.harness import build_elliptic
from drgmc.config import RunConfig
from drgmc.operators import CovarianceOperator


def linear_whitened(n=4, m=3, seed=1):
    lm = linear_model.random_model(n=n, m=m, seed=seed, noise_scale=0.5)
    return WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u)), lm


def elliptic_whitened(k=8, **overrides):
    cfg = RunConfig(model="elliptic", nx=k, ny=k, **overrides)
    model, extras = build_elliptic(cfg)
    return model, extras


STEP_FOR = {"pcn": 0.1, "inf-mala": 0.03, "inf-hmc": 0.03, "dr-inf-mmala": 1.2,
            "dr-inf-mhmc": 1.0, "adr-inf-mmala": 1.2, "adr-inf-mhmc": 1.0,
            "dili": None}


def run_small(model, algorithm, seed=3, iterations=120, **kw):
    args = dict(iterations=iterations, burn_in=iterations // 3, seed=seed,
                rank=3, n_leapfrog=2, n_lag=20, threshold=1e-6)
    if algorithm == "dili":
        args.update(h_r=1.0, h_perp=0.1)
    else:
        args.update(h=STEP_FOR[algorithm])
    args.update(kw)
    return run_chain(model, algorithm, **args)


class TestValidation:
    def test_unknown_algorithm(self):
        model, _ = linear_whitened()
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_chain(model, "rwm", iterations=10, h=0.1)

    def test_iteration_budget(self):
        model, _ = linear_whitened()
        with pytest.raises(ValueError, match="iterations"):
            run_chain(model, "pcn", iterations=10, burn_in=10, h=0.1)

    def test_step_size_required(self):
        model, _ = linear_whitened()
        with pytest.raises(ValueError, match="step size"):
            run_chain(model, "pcn", iterations=10)


class TestWhitening:
    def test_state_gradient_is_prior_weighted(self):
        model, lm = linear_whitened(n=5, m=4, seed=2)
        _, grad_u, gnh_u = linear_model.model_callbacks(lm)
        v = np.random.default_rng(0).standard_normal(5)
        state = model.state(v)
        S = lm.prior.S
        assert np.allclose(state.u, S @ v, atol=1e-12)
        assert np.allclose(state.grad, S @ grad_u(S @ v), atol=1e-11)
        w = np.random.default_rng(1).standard_normal(5)
        assert np.allclose(state.gnh_action(w), S @ gnh_u(S @ v, S @ w), atol=1e-11)

    def test_elliptic_block_action_matches_columns(self):
        model, _ = elliptic_whitened(8)
        rng = np.random.default_rng(2)
        state = model.state(0.5 * rng.standard_normal(model.n))
        W = rng.standard_normal((model.n, 6))
        cols = np.column_stack([state.gnh_action(W[:, j]) for j in range(6)])
        block = state.gnh_action(W)
        assert np.abs(block - cols).max() <= 1e-12 * np.abs(cols).max()


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["pcn", "inf-mala", "dr-inf-mmala",
                                           "dr-inf-mhmc", "dili", "adr-inf-mmala"])
    def test_same_seed_bitwise_identical(self, algorithm):
        model, _ = linear_whitened()
        a = run_small(model, algorithm, seed=5)
        b = run_small(model, algorithm, seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.potentials, b.potentials)
        assert np.array_equal(a.accepts, b.accepts)

    def test_different_seed_differs(self):
        model, _ = linear_whitened()
        a = run_small(model, "pcn", seed=5)
        b = run_small(model, "pcn", seed=6)
        assert not np.array_equal(a.samples, b.samples)


class TestAllKernelsRun:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_progress_and_record_shape(self, algorithm):
        model, _ = linear_whitened()
        rec = run_small(model, algorithm)
        assert rec.samples.shape == (120, 4)
        assert np.isfinite(rec.potentials).all()
        assert rec.meta["algorithm"] == algorithm
        assert rec.meta["error_rejects"] == 0
        # every kernel must move off the start on this easy target
        assert np.mean(rec.accepts) > 0.0


class TestSolveAccounting:
    def test_pcn_one_forward_per_iteration_plus_initial(self):
        model, _ = elliptic_whitened(6)
        rec = run_chain(model, "pcn", iterations=50, burn_in=10, h=0.05, seed=0)
        assert rec.pde_solves[-1] == 51

    def test_inf_mala_forward_plus_adjoint(self):
        model, _ = elliptic_whitened(6)
        rec = run_chain(model, "inf-mala", iterations=50, burn_in=10, h=0.02, seed=0)
        assert rec.pde_solves[-1] == 102

    def test_rejected_candidates_still_cost_solves(self):
        model, _ = elliptic_whitened(6)
        # absurd step: everything rejected, solves still 1 per iteration
        rec = run_chain(model, "pcn", iterations=30, burn_in=5, h=3.999, seed=0)
        assert rec.pde_solves[-1] == 31


class TestAdaptation:
    def test_lis_grows_and_freezes_by_end_of_burn_in(self):
        model, _ = linear_whitened(n=6, m=3, seed=4)
        rec = run_small(model, "adr-inf-mmala", iterations=150, seed=7)
        lis = rec.meta["lis"]
        assert lis["frozen"]
        assert lis["m"] >= 1
        assert lis["r"] >= 1
        assert len(lis["history"]) == lis["m"]

    def test_lis_spans_data_informed_subspace_on_linear_model(self):
        from scipy.linalg import subspace_angles
        model, lm = linear_whitened(n=6, m=2, seed=9)
        rec = run_small(model, "adr-inf-mmala", iterations=200, seed=8,
                        rank=4, max_rank=6)
        lis_meta = rec.meta["lis_state"]
        V = lis_meta.spectrum.basis
        # data informs exactly span(S A^T) in whitened coordinates
        target = lm.prior.S @ lm.A.T
        angles = subspace_angles(V, target)
        assert lis_meta.r == 2
        assert np.max(angles) < 1e-6

    def test_non_adaptive_records_no_lis(self):
        model, _ = linear_whitened()
        rec = run_small(model, "dr-inf-mmala")
        assert "lis" not in rec.meta


class _FailingState:
    """Finite only at u = 0; phi, grad and gnh_action raise `error` elsewhere."""

    def __init__(self, u, error):
        self.u = u
        self._error = error

    def _check(self):
        if np.any(self.u):
            raise self._error("synthetic failure off the origin")

    @property
    def phi(self):
        self._check()
        return 0.5 * float(self.u @ self.u)

    @property
    def grad(self):
        self._check()
        return self.u.copy()

    def gnh_action(self, w):
        self._check()
        return np.array(w, dtype=float)


class _BlockFailingState:
    """Quadratic target whose GNH action raises on every n x k block."""

    def __init__(self, u):
        self.u = u
        self.phi = 0.5 * float(u @ u)
        self.grad = u.copy()

    def gnh_action(self, w):
        if np.ndim(w) == 2:
            raise FloatingPointError("synthetic block failure")
        return np.array(w, dtype=float)


def failing_whitened(error, n=4):
    return WhitenedModel(CovarianceOperator(np.eye(n)),
                         lambda u: _FailingState(u, error))


class TestRejectionPath:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_solver_failures_reject_and_stay_at_start(self, algorithm):
        rec = run_small(failing_whitened(FloatingPointError), algorithm,
                        iterations=60)
        assert len(rec.samples) == 60
        assert not rec.accepts.any()
        assert not rec.samples.any()
        assert not rec.potentials.any()
        assert rec.meta["error_rejects"] == 60

    def test_block_action_failure_rejects(self):
        # a GNH action that fails on blocks is not retried column by column:
        # its FloatingPointError reaches the MH step, which rejects
        model = WhitenedModel(CovarianceOperator(np.eye(4)), _BlockFailingState)
        rec = run_small(model, "dr-inf-mmala", iterations=30)
        assert not rec.accepts.any()
        assert rec.meta["error_rejects"] == 30

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_other_errors_propagate(self, algorithm):
        with pytest.raises(ValueError, match="synthetic failure"):
            run_small(failing_whitened(ValueError), algorithm, iterations=60)


class TestRobustness:
    def test_divergent_hamiltonian_steps_rejected_not_fatal(self):
        model, _ = linear_whitened()
        rec = run_chain(model, "dr-inf-mhmc", iterations=40, burn_in=5,
                        h=1.0, eps=40.0, n_leapfrog=3, rank=3, seed=2)
        assert len(rec.samples) == 40
        assert np.isfinite(rec.potentials).all()

    def test_wall_times_positive_and_solves_monotone(self):
        model, _ = linear_whitened()
        rec = run_small(model, "inf-hmc")
        assert np.all(rec.wall_times >= 0)
        assert np.all(np.diff(rec.pde_solves) >= 0)
