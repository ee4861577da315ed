"""Chain driver: kernel dispatch, determinism, solve accounting, adaptation."""

import json

import numpy as np
import pytest

from drgmc import chain, elliptic, linear_model, runio
from drgmc.chain import ALGORITHMS, WhitenedModel, run_chain
from drgmc.harness import build_elliptic
from drgmc.config import RunConfig
from drgmc.lis import LISState, local_spectrum
from drgmc.operators import CovarianceOperator, LowRankSpectrum
from drgmc.proposals import StepParams, reduced_ngrad


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
    args = dict(algorithm=algorithm, iterations=iterations,
                burn_in=iterations // 3, seed=seed, rank=3, n_leapfrog=2,
                n_lag=20, threshold=1e-6)
    if algorithm == "dili":
        args.update(h_r=1.0, h_perp=0.1)
    else:
        args.update(h=STEP_FOR[algorithm])
    args.update(kw)
    return run_chain(model, RunConfig(**args))


class TestWhitening:
    def test_state_gradient_is_prior_weighted(self):
        model, lm = linear_whitened(n=5, m=4, seed=2)
        v = np.random.default_rng(0).standard_normal(5)
        state = model.state(v)
        S = lm.prior.S
        assert np.allclose(state.u, S @ v, atol=1e-12)
        grad_u = linear_model.make_state(lm, S @ v).grad
        assert np.allclose(state.grad, S @ grad_u, atol=1e-11)
        w = np.random.default_rng(1).standard_normal(5)
        H_w = S @ lm.A.T @ np.linalg.solve(lm.Sigma, lm.A) @ S
        assert np.allclose(state.gnh_action(w), H_w @ w, atol=1e-11)

    def test_elliptic_block_action_matches_columns(self):
        model, _ = elliptic_whitened(8)
        rng = np.random.default_rng(2)
        state = model.state(0.5 * rng.standard_normal(model.n))
        W = rng.standard_normal((model.n, 6))
        cols = np.column_stack([state.gnh_action(W[:, j]) for j in range(6)])
        block = state.gnh_action(W)
        assert np.abs(block - cols).max() <= 1e-12 * np.abs(cols).max()


class TestCurvatureReuse:
    """A model Jacobian array is decomposed once per chain; anything else is
    recomputed."""

    @staticmethod
    def rank_calls(monkeypatch):
        """Ranks of the position-specific decompositions (no threshold)."""
        calls = []
        real = chain.local_spectrum

        def counted(jv, rank, threshold=None):
            if threshold is None:
                calls.append(rank)
            return real(jv, rank, threshold)

        monkeypatch.setattr(chain, "local_spectrum", counted)
        return calls

    def test_linear_states_share_one_jacobian(self):
        model, lm = linear_whitened()
        rng = np.random.default_rng(0)
        a, b = (model.state(rng.standard_normal(4)) for _ in range(2))
        assert a.ustate.jac is b.ustate.jac
        assert np.array_equal(a.jv, (lm.prior.S @ lm._jac.T).T)
        assert np.array_equal(a.jv, b.jv)
        with pytest.raises(ValueError):
            a.ustate.jac[0, 0] = 1.0

    def test_elliptic_states_whiten_their_own_jacobian(self):
        model, _ = elliptic_whitened(8)
        rng = np.random.default_rng(0)
        a, b = (model.state(0.5 * rng.standard_normal(model.n)) for _ in range(2))
        assert a.jv is not b.jv
        assert not np.array_equal(a.jv, b.jv)

    @pytest.mark.parametrize("algorithm", ["dr-inf-mmala", "dr-inf-mhmc"])
    def test_linear_chain_decomposes_once(self, algorithm, monkeypatch):
        calls = self.rank_calls(monkeypatch)
        model, _ = linear_whitened()
        rec = run_small(model, algorithm, iterations=60)
        assert rec.accepts.any()
        assert calls == [3]

    def test_elliptic_chain_decomposes_every_state(self, monkeypatch):
        calls = self.rank_calls(monkeypatch)
        model, _ = elliptic_whitened(8)
        rec = run_small(model, "dr-inf-mmala", iterations=12)
        assert rec.meta["error_rejects"] == 0
        assert len(calls) == 12 + 1

    def test_chains_of_different_rank_share_a_model(self):
        shared, _ = linear_whitened()
        runs = [("dr-inf-mmala", 2), ("dr-inf-mhmc", 3), ("dr-inf-mmala", 4)]
        on_shared = [run_small(shared, alg, iterations=40, rank=r)
                     for alg, r in runs]
        for (alg, r), rec in zip(runs, on_shared):
            fresh = run_small(linear_whitened()[0], alg, iterations=40, rank=r)
            assert np.array_equal(rec.samples, fresh.samples)
            assert np.array_equal(rec.accepts, fresh.accepts)


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
        rec = run_chain(model, RunConfig(algorithm="pcn", iterations=50,
                                         burn_in=10, h=0.05, seed=0))
        assert rec.pde_solves[-1] == 51

    def test_inf_mala_forward_plus_adjoint(self):
        model, _ = elliptic_whitened(6)
        rec = run_chain(model, RunConfig(algorithm="inf-mala", iterations=50,
                                         burn_in=10, h=0.02, seed=0))
        assert rec.pde_solves[-1] == 102

    def test_chains_on_one_model_count_only_their_own_solves(self):
        model, _ = elliptic_whitened(6)
        cfg = RunConfig(algorithm="pcn", iterations=20, burn_in=5, h=0.05, seed=0)
        first, second = run_chain(model, cfg), run_chain(model, cfg)
        assert np.array_equal(first.pde_solves, second.pde_solves)
        assert second.pde_solves[-1] == 21
        assert np.array_equal(first.samples, second.samples)

    def test_rejected_candidates_still_cost_solves(self):
        model, _ = elliptic_whitened(6)
        # absurd step: everything rejected, solves still 1 per iteration
        rec = run_chain(model, RunConfig(algorithm="pcn", iterations=30,
                                         burn_in=5, h=3.999, seed=0))
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

    @pytest.mark.parametrize("algorithm", ["dr-inf-mmala", "inf-hmc"])
    def test_non_adaptive_records_no_lis(self, algorithm):
        model, _ = linear_whitened()
        rec = run_small(model, algorithm)
        assert "lis" not in rec.meta and "lis_state" not in rec.meta

    def test_inf_hmc_runs_on_a_frozen_empty_spectrum(self, monkeypatch):
        # burn-in and n_lag make updates due, yet nothing decomposes or
        # adapts: every proposal gets the chain's one empty spectrum
        model, _ = linear_whitened()
        calls, specs, propose = [], [], chain.dr_mhmc_propose

        def never(name):
            return lambda *args, **kwargs: calls.append(name)

        def spy(v, spec, *args, **kwargs):
            specs.append(spec)
            return propose(v, spec, *args, **kwargs)

        monkeypatch.setattr(chain, "local_spectrum", never("local_spectrum"))
        monkeypatch.setattr("drgmc.lis.update_lis", never("update_lis"))
        monkeypatch.setattr(chain, "adaptation_step", never("adaptation_step"))
        monkeypatch.setattr(chain, "dr_mhmc_propose", spy)
        rec = run_small(model, "inf-hmc", iterations=60, burn_in=40, n_lag=10)
        assert calls == []
        assert len(specs) == 60 and all(spec is specs[0] for spec in specs)
        assert isinstance(specs[0], LowRankSpectrum) and specs[0].r == 0
        assert "lis" not in rec.meta


class _FailingState:
    """Finite only at u = 0; phi, grad and jac raise `error` elsewhere."""

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

    @property
    def jac(self):
        self._check()
        return np.eye(len(self.u))


class _BlockFailingState:
    """Quadratic target whose Jacobian, and so every GNH block, raises."""

    def __init__(self, u):
        self.u = u
        self.phi = 0.5 * float(u @ u)
        self.grad = u.copy()

    @property
    def jac(self):
        raise FloatingPointError("synthetic Jacobian failure")


def failing_whitened(error, n=4):
    return WhitenedModel(CovarianceOperator(np.eye(n)),
                         lambda u: _FailingState(u, error))


class _NoDerivativeState:
    """Potential 0 at u = 0 and failing elsewhere; the gradient and the
    Jacobian fail everywhere."""

    def __init__(self, u):
        self.u = u

    @property
    def phi(self):
        if np.any(self.u):
            raise FloatingPointError("synthetic potential failure")
        return 0.0

    @property
    def grad(self):
        raise FloatingPointError("synthetic gradient failure")

    @property
    def jac(self):
        raise FloatingPointError("synthetic Jacobian failure")


# What the first iteration on _NoDerivativeState draws before it fails, in
# order. A Hamiltonian kernel draws its leapfrog count first; every kernel
# reads the spectrum and gradient its proposal needs before drawing noise.
ERROR_DRAWS = {
    "pcn": ("noise",),  # reads nothing first; the candidate's potential fails
    "inf-mala": (),  # the gradient fails
    "inf-hmc": ("count", "noise"),  # the gradient is first read by the integrator
    "dr-inf-mmala": (),  # the spectrum fails
    "dr-inf-mhmc": ("count",),  # the spectrum fails
    "dili": (),  # the gradient fails (its operators weight it)
    "adr-inf-mmala": (),  # the gradient fails
    "adr-inf-mhmc": ("count", "noise"),  # the global spectrum holds; the integrator fails
}


class _Stop(Exception):
    pass


class _NanState:
    """Quadratic target whose potential is NaN off the origin."""

    def __init__(self, u):
        self.u = u
        self.phi = float("nan") if np.any(u) else 0.0
        self.grad = u.copy()
        self.jac = np.eye(len(u))


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
        # a GNH block whose Jacobian fails is not retried: its
        # FloatingPointError reaches the MH step, which rejects
        model = WhitenedModel(CovarianceOperator(np.eye(4)), _BlockFailingState)
        rec = run_small(model, "dr-inf-mmala", iterations=30)
        assert not rec.accepts.any()
        assert rec.meta["error_rejects"] == 30

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_failing_iteration_draws(self, algorithm, monkeypatch):
        # an ERROR iteration leaves the stream exactly where its draws so
        # far put it, so the iterations after it see the numbers they did
        n = 4
        model = WhitenedModel(CovarianceOperator(np.eye(n)), _NoDerivativeState)
        real, seen = chain._mh_step, []

        def once(kernel, ctx, state):
            if algorithm == "dili":  # a subspace on which G weights the gradient
                ctx.lis = LISState(LowRankSpectrum(np.array([1.0]), np.eye(n)[:, :1]))
            before = ctx.rng.bit_generator.state
            outcome = real(kernel, ctx, state)[1]
            seen.append((before, outcome, ctx.rng.bit_generator.state))
            raise _Stop

        monkeypatch.setattr(chain, "_mh_step", once)
        with pytest.raises(_Stop):
            run_small(model, algorithm, n_leapfrog=3)
        (before, outcome, after), = seen
        assert outcome == chain.ERROR
        ref = np.random.default_rng()
        ref.bit_generator.state = before
        for draw in ERROR_DRAWS[algorithm]:
            if draw == "count":
                ref.integers(1, 4)
            else:
                ref.standard_normal(n)
        assert after == ref.bit_generator.state

    def test_nan_log_ratio_rejects_are_counted(self, tmp_path):
        # decide rejects a NaN log ratio; the chain counts each one
        model = WhitenedModel(CovarianceOperator(np.eye(4)), _NanState)
        cfg = RunConfig(model="linear-gaussian", lin_n=4, algorithm="pcn",
                        h=0.1, iterations=40, burn_in=10, seed=3)
        rec = run_chain(model, cfg)
        assert not rec.accepts.any()
        assert rec.meta["nonfinite_rejects"] == 40
        assert rec.meta["error_rejects"] == 0
        with pytest.warns(UserWarning, match="constant"):  # ESS of a stuck chain
            runio.write_run(tmp_path, rec, cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["nonfinite_rejects"] == 40

    @pytest.mark.parametrize("algorithm", ["dili", "adr-inf-mmala",
                                           "adr-inf-mhmc"])
    def test_failed_lis_update_is_counted(self, algorithm, tmp_path):
        # the kernels hold the (empty) global subspace fixed and never call
        # the block action; only the burn-in LIS updates do, and they fail.
        # At burn_in=40 the second failure is on the last burn-in iteration.
        model = WhitenedModel(CovarianceOperator(np.eye(4)), _BlockFailingState)
        for burn_in in (45, 40):
            rec = run_small(model, algorithm, iterations=90, burn_in=burn_in, n_lag=20)
            lis = rec.meta["lis"]
            due = sum((it + 1) % 20 == 0 for it in range(burn_in))
            assert lis["update_errors"] == due == 2
            assert lis["m"] == 0 and lis["r"] == 0 and lis["frozen"]
            assert rec.meta["error_rejects"] == 0
        runio.write_lis(tmp_path, rec.meta)
        assert json.loads((tmp_path / "lis.json").read_text())["update_errors"] == 2
        # without burn-in no update is due and the subspace never freezes
        lis = run_small(model, algorithm, iterations=90, burn_in=0, n_lag=20).meta["lis"]
        assert lis["m"] == 0 and lis["frozen"] is False and lis["update_errors"] == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_other_errors_propagate(self, algorithm):
        with pytest.raises(ValueError, match="synthetic failure"):
            run_small(failing_whitened(ValueError), algorithm, iterations=60)


class TestLeapfrogParams:
    def test_leapfrog_count_follows_the_rng_stream(self):
        model, _ = linear_whitened()
        params = StepParams(h=0.5, gamma_r=1, gamma_perp=1, eps=0.3)
        ctx = chain.KernelContext(model=model, config=None, steps={"n_leapfrog": 4},
                                  params=params, rng=np.random.default_rng(0))
        ref = np.random.default_rng(0)
        counts = [chain._leapfrog_count(ctx) for _ in range(60)]
        assert counts == [int(ref.integers(1, 5)) for _ in range(60)]
        assert sorted(set(counts)) == [1, 2, 3, 4]
        assert all(type(c) is int for c in counts)
        assert ctx.rng.bit_generator.state == ref.bit_generator.state
        # a single step draws nothing
        ctx.steps = {"n_leapfrog": 1}
        assert chain._leapfrog_count(ctx) == 1
        assert ctx.rng.bit_generator.state == ref.bit_generator.state

    def test_inf_hmc_ignores_the_configured_flags(self):
        # inf-hmc is always identity mass with the full gradient
        model, _ = linear_whitened()
        a = run_small(model, "inf-hmc", gamma_r=1, gamma_perp=0, iterations=40)
        b = run_small(model, "inf-hmc", gamma_r=0, gamma_perp=1, iterations=40)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.accepts, b.accepts)


class TestRobustness:
    def test_divergent_hamiltonian_steps_rejected_not_fatal(self):
        model, _ = linear_whitened()
        rec = run_chain(model, RunConfig(algorithm="dr-inf-mhmc", iterations=40,
                                         burn_in=5, h=1.0, eps=40.0,
                                         n_leapfrog=3, rank=3, seed=2))
        assert len(rec.samples) == 40
        assert np.isfinite(rec.potentials).all()

    def test_wall_times_positive_and_solves_monotone(self):
        model, _ = linear_whitened()
        rec = run_small(model, "inf-hmc")
        assert np.all(rec.wall_times >= 0)
        assert np.all(np.diff(rec.pde_solves) >= 0)


def criterion_02_context(algorithm, steps):
    """A kernel context on criterion 02's linear model (n = 8, rank 4 unless
    steps sets it) and its start state; the adaptive kernels hold one fixed
    LIS spectrum."""
    lm = linear_model.random_model(n=8, m=4, seed=20260815, noise_scale=0.5)
    model = WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
    config = RunConfig(algorithm=algorithm, iterations=10, burn_in=0, **{"rank": 4, **steps})
    resolved = config.resolved_steps()
    params = StepParams(h=resolved["h"], gamma_r=config.gamma_r,
                        gamma_perp=config.gamma_perp, eps=resolved["eps"])
    ctx = chain.KernelContext(model=model, config=config, steps=resolved,
                              params=params, rng=np.random.default_rng(26))
    state = model.state(np.zeros(model.n))
    if algorithm in chain.ADAPTIVE:
        ctx.lis = LISState(local_spectrum(state.jv, config.rank))
    return ctx, state


class TestProjectionMemo:
    @staticmethod
    def spy(monkeypatch):
        """Every array LowRankSpectrum.project is given, kept alive so that
        no two of them share an id."""
        seen, project = [], LowRankSpectrum.project

        def counted(spec, x):
            seen.append(x)
            return project(spec, x)

        monkeypatch.setattr(LowRankSpectrum, "project", counted)
        return seen

    @pytest.mark.parametrize("algorithm,steps,most", [
        ("dr-inf-mmala", dict(h=2.0), 5),
        ("adr-inf-mmala", dict(h=2.0), 5),
        ("dili", dict(h_r=0.5, h_perp=0.5), 3),
        # rank 3 < m leaves the proposal inexact, so some candidates are
        # rejected and the state that stays keeps its memo
        ("dr-inf-mmala", dict(h=2.0, rank=3), 5),
        # plus 2 per leapfrog step: the noise and the two end momenta, and
        # v and the gradient at each new point; the drift at v_0 is kept
        ("dr-inf-mhmc", dict(h=0.5, n_leapfrog=3), 3),
        ("adr-inf-mhmc", dict(h=0.5, n_leapfrog=3), 3),
    ])
    def test_each_array_is_projected_once(self, algorithm, steps, most, monkeypatch):
        # with the spectrum fixed, a step projects its noise, its two
        # innovations (DR) and the candidate's v and gradient; the current
        # state's v and gradient were projected when it was a candidate.
        # At rank 4 every DR-mMALA candidate on this model is accepted.
        ctx, state = criterion_02_context(algorithm, steps)
        kernel = chain._KERNELS[algorithm]
        state, _ = chain._mh_step(kernel, ctx, state)  # decomposes the spectrum
        seen = self.spy(monkeypatch)
        n_steps, propose = [0], chain.dr_mhmc_propose

        def counted(v, spec, params, drift_fn, vt, count, spec_fn=None):
            n_steps[0] = count
            return propose(v, spec, params, drift_fn, vt, count, spec_fn)

        monkeypatch.setattr(chain, "dr_mhmc_propose", counted)
        outcomes, iterations = [], 300
        for _ in range(iterations):
            before = len(seen)
            state, outcome = chain._mh_step(kernel, ctx, state)
            outcomes.append(outcome)
            assert len(seen) - before <= most + 2 * n_steps[0]
        assert chain.ACCEPTED in outcomes
        exact = ctx.config.rank == 4 and algorithm.endswith("mmala")
        assert (chain.REJECTED in outcomes) is not exact
        assert len({id(x) for x in seen}) == len(seen)

    @pytest.mark.parametrize("gamma_r,gamma_perp", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_memo_follows_the_spectrum(self, gamma_r, gamma_perp, monkeypatch):
        # an LIS update between two iterations hands a state a new spectrum;
        # each answer is formed for the spectrum asked about, and only the
        # very same spectrum object is answered from the memo
        model, _ = linear_whitened(n=6, m=3, seed=4)
        rng = np.random.default_rng(5)
        state = model.state(rng.standard_normal(6))
        a, b = (LowRankSpectrum(np.array([4.0, 1.5, 0.2]),
                                np.linalg.qr(rng.standard_normal((6, 3)))[0])
                for _ in range(2))
        a_copy = LowRankSpectrum(a.eigenvalues.copy(), a.basis.copy())
        params = StepParams(h=0.5, gamma_r=gamma_r, gamma_perp=gamma_perp)
        seen = self.spy(monkeypatch)
        for spec in (a, b, a, a_copy):
            before = len(seen)
            gr, g_perp, _ = chain._values(state, spec, params)
            assert len(seen) > before  # formed anew: no earlier answer is reused
            projected = 2 if gamma_r or gamma_perp else 1  # v, and the gradient when read
            assert chain._values(state, spec, params)[0] is gr and len(seen) == before + projected
            cv, cg = spec.project(state.v), spec.project(state.grad)
            assert np.array_equal(gr, reduced_ngrad(cv, cg, spec, gamma_r))
            if gamma_perp:
                assert np.array_equal(g_perp, state.grad - spec.lift(cg))
            else:
                assert g_perp is None
