"""Proposal kernels against dense single-purpose references."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgmc import chain, linear_model
from drgmc.operators import LowRankSpectrum, apply_sqrtK_hat
from drgmc.acceptance import dili_exact_log_ratio
from drgmc.lis import LISState
from drgmc.proposals import (
    DIVERGENCE_THRESHOLD,
    DiliOperators,
    StepParams,
    dili_operators,
    dili_propose,
    dr_mhmc_propose,
    dr_mmala_propose,
    inf_hmc_propose,
    inf_mala_propose,
    pcn_propose,
    reduced_ngrad,
    whitened_ngrad,
)

from _dense_reference import (
    dense_K,
    dense_ghat,
    dense_leapfrog_path,
    dense_sqrtK,
    dili_connection_operators,
    dili_coords,
    drift,
    drift_fn,
    reduced,
    rho_params,
)


def random_spectrum(n, r, seed=0, scale=8.0):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.sort(rng.uniform(0.0, scale, r))[::-1]
    return LowRankSpectrum(lam, V)


def quadratic_target(n, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    H = M @ M.T / n
    b = rng.standard_normal(n)
    return (lambda v: 0.5 * v @ H @ v - b @ v), (lambda v: H @ v - b)


class TestStepParams:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 3.999))
    def test_identities(self, h):
        p = StepParams(h=h, gamma_r=1, gamma_perp=0)
        assert p.rho0 == pytest.approx((1 - h / 4) / (1 + h / 4), abs=1e-14)
        assert p.rho0 ** 2 + p.rho2 ** 2 == pytest.approx(1.0, abs=1e-12)
        assert p.rho2 * math.sqrt(h) / 2 == pytest.approx(p.rho1, abs=1e-12)
        assert p.eps == pytest.approx(math.sqrt(h))

    def test_validation(self):
        with pytest.raises(ValueError):
            StepParams(h=0.0, gamma_r=1, gamma_perp=0)
        with pytest.raises(ValueError):
            StepParams(h=1.0, gamma_r=2, gamma_perp=0)
        with pytest.raises(ValueError):
            StepParams(h=1.0, gamma_r=1, gamma_perp=0, eps=-0.1)

    @pytest.mark.parametrize("h,eps", [(math.nan, None), (math.inf, None),
                                       (1.0, math.nan), (1.0, math.inf)])
    def test_refuses_non_finite_steps(self, h, eps):
        with pytest.raises(ValueError, match="finite"):
            StepParams(h=h, gamma_r=1, gamma_perp=0, eps=eps)

    def test_explicit_eps_kept(self):
        assert StepParams(h=1.0, gamma_r=1, gamma_perp=0, eps=0.3).eps == 0.3

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 3.999))
    def test_rho_stored_exactly_as_the_formulas(self, h):
        # computed once at construction, bit for bit the documented formulas,
        # and recomputed by dataclasses.replace
        p = StepParams(h=h, gamma_r=1, gamma_perp=0)
        rho0 = (1.0 - h / 4.0) / (1.0 + h / 4.0)
        assert {k: vars(p)[k] for k in ("rho0", "rho1", "rho2")} == {
            "rho0": rho0, "rho1": 1.0 - rho0, "rho2": math.sqrt(1.0 - rho0 ** 2)}
        q = dataclasses.replace(p, h=h / 2.0)
        assert q.rho0 == (1.0 - h / 8.0) / (1.0 + h / 8.0)
        assert dataclasses.replace(p, gamma_r=0, gamma_perp=1).rho2 == p.rho2

    def test_rho_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            StepParams(h=1.0, gamma_r=1, gamma_perp=0, rho0=0.5)


class TestSimpleProposals:
    def test_pcn_is_autoregressive(self):
        params = StepParams(h=0.7, gamma_r=1, gamma_perp=0)
        v = np.arange(5.0)
        xi = np.random.default_rng(0).standard_normal(5)
        v_prime = pcn_propose(v, params, xi)
        assert np.allclose(v_prime, params.rho0 * v + params.rho2 * xi)

    def test_inf_mala_moments(self):
        params = StepParams(h=0.4, gamma_r=1, gamma_perp=0)
        n = 6
        phi, grad = quadratic_target(n, seed=2)
        v = np.random.default_rng(1).standard_normal(n)
        xi = np.random.default_rng(3).standard_normal(n)
        v_prime = inf_mala_propose(v, grad(v), params, xi)
        expect = (params.rho0 * v
                  + params.rho2 * (xi - math.sqrt(params.h) / 2 * grad(v)))
        assert np.allclose(v_prime, expect, atol=1e-14)


class TestNaturalGradient:
    @pytest.mark.parametrize("gamma_r,gamma_perp", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_matches_dense(self, gamma_r, gamma_perp):
        n, r = 9, 4
        spec = random_spectrum(n, r, seed=5)
        rng = np.random.default_rng(6)
        v, grad = rng.standard_normal(n), rng.standard_normal(n)
        params = StepParams(h=1.0, gamma_r=gamma_r, gamma_perp=gamma_perp)
        ghat = whitened_ngrad(*reduced(v, grad, spec, params), spec, gamma_perp)
        ref = dense_ghat(v, grad, spec.basis, spec.eigenvalues, gamma_r, gamma_perp)
        assert np.allclose(ghat, ref, atol=1e-12)

    def test_full_flags_collapse_to_gap_form(self):
        # gamma_r = gamma_perp = 1: ghat = (I - Khat) v - Khat grad
        n, r = 11, 5
        spec = random_spectrum(n, r, seed=7)
        rng = np.random.default_rng(8)
        v, grad = rng.standard_normal(n), rng.standard_normal(n)
        K = dense_K(spec.basis, spec.eigenvalues, n)
        ref = (np.eye(n) - K) @ v - K @ grad
        params = StepParams(h=1.0, gamma_r=1, gamma_perp=1)
        assert np.allclose(drift(v, grad, spec, params), ref, atol=1e-11)

    @pytest.mark.parametrize("gamma_r,gamma_perp", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_empty_spectrum_matches_general_formula_bit_for_bit(self, gamma_r, gamma_perp):
        # a state's values on r = 0 take at most one operation each; they equal
        # the general formula's g_r = Lambda cv - gamma_r cg, g_perp = grad -
        # lift(project(grad)) and ghat = lift(D g_r) - gamma_perp g_perp in
        # every bit, the sign of a zero included
        n = 6
        spec = LowRankSpectrum.empty(n)
        v = np.array([0.3, -1.2, 0.0, -0.0, 2.5, 1e-300])
        grad = np.array([1.5, -0.0, 0.0, -2.0, 1e300, -1e-300])
        cg = spec.project(grad)
        gr_general = reduced_ngrad(spec.project(v), cg, spec, gamma_r)
        g_perp_general = grad - spec.lift(cg)
        general = spec.lift(spec.D * gr_general)
        if gamma_perp:
            general = general - g_perp_general
        state = chain.WhitenedState(None, None, v)
        state._grad = grad  # the whitened gradient, given as it is
        params = StepParams(h=1.0, gamma_r=gamma_r, gamma_perp=gamma_perp)
        gr, g_perp, ghat = chain._values(state, spec, params)
        for mine, ref in [(gr, gr_general), (ghat, general)] + (
                [(g_perp, g_perp_general)] if gamma_perp else []):
            assert mine.dtype == ref.dtype and mine.shape == ref.shape
            assert np.array_equal(mine, ref)
            assert np.array_equal(np.signbit(mine), np.signbit(ref))
        assert (g_perp is None) == (not gamma_perp)
        assert not np.signbit(ghat).any() or gamma_perp
        assert ghat is not grad

    def test_reduced_part_only(self):
        n, r = 7, 3
        spec = random_spectrum(n, r, seed=9)
        rng = np.random.default_rng(10)
        v, grad = rng.standard_normal(n), rng.standard_normal(n)
        gr = reduced_ngrad(spec.project(v), spec.project(grad), spec, 1)
        assert np.allclose(gr, spec.eigenvalues * (spec.basis.T @ v) - spec.basis.T @ grad)


class TestDrMmala:
    @pytest.mark.parametrize("gamma_perp", [0, 1])
    def test_matches_dense(self, gamma_perp):
        n, r = 10, 4
        spec = random_spectrum(n, r, seed=11)
        params = StepParams(h=0.9, gamma_r=1, gamma_perp=gamma_perp)
        rng = np.random.default_rng(12)
        v, grad = rng.standard_normal(n), rng.standard_normal(n)
        xi = rng.standard_normal(n)
        v_prime = dr_mmala_propose(v, drift(v, grad, spec, params), spec, params, xi)
        rho0, rho1, rho2 = rho_params(params.h)
        ref = (rho0 * v
               + rho1 * dense_ghat(v, grad, spec.basis, spec.eigenvalues, 1, gamma_perp)
               + rho2 * dense_sqrtK(spec.basis, spec.eigenvalues, n) @ xi)
        assert np.allclose(v_prime, ref, atol=1e-11)

    def test_empty_spectrum_no_flags_is_pcn(self):
        n = 8
        spec = LowRankSpectrum.empty(n)
        params = StepParams(h=0.5, gamma_r=0, gamma_perp=0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(n)
        xi = rng.standard_normal(n)
        v_prime = dr_mmala_propose(v, drift(v, None, spec, params), spec, params, xi)
        assert np.allclose(v_prime, params.rho0 * v + params.rho2 * xi)


class TestDiliOperators:
    def test_hand_values(self):
        spec = LowRankSpectrum(np.array([1.0]), np.eye(3)[:, :1])
        ops = dili_operators(spec, h_r=1.0, h_perp=2.0, gamma_r=0)
        assert ops.D_Ar[0] == pytest.approx(0.6, abs=1e-14)
        assert ops.D_Br[0] == pytest.approx(0.8, abs=1e-14)
        assert ops.a_perp == pytest.approx(0.0, abs=1e-14)
        assert ops.b_perp == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-4, 50.0), st.floats(1e-4, 50.0),
           st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
    def test_identities(self, h_r, h_perp, gamma_r, seed):
        spec = random_spectrum(6, 3, seed=seed)
        ops = dili_operators(spec, h_r, h_perp, gamma_r)
        # the complement pair always sits on the unit circle
        assert ops.a_perp ** 2 + ops.b_perp ** 2 == pytest.approx(1.0, abs=1e-12)
        if gamma_r == 0:
            assert np.allclose(ops.D_Ar ** 2 + ops.D_Br ** 2, 1.0, atol=1e-12)
        else:
            hD = h_r * spec.D
            assert np.allclose(ops.D_Ar ** 2 + ops.D_Br ** 2, 1.0 + hD ** 2, atol=1e-10)

    def test_connection_substitution(self):
        spec = random_spectrum(7, 3, seed=3)
        params = StepParams(h=1.1, gamma_r=1, gamma_perp=0)
        ops = dili_connection_operators(spec, params)
        D = spec.D
        assert np.allclose(ops.D_Ar, 1.0 - params.rho1 * D)
        assert np.allclose(ops.D_Br, params.rho2 * np.sqrt(D))
        assert np.allclose(ops.D_Gr, params.rho1 * D)
        assert ops.a_perp == params.rho0 and ops.b_perp == params.rho2

    def test_rejects_bad_steps(self):
        spec = random_spectrum(4, 2)
        with pytest.raises(ValueError):
            dili_operators(spec, h_r=0.0, h_perp=1.0, gamma_r=0)

    @pytest.mark.parametrize("h_r,h_perp", [(math.nan, 0.5), (math.inf, 0.5),
                                            (0.5, math.nan), (0.5, math.inf)])
    def test_rejects_non_finite_steps(self, h_r, h_perp):
        with pytest.raises(ValueError, match="finite"):
            dili_operators(random_spectrum(4, 2), h_r, h_perp, 1)

    def test_rejects_non_reversible_complement(self):
        with pytest.raises(ValueError, match="reversible"):
            DiliOperators(np.ones(2), np.ones(2), np.zeros(2), 0.9, 0.9)

    @pytest.mark.parametrize("a_perp,b_perp", [(math.nan, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_complement(self, a_perp, b_perp):
        with pytest.raises(ValueError, match="reversible"):
            DiliOperators(np.ones(2), np.ones(2), np.zeros(2), a_perp, b_perp)

    @pytest.mark.parametrize("gamma_r", [0, 1])
    def test_uses_grad_follows_gamma_r_on_a_nonempty_subspace(self, gamma_r):
        ops = dili_operators(random_spectrum(5, 2, seed=6), 0.5, 0.5, gamma_r)
        assert ops.uses_grad is bool(gamma_r)


class TestDiliPropose:
    def test_connection_equals_dr_proposal(self):
        n, r = 12, 5
        spec = random_spectrum(n, r, seed=21)
        params = StepParams(h=0.8, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(22)
        for _ in range(20):
            v, grad = rng.standard_normal(n), rng.standard_normal(n)
            xi = rng.standard_normal(n)
            ops = dili_connection_operators(spec, params)
            vp_d = dili_propose(v, *dili_coords(v, grad, spec, ops), spec, ops, xi)
            vp_m = dr_mmala_propose(v, drift(v, grad, spec, params), spec, params, xi)
            assert np.allclose(vp_d, vp_m, atol=1e-10)

    def test_empty_spectrum_with_gradient_flag(self):
        # regression: an unadapted (empty) subspace must not touch the gradient
        n = 6
        spec = LowRankSpectrum.empty(n)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(n)
        ops = dili_operators(spec, 0.5, 0.5, 1)
        assert not ops.uses_grad
        xi = rng.standard_normal(n)
        v_prime = dili_propose(v, spec.project(v), None, spec, ops, xi)
        assert np.allclose(v_prime, ops.a_perp * v + ops.b_perp * xi)

    def test_missing_gradient_raises_in_proposal_and_ratio(self):
        n = 6
        spec = random_spectrum(n, 2, seed=8)
        ops = dili_operators(spec, 0.5, 0.5, 1)
        rng = np.random.default_rng(2)
        v, g = rng.standard_normal(n), rng.standard_normal(n)
        message = "gradient-weighted operators need the gradient"
        z, cg = spec.project(v), spec.project(g)
        with pytest.raises(ValueError, match=message):
            dili_propose(v, z, None, spec, ops, rng.standard_normal(n))
        with pytest.raises(ValueError, match=message):
            dili_exact_log_ratio(z, z, cg, None, 0.0, 0.0, ops)
        with pytest.raises(ValueError, match=message):
            dili_exact_log_ratio(z, z, None, cg, 0.0, 0.0, ops)


class TestLeapfrog:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 0.8), st.integers(1, 10))
    def test_reversibility(self, seed, eps, steps):
        # the integrator inside dr_mhmc_propose, run forward and then back
        # from the end point with the final momentum flipped
        n = 4
        spec = random_spectrum(n, 2, seed=seed % 100)
        _, grad = quadratic_target(n, seed=seed % 100)
        params = StepParams(h=1.0, eps=eps, gamma_r=1, gamma_perp=1)
        rng = np.random.default_rng(seed)
        v0, vt0 = rng.standard_normal(n), rng.standard_normal(n)
        fwd = dr_mhmc_propose(v0, spec, params, drift_fn(grad, params), vt0, steps)
        back = dr_mhmc_propose(fwd.v_prime, spec, params, drift_fn(grad, params),
                               -fwd.trajectory.vts[-1], steps)
        assert np.allclose(back.v_prime, v0, atol=1e-9)
        assert np.allclose(-back.trajectory.vts[-1], vt0, atol=1e-9)


EPS_ONE = 0.5  # leapfrog step of TestDrMhmc.first_step


def momentum_reaching(target):
    """The float a with sin(EPS_ONE) * a == target exactly."""
    s = math.sin(EPS_ONE)
    a = target / s
    while s * a != target:
        a = np.nextafter(a, np.inf if s * a < target else -np.inf)
    return float(a)


class TestDrMhmc:
    def test_trajectory_matches_dense_path(self):
        n, r = 8, 3
        spec = random_spectrum(n, r, seed=31)
        phi, grad = quadratic_target(n, seed=32)
        params = StepParams(h=0.3, gamma_r=1, gamma_perp=1)
        rng = np.random.default_rng(33)
        v0 = rng.standard_normal(n)
        vt0 = apply_sqrtK_hat(rng.standard_normal(n), spec)
        out = dr_mhmc_propose(v0, spec, params, drift_fn(grad, params), vt0, 4)
        drift = lambda v: dense_ghat(v, grad(v), spec.basis, spec.eigenvalues, 1, 1)
        vs, vts = dense_leapfrog_path(v0, vt0, drift, params.eps, 4)
        assert len(out.trajectory.vs) == 5
        for a, b in zip(out.trajectory.vs, vs):
            assert np.allclose(a, b, atol=1e-10)
        for a, b in zip(out.trajectory.vts, vts):
            assert np.allclose(a, b, atol=1e-10)
        assert np.allclose(out.v_prime, vs[-1], atol=1e-10)

    def test_momentum_drawn_through_sqrt_mass(self, monkeypatch):
        # the chain's Hamiltonian kernel draws xi from its stream and hands
        # the proposal the momentum Khat^{1/2} xi
        n, r = 7, 3
        spec = random_spectrum(n, r, seed=41)
        lm = linear_model.random_model(n=n, m=3, seed=42, noise_scale=0.5)
        model = chain.WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
        ctx = chain.KernelContext(
            model=model, config=None, steps={"n_leapfrog": 1},
            params=StepParams(h=0.2, gamma_r=1, gamma_perp=0),
            rng=np.random.default_rng(0), lis=LISState(spec))
        seen = []

        def spy(v, spec_v, params, drift_fn, vt, n_steps, spec_fn=None):
            seen.append((spec_v, vt, n_steps))
            return dr_mhmc_propose(v, spec_v, params, drift_fn, vt, n_steps, spec_fn)

        monkeypatch.setattr(chain, "dr_mhmc_propose", spy)
        chain._dr_mhmc(ctx, model.state(np.zeros(n)))
        xi = np.random.default_rng(0).standard_normal(n)
        (spec_v, vt, n_steps), = seen
        assert spec_v is spec and n_steps == 1
        assert np.array_equal(vt, apply_sqrtK_hat(xi, spec))

    def test_divergence_flag(self):
        n = 3
        spec = LowRankSpectrum.empty(n)
        params = StepParams(h=0.5, gamma_r=0, gamma_perp=1, eps=1.0)
        # explosive anti-restoring force
        grad_fn = lambda v: -1e4 * v * np.abs(v)
        out = dr_mhmc_propose(np.ones(n), spec, params, drift_fn(grad_fn, params),
                              np.random.default_rng(5).standard_normal(n), 6)
        assert out.diverged
        assert len(out.trajectory.vs) <= 6 + 1

    @staticmethod
    def first_step(momentum):
        """One leapfrog step from v_0 = 0 with no drift and vt_0 = [momentum,
        0, 0]: v_1 = sin(eps) vt_0."""
        params = StepParams(h=0.5, gamma_r=0, gamma_perp=0, eps=EPS_ONE)
        return dr_mhmc_propose(np.zeros(3), LowRankSpectrum.empty(3), params,
                               drift_fn(lambda v: np.zeros(3), params),
                               np.array([momentum, 0.0, 0.0]), 1)

    @pytest.mark.parametrize("momentum", [
        np.nan, np.inf, -np.inf,
        momentum_reaching(np.nextafter(DIVERGENCE_THRESHOLD, np.inf)),
        momentum_reaching(1e7)])
    def test_divergence_flag_on_nonfinite_or_beyond_threshold(self, momentum):
        out = self.first_step(momentum)
        assert out.diverged and out.trajectory.diverged
        # the diverged point is not recorded; the proposal stays at v_0
        assert len(out.trajectory.vs) == 1
        assert np.array_equal(out.v_prime, np.zeros(3))

    def test_no_divergence_exactly_at_threshold(self):
        # the test is strict: |v| = DIVERGENCE_THRESHOLD is not a divergence
        out = self.first_step(momentum_reaching(DIVERGENCE_THRESHOLD))
        assert np.linalg.norm(out.v_prime) == DIVERGENCE_THRESHOLD
        assert not out.diverged and not out.trajectory.diverged
        assert len(out.trajectory.vs) == 2

    def test_inf_hmc_reuses_given_flat_spectrum_and_params(self):
        # the chain passes its own empty spectrum and a drift formed with its
        # flat params; the proposal must be dr_mhmc_propose on that spectrum,
        # bit for bit
        n = 5
        _, grad = quadratic_target(n, seed=61)
        v0 = np.random.default_rng(62).standard_normal(n)
        params = StepParams(h=0.2, gamma_r=1, gamma_perp=0)
        flat = dataclasses.replace(params, gamma_r=0, gamma_perp=1)
        spec = LowRankSpectrum.empty(n)
        a = dr_mhmc_propose(v0, spec, flat, drift_fn(grad, flat),
                            np.random.default_rng(63).standard_normal(n), 3)
        b = inf_hmc_propose(v0, flat, drift_fn(grad, flat),
                            np.random.default_rng(63).standard_normal(n), 3, flat=spec)
        assert all(s is spec for s in b.trajectory.specs)
        paths = [(t.vs + t.vts + t.ghats) for t in (a.trajectory, b.trajectory)]
        assert len(paths[0]) == len(paths[1])
        for x, y in zip(*paths):
            assert np.array_equal(x, y)

    def test_inf_hmc_is_identity_mass_full_gradient(self):
        n = 6
        phi, grad = quadratic_target(n, seed=51)
        params = StepParams(h=0.25, gamma_r=0, gamma_perp=1)
        rng = np.random.default_rng(52)
        v0 = rng.standard_normal(n)
        xi = np.random.default_rng(53).standard_normal(n)
        out = inf_hmc_propose(v0, params, drift_fn(grad, params), xi, 3,
                              LowRankSpectrum.empty(n))
        vs, vts = dense_leapfrog_path(v0, xi, lambda v: -grad(v), params.eps, 3)
        assert np.allclose(out.v_prime, vs[-1], atol=1e-11)
