"""Acceptance ratios against brute-force Gaussian transition densities.

Every reduced-form ratio in the package is checked here against a dense
reference that knows nothing about the low-rank algebra: it evaluates the
full proposal density (mean, covariance, normalization) and the whitened
target directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgmc.acceptance import (
    decide,
    dili_exact_log_ratio,
    dr_mhmc_delta_E,
    dr_mmala_log_ratio,
    inf_mala_log_ratio,
    pcn_log_ratio,
)
from drgmc.operators import LowRankSpectrum, apply_sqrtK_hat
from drgmc.proposals import (
    StepParams,
    dili_operators,
    dili_propose,
    dr_mhmc_propose,
    dr_mmala_propose,
    inf_hmc_propose,
    inf_mala_propose,
    pcn_propose,
)

from _dense_reference import (
    dili_connection_operators,
    dili_coords,
    dili_log_ratio,
    dili_mean_cov,
    dili_unnormalized_log_ratio,
    dr_mmala_mean_cov,
    drift,
    drift_fn,
    hmc_total_energy,
    inf_mala_mean_cov,
    mh_log_ratio,
    reduced,
    rho_params,
    spectrum_arrays,
    split_delta_E,
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


class _ZeroRandom:
    """An rng stub whose one uniform draw is 0.0, the bottom of [0, 1)."""

    def random(self):
        return 0.0


class TestDecide:
    def test_always_accepts_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert decide(0.0, rng)
            assert decide(5.0, rng)

    def test_never_accepts_minus_inf(self):
        rng = np.random.default_rng(1)
        assert not any(decide(float("-inf"), rng) for _ in range(100))

    def test_nan_rejected(self):
        rng = np.random.default_rng(2)
        assert not any(decide(float("nan"), rng) for _ in range(100))
        assert not decide(np.float64("nan"), rng)

    @pytest.mark.parametrize("log_ratio", [0.5, -0.7, float("-inf"), float("nan")])
    def test_draws_exactly_one_uniform(self, log_ratio):
        # every outcome consumes the same stream, so a chain's later draws
        # do not depend on what its ratios were
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        assert type(decide(log_ratio, rng)) is bool
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_zero_draw_is_u_equal_one(self):
        # random() may return 0.0; u = 1 - 0.0 = 1 keeps log u finite, and
        # log u = 0 is never below min(0, lr), so nothing is accepted
        for lr in (5.0, 0.0, -0.7, float("-inf"), float("nan")):
            assert decide(lr, _ZeroRandom()) is False

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-5.0, 0.0))
    def test_uniform_draw_in_half_open_interval(self, seed, log_ratio):
        # decide's u is 1 - random() of its stream, and it accepts iff log u < lr
        u = 1.0 - np.random.default_rng(seed).random()
        assert 0.0 < u <= 1.0
        assert decide(log_ratio, np.random.default_rng(seed)) == (math.log(u) < log_ratio)

    def test_acceptance_frequency(self):
        rng = np.random.default_rng(3)
        lr = -0.7
        hits = sum(decide(lr, rng) for _ in range(200000))
        assert hits / 200000 == pytest.approx(math.exp(lr), abs=0.005)


class TestPcnRatio:
    def test_is_potential_difference(self):
        assert pcn_log_ratio(1.5, 0.25) == pytest.approx(1.25)

    def test_prior_terms_cancel_in_dense_reference(self):
        # the dense MH ratio for the autoregressive proposal collapses to
        # the potential difference: verifies the proposal is prior-reversible
        n = 7
        phi, _ = quadratic_target(n, seed=3)
        params = StepParams(h=0.6, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(4)
        rho0, _, rho2 = rho_params(params.h)
        for _ in range(25):
            v = rng.standard_normal(n)
            vp = pcn_propose(v, params, rng.standard_normal(n))
            ref = mh_log_ratio(v, vp, phi(v), phi(vp),
                               rho0 * v, rho2 ** 2 * np.eye(n),
                               rho0 * vp, rho2 ** 2 * np.eye(n))
            assert abs(ref - pcn_log_ratio(phi(v), phi(vp))) < 1e-10


class TestInfMalaRatio:
    def test_matches_dense_densities(self):
        n = 5
        phi, grad = quadratic_target(n, seed=5)
        params = StepParams(h=0.5, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = rng.standard_normal(n)
            vp = inf_mala_propose(v, grad(v), params, rng.standard_normal(n))
            m_f, c_f = inf_mala_mean_cov(v, grad(v), params.h)
            m_r, c_r = inf_mala_mean_cov(vp, grad(vp), params.h)
            ref = mh_log_ratio(v, vp, phi(v), phi(vp), m_f, c_f, m_r, c_r)
            mine = inf_mala_log_ratio(v, vp, grad(v), grad(vp),
                                      phi(v), phi(vp), params)
            assert abs(ref - mine) < 1e-11

    def test_antisymmetry(self):
        n = 4
        phi, grad = quadratic_target(n, seed=7)
        params = StepParams(h=0.8, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(8)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        a = inf_mala_log_ratio(v, vp, grad(v), grad(vp), phi(v), phi(vp), params)
        b = inf_mala_log_ratio(vp, v, grad(vp), grad(v), phi(vp), phi(v), params)
        assert a == pytest.approx(-b, abs=1e-12)


class TestDrMmalaRatio:
    @pytest.mark.parametrize("gamma_perp", [0, 1])
    def test_matches_dense_densities_position_specific(self, gamma_perp):
        # the spectrum differs between v and v', exercising the full
        # position-specific density bookkeeping including determinants
        n, r = 8, 3
        phi, grad = quadratic_target(n, seed=9)
        params = StepParams(h=0.9, gamma_r=1, gamma_perp=gamma_perp)
        rng = np.random.default_rng(10)
        for trial in range(60):
            spec_v = random_spectrum(n, r, seed=200 + trial)
            spec_vp = random_spectrum(n, r + 1, seed=400 + trial)
            v = rng.standard_normal(n)
            vp = dr_mmala_propose(v, drift(v, grad(v), spec_v, params), spec_v, params,
                                  rng.standard_normal(n))
            Vv, lv = spectrum_arrays(spec_v)
            Vp, lp = spectrum_arrays(spec_vp)
            m_f, c_f = dr_mmala_mean_cov(v, grad(v), Vv, lv, params.h, 1, gamma_perp)
            m_r, c_r = dr_mmala_mean_cov(vp, grad(vp), Vp, lp, params.h, 1, gamma_perp)
            ref = mh_log_ratio(v, vp, phi(v), phi(vp), m_f, c_f, m_r, c_r)
            mine = dr_mmala_log_ratio(v, vp, spec_v, spec_vp,
                                      reduced(v, grad(v), spec_v, params),
                                      reduced(vp, grad(vp), spec_vp, params),
                                      phi(v), phi(vp), params)
            assert abs(ref - mine) < 1e-10

    def test_empty_spectrum_reduces_to_pcn(self):
        n = 6
        phi, grad = quadratic_target(n, seed=11)
        params = StepParams(h=0.4, gamma_r=0, gamma_perp=0)
        spec = LowRankSpectrum.empty(n)
        rng = np.random.default_rng(12)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        mine = dr_mmala_log_ratio(v, vp, spec, spec, reduced(v, None, spec, params),
                                  reduced(vp, None, spec, params),
                                  phi(v), phi(vp), params)
        assert mine == pytest.approx(pcn_log_ratio(phi(v), phi(vp)), abs=1e-12)

    def test_antisymmetry_with_swapped_spectra(self):
        n, r = 7, 3
        phi, grad = quadratic_target(n, seed=13)
        params = StepParams(h=1.3, gamma_r=1, gamma_perp=1)
        sa, sb = random_spectrum(n, r, seed=14), random_spectrum(n, r, seed=15)
        rng = np.random.default_rng(16)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        a = dr_mmala_log_ratio(v, vp, sa, sb, reduced(v, grad(v), sa, params),
                               reduced(vp, grad(vp), sb, params),
                               phi(v), phi(vp), params)
        b = dr_mmala_log_ratio(vp, v, sb, sa, reduced(vp, grad(vp), sb, params),
                               reduced(v, grad(v), sa, params),
                               phi(vp), phi(v), params)
        assert a == pytest.approx(-b, abs=1e-11)


class TestDiliRatios:
    def test_exact_ratio_matches_dense_densities(self):
        n, r = 9, 4
        phi, grad = quadratic_target(n, seed=17)
        spec = random_spectrum(n, r, seed=18)
        rng = np.random.default_rng(19)
        for gamma_r in (0, 1):
            ops = dili_operators(spec, h_r=0.7, h_perp=0.3, gamma_r=gamma_r)
            V, lam = spectrum_arrays(spec)
            for _ in range(40):
                v = rng.standard_normal(n)
                vp = dili_propose(v, *dili_coords(v, grad(v), spec, ops), spec, ops,
                                  rng.standard_normal(n))
                m_f, c_f = dili_mean_cov(v, grad(v), V, ops)
                m_r, c_r = dili_mean_cov(vp, grad(vp), V, ops)
                ref = mh_log_ratio(v, vp, phi(v), phi(vp), m_f, c_f, m_r, c_r)
                (z, cg), (zp, cgp) = (dili_coords(v, grad(v), spec, ops),
                                      dili_coords(vp, grad(vp), spec, ops))
                mine = dili_exact_log_ratio(z, zp, cg, cgp, phi(v), phi(vp), ops)
                assert abs(ref - mine) < 1e-10

    def test_determinant_form_matches_unnormalized_dense_ratio(self):
        # independent route to the determinant-term statement: drop the
        # proposal normalization constants in the dense ratio and compare
        n, r = 8, 3
        phi, grad = quadratic_target(n, seed=21)
        params = StepParams(h=0.8, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(22)
        for trial in range(40):
            spec_v = random_spectrum(n, r, seed=600 + trial)
            spec_vp = random_spectrum(n, r, seed=800 + trial)
            v = rng.standard_normal(n)
            vp = dr_mmala_propose(v, drift(v, grad(v), spec_v, params), spec_v, params,
                                  rng.standard_normal(n))
            Vv, lv = spectrum_arrays(spec_v)
            Vp, lp = spectrum_arrays(spec_vp)
            m_f, c_f = dr_mmala_mean_cov(v, grad(v), Vv, lv, params.h, 1, 0)
            m_r, c_r = dr_mmala_mean_cov(vp, grad(vp), Vp, lp, params.h, 1, 0)
            ref = dili_unnormalized_log_ratio(v, vp, phi(v), phi(vp),
                                              m_f, c_f, m_r, c_r)
            mine = dili_log_ratio(v, vp, spec_v, grad(v), grad(vp),
                                  phi(v), phi(vp), params, spec_vp=spec_vp)
            assert abs(ref - mine) < 1e-10

    def test_determinant_term_identity(self):
        n, r = 7, 3
        phi, grad = quadratic_target(n, seed=23)
        params = StepParams(h=1.1, gamma_r=1, gamma_perp=0)
        rng = np.random.default_rng(24)
        for trial in range(100):
            spec_v = random_spectrum(n, r, seed=1000 + trial)
            spec_vp = random_spectrum(n, r, seed=2000 + trial)
            v, vp = rng.standard_normal(n), rng.standard_normal(n)
            dr = dr_mmala_log_ratio(v, vp, spec_v, spec_vp,
                                    reduced(v, grad(v), spec_v, params),
                                    reduced(vp, grad(vp), spec_vp, params),
                                    phi(v), phi(vp), params)
            dl = dili_log_ratio(v, vp, spec_v, grad(v), grad(vp),
                                phi(v), phi(vp), params, spec_vp=spec_vp)
            det_term = 0.5 * (np.sum(np.log(spec_v.D)) - np.sum(np.log(spec_vp.D)))
            assert dr - dl == pytest.approx(det_term, abs=1e-10)

    def test_frozen_spectrum_connection_agrees_with_dr(self):
        # one global spectrum: the determinant term vanishes and both the
        # exact operator ratio and the DR ratio give the same number
        n, r = 10, 4
        phi, grad = quadratic_target(n, seed=25)
        params = StepParams(h=0.7, gamma_r=1, gamma_perp=0)
        spec = random_spectrum(n, r, seed=26)
        ops = dili_connection_operators(spec, params)
        rng = np.random.default_rng(27)
        elsewhere = np.random.default_rng(34)
        for _ in range(30):
            v = rng.standard_normal(n)
            v_prime = dr_mmala_propose(v, drift(v, grad(v), spec, params), spec, params,
                                       rng.standard_normal(n))
            # the proposed candidate, and one the proposal did not draw
            for vp in (v_prime, elsewhere.standard_normal(n)):
                dr = dr_mmala_log_ratio(v, vp, spec, spec, reduced(v, grad(v), spec, params),
                                        reduced(vp, grad(vp), spec, params),
                                        phi(v), phi(vp), params)
                (z, cg), (zp, cgp) = (dili_coords(v, grad(v), spec, ops),
                                      dili_coords(vp, grad(vp), spec, ops))
                exact = dili_exact_log_ratio(z, zp, cg, cgp, phi(v), phi(vp), ops)
                corrected = dili_log_ratio(v, vp, spec, grad(v), grad(vp),
                                           phi(v), phi(vp), params)
                assert abs(dr - exact) < 1e-10
                assert abs(dr - corrected) < 1e-12


class TestHmcEnergy:
    @pytest.mark.parametrize("gamma_r,gamma_perp,steps", [
        (1, 0, 1), (1, 0, 5), (1, 1, 3), (0, 1, 4), (0, 0, 3),
    ])
    def test_fixed_spectrum_matches_total_energy(self, gamma_r, gamma_perp, steps):
        n, r = 8, 3
        phi, grad = quadratic_target(n, seed=28)
        spec = random_spectrum(n, r, seed=29)
        params = StepParams(h=0.09, gamma_r=gamma_r, gamma_perp=gamma_perp)
        rng = np.random.default_rng(30)
        V, lam = spectrum_arrays(spec)
        for _ in range(10):
            v0 = rng.standard_normal(n)
            vt0 = apply_sqrtK_hat(rng.standard_normal(n), spec)
            out = dr_mhmc_propose(v0, spec, params, drift_fn(grad, params), vt0, steps)
            tr = out.trajectory
            mine = dr_mhmc_delta_E(tr, phi(v0), phi(out.v_prime))
            ref = (hmc_total_energy(out.v_prime, tr.vts[-1], phi(out.v_prime), V, lam)
                   - hmc_total_energy(v0, tr.vts[0], phi(v0), V, lam))
            assert abs(mine - ref) < 1e-9

    @pytest.mark.parametrize("gamma_r,gamma_perp", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_position_specific_matches_split_oracle(self, gamma_r, gamma_perp):
        # eigenvalues and basis both move with the state, so every recorded
        # point carries its own spectrum
        n, r = 7, 3
        phi, grad = quadratic_target(n, seed=35)
        rng = np.random.default_rng(36)
        W = rng.standard_normal((n, r))
        base = np.array([6.0, 2.5, 0.7])

        def spec_fn(v):
            V = np.linalg.qr(W + 0.3 * np.outer(np.tanh(v), np.ones(r)))[0]
            return LowRankSpectrum(base * (1.0 + 0.5 * np.tanh(v @ v / n)), V)

        params = StepParams(h=0.09, gamma_r=gamma_r, gamma_perp=gamma_perp)
        for _ in range(10):
            v0 = rng.standard_normal(n)
            vt0 = apply_sqrtK_hat(rng.standard_normal(n), spec_fn(v0))
            out = dr_mhmc_propose(v0, spec_fn(v0), params, drift_fn(grad, params), vt0, 5,
                                  spec_fn=spec_fn)
            phi_0, phi_I = phi(v0), phi(out.v_prime)
            ref = split_delta_E(out.trajectory, phi_0, phi_I, grad, gamma_r, gamma_perp)
            assert dr_mhmc_delta_E(out.trajectory, phi_0, phi_I) == pytest.approx(
                ref, rel=1e-12)

    def test_inf_hmc_matches_split_oracle(self):
        # empty spectrum: the whole drift is the complement term
        n = 7
        phi, grad = quadratic_target(n, seed=37)
        params = StepParams(h=0.09, gamma_r=0, gamma_perp=1)
        rng = np.random.default_rng(38)
        for _ in range(10):
            v0 = rng.standard_normal(n)
            out = inf_hmc_propose(v0, params, drift_fn(grad, params),
                                  rng.standard_normal(n), 5, LowRankSpectrum.empty(n))
            phi_0, phi_I = phi(v0), phi(out.v_prime)
            ref = split_delta_E(out.trajectory, phi_0, phi_I, grad, 0, 1)
            assert dr_mhmc_delta_E(out.trajectory, phi_0, phi_I) == pytest.approx(
                ref, rel=1e-12)

    def test_flat_target_conserves_energy(self):
        n = 5
        spec = LowRankSpectrum.empty(n)
        for h, gamma_perp in ((0.16, 1), (0.09, 0)):
            params = StepParams(h=h, gamma_r=0, gamma_perp=gamma_perp)
            rng = np.random.default_rng(31)
            v0 = rng.standard_normal(n)
            out = dr_mhmc_propose(v0, spec, params, drift_fn(lambda v: np.zeros(n), params),
                                  apply_sqrtK_hat(rng.standard_normal(n), spec), 25)
            assert abs(dr_mhmc_delta_E(out.trajectory, 0.0, 0.0)) < 1e-10

    def test_reverse_path_negates_energy_difference(self):
        # deterministic position-dependent spectrum: flipping the momentum
        # retraces the path and the energy difference flips sign
        n, r = 6, 2
        phi, grad = quadratic_target(n, seed=32)
        rng = np.random.default_rng(33)
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        base = np.array([5.0, 2.0])

        def spec_fn(v):
            return LowRankSpectrum(base * (1.0 + 0.5 * np.tanh(v @ v / n)), V)

        params = StepParams(h=0.06, gamma_r=1, gamma_perp=1)
        v0 = rng.standard_normal(n)
        vt0 = apply_sqrtK_hat(rng.standard_normal(n), spec_fn(v0))
        fwd = dr_mhmc_propose(v0, spec_fn(v0), params, drift_fn(grad, params), vt0, 4,
                              spec_fn=spec_fn)
        dE_f = dr_mhmc_delta_E(fwd.trajectory, phi(v0), phi(fwd.v_prime))
        vI = fwd.v_prime
        rev = dr_mhmc_propose(vI, spec_fn(vI), params, drift_fn(grad, params),
                              -fwd.trajectory.vts[-1], 4, spec_fn=spec_fn)
        assert np.allclose(rev.v_prime, v0, atol=1e-8)
        dE_r = dr_mhmc_delta_E(rev.trajectory, phi(vI), phi(rev.v_prime))
        assert dE_f == pytest.approx(-dE_r, abs=1e-9)

    def test_diverged_is_infinite(self):
        n = 3
        spec = LowRankSpectrum.empty(n)
        params = StepParams(h=0.5, gamma_r=0, gamma_perp=1, eps=1.0)
        out = dr_mhmc_propose(np.ones(n), spec, params,
                              drift_fn(lambda v: -1e4 * v * np.abs(v), params),
                              np.random.default_rng(34).standard_normal(n), 6)
        assert dr_mhmc_delta_E(out.trajectory, 0.0, 0.0) == float("inf")
