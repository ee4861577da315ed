"""Global subspace accumulation: local spectra, merging, stopping rules."""

import numpy as np
import pytest

from drgmc.config import RunConfig
from drgmc.lis import (
    LISState,
    _merge_spectra,
    adaptation_due,
    adaptation_step,
    freeze,
    local_spectrum,
    update_lis,
)
from drgmc.operators import LowRankSpectrum, forstner_distance


def initial_state(n, **schedule):
    """Empty LIS state on RunConfig's default schedule, with overrides."""
    cfg = RunConfig()
    args = dict(rho_g=cfg.threshold, delta_lis=cfg.delta_lis,
                m_max=cfg.m_max, n_lag=cfg.n_lag)
    args.update(schedule)
    return LISState.initial(n, **args)


def random_spectrum(n, r, seed=0, scale=6.0):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.sort(rng.uniform(0.1, scale, r))[::-1]
    return LowRankSpectrum(lam, V)


def dense_of(spec, n):
    return (spec.basis * spec.eigenvalues) @ spec.basis.T if spec.r else np.zeros((n, n))


class TestLocalSpectrum:
    def test_rank_mode_matches_dense(self):
        n = 20
        rng = np.random.default_rng(0)
        B = rng.standard_normal((n, 6))
        H = B @ B.T
        spec = local_spectrum(lambda x: H @ x, n, rank=6,
                              rng=np.random.default_rng(1))
        lam = np.linalg.eigvalsh(H)[::-1][:6]
        assert np.allclose(spec.eigenvalues, lam, rtol=1e-9, atol=1e-9)

    def test_threshold_mode_truncates(self):
        n = 30
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.concatenate([[10.0, 5.0, 1.0], np.full(n - 3, 1e-4)])
        H = (Q * lam) @ Q.T
        spec = local_spectrum(lambda x: H @ x, n, threshold=2.0, max_rank=10,
                              rng=np.random.default_rng(3))
        # absolute cutoff: eigenvalues below 2.0 are prior-dominated
        assert spec.r == 2
        assert np.allclose(spec.eigenvalues, [10.0, 5.0], rtol=1e-6)

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one"):
            local_spectrum(lambda x: x, 5)
        with pytest.raises(ValueError, match="exactly one"):
            local_spectrum(lambda x: x, 5, rank=2, threshold=0.1)

    def test_probe_slicing_and_narrow_probe(self):
        n = 12
        rng = np.random.default_rng(4)
        B = rng.standard_normal((n, 4))
        H = B @ B.T
        wide = rng.standard_normal((n, n))
        s1 = local_spectrum(lambda x: H @ x, n, rank=4, probe=wide)
        s2 = local_spectrum(lambda x: H @ x, n, rank=4, probe=wide)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)  # deterministic
        with pytest.raises(ValueError, match="too narrow"):
            local_spectrum(lambda x: H @ x, n, rank=4, probe=wide[:, :3])


class TestMerge:
    def test_weighted_average_on_joint_span(self):
        n = 10
        a = random_spectrum(n, 3, seed=5)
        b = random_spectrum(n, 4, seed=6)
        m = 3
        lam, basis = _merge_spectra(a, m, b)
        dense = (m * dense_of(a, n) + dense_of(b, n)) / (m + 1)
        lam_ref = np.linalg.eigvalsh(dense)[::-1][: lam.size]
        assert np.allclose(lam, lam_ref, atol=1e-10)
        # reconstructed operator agrees on the joint span
        merged_dense = (basis * lam) @ basis.T
        assert np.allclose(merged_dense, dense, atol=1e-9)

    def test_merge_same_spectrum_is_fixed_point(self):
        n = 8
        a = random_spectrum(n, 3, seed=7)
        lam, basis = _merge_spectra(a, 5, a)
        assert np.allclose(np.sort(lam)[::-1][:3], a.eigenvalues, atol=1e-10)
        merged = LowRankSpectrum(np.clip(lam, 0, None), basis)
        assert forstner_distance(a, merged) < 1e-6


class TestUpdateLis:
    def test_first_update_installs_truncated_local(self):
        state = initial_state(12, rho_g=0.05)
        local = random_spectrum(12, 5, seed=8)
        new = update_lis(state, local)
        keep = int(np.sum(local.eigenvalues >= 0.05))
        assert new.m == 1 and new.r == keep
        assert len(new.history) == 1
        assert new.history[0][0] == 1

    def test_d_f_tracks_change(self):
        state = initial_state(10, rho_g=1e-9)
        a = random_spectrum(10, 3, seed=9)
        state = update_lis(state, a)
        d1 = state.d_f
        state = update_lis(state, a)  # same information again
        assert state.d_f < d1
        assert state.d_f < 1e-6  # average of identical operators is itself

    def test_frozen_and_budget_errors(self):
        state = initial_state(6)
        with pytest.raises(ValueError, match="frozen"):
            update_lis(freeze(state), random_spectrum(6, 2))
        spent = initial_state(6, m_max=0)
        with pytest.raises(ValueError, match="budget"):
            update_lis(spent, random_spectrum(6, 2))


class TestAdaptationSchedule:
    def test_due_on_lag_boundaries_only(self):
        state = initial_state(6, n_lag=10)
        due = [n for n in range(35) if adaptation_due(n, state)]
        assert due == [9, 19, 29]

    def test_not_due_when_frozen_or_converged(self):
        state = initial_state(6, n_lag=5)
        assert not adaptation_due(4, freeze(state))
        from dataclasses import replace
        assert not adaptation_due(4, replace(state, d_f=1e-9, delta_lis=1e-5))

    def test_step_freezes_on_budget(self):
        state = initial_state(8, n_lag=1, m_max=2, delta_lis=0.0)
        calls = iter(range(100))
        spec_fn = lambda: random_spectrum(8, 3, seed=next(calls))
        state = adaptation_step(0, state, spec_fn)
        assert state.m == 1 and not state.frozen
        state = adaptation_step(1, state, spec_fn)
        assert state.m == 2 and state.frozen
        # frozen states pass through untouched
        assert adaptation_step(2, state, spec_fn) is state

    def test_step_freezes_on_stall(self):
        state = initial_state(8, n_lag=1, delta_lis=1e-5)
        a = random_spectrum(8, 3, seed=11)
        state = adaptation_step(0, state, lambda: a)
        for n in range(1, 6):
            state = adaptation_step(n, state, lambda: a)
            if state.frozen:
                break
        assert state.frozen
        assert state.d_f < 1e-5
