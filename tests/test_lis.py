"""Global subspace accumulation: local spectra, merging, stopping rules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _dense_reference import forstner_dense
from drgmc import lis
from drgmc.config import RunConfig
from drgmc.harness import build_elliptic, run_from_config
from drgmc.lis import (
    LISState,
    _merge_spectra,
    adaptation_step,
    local_spectrum,
    update_lis,
)
from drgmc.operators import LowRankSpectrum, forstner_distance, randomized_eig


def initial_state(n):
    return LISState(LowRankSpectrum.empty(n))


def random_spectrum(n, r, seed=0, scale=6.0):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.sort(rng.uniform(0.1, scale, r))[::-1]
    return LowRankSpectrum(lam, V)


def dense_of(spec, n):
    return (spec.basis * spec.eigenvalues) @ spec.basis.T if spec.r else np.zeros((n, n))


def dense_oracle(jv, keep):
    """Top-`keep` eigenvalues of Jv^T Jv and the projector on their span."""
    lam, Q = np.linalg.eigh(jv.T @ jv)
    lam, Q = lam[::-1][:keep], Q[:, ::-1][:, :keep]
    return lam, Q @ Q.T


class TestLocalSpectrum:
    def test_rank_mode_matches_dense(self):
        n = 20
        rng = np.random.default_rng(0)
        B = rng.standard_normal((n, 6))
        H = B @ B.T
        spec = local_spectrum(B.T, rank=6)
        lam = np.linalg.eigvalsh(H)[::-1][:6]
        assert np.allclose(spec.eigenvalues, lam, rtol=1e-9, atol=1e-9)

    def test_threshold_mode_truncates(self):
        n = 30
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.concatenate([[10.0, 5.0, 1.0], np.full(n - 3, 1e-4)])
        spec = local_spectrum(np.sqrt(lam)[:, None] * Q.T, 10, threshold=2.0)
        # absolute cutoff: eigenvalues below 2.0 are prior-dominated
        assert spec.r == 2
        assert np.allclose(spec.eigenvalues, [10.0, 5.0], rtol=1e-6)

    @pytest.mark.parametrize("m,n,kw,keep", [
        (3, 10, dict(rank=6), 3),                      # rank > m
        (12, 5, dict(rank=4), 4),                      # m > n
        (12, 5, dict(rank=5, threshold=1e-8), 5),      # m > n, all n pairs
        (9, 14, dict(rank=4, threshold=1e-3), 4),      # rank cuts first
    ])
    def test_matches_dense_eigh(self, m, n, kw, keep):
        jv = np.random.default_rng(m * n).standard_normal((m, n))
        spec = local_spectrum(jv, **kw)
        lam, P = dense_oracle(jv, keep)
        assert spec.r == keep
        assert np.allclose(spec.eigenvalues, lam, rtol=1e-10, atol=1e-12)
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(keep), atol=1e-12)
        assert np.allclose(spec.basis @ spec.basis.T, P, atol=1e-10)

    def test_threshold_cut_below_max_rank(self):
        n = 14
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
        lam = np.array([9.0, 4.0, 2.5, 0.5, 0.1, 0.01])
        jv = np.sqrt(lam)[:, None] * Q[:, :6].T
        spec = local_spectrum(jv, 5, threshold=1.0)
        ref, P = dense_oracle(jv, 3)
        assert spec.r == 3
        assert np.allclose(spec.eigenvalues, ref, rtol=1e-10)
        assert np.allclose(spec.basis @ spec.basis.T, P, atol=1e-10)

    def test_zero_jacobian(self):
        jv = np.zeros((4, 6))
        spec = local_spectrum(jv, rank=3)
        assert spec.r == 3
        assert not spec.eigenvalues.any()
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(3), atol=1e-12)
        assert local_spectrum(jv, 6, threshold=1e-6).r == 0

    def test_rank_deficient_jacobian_pads_with_null_directions(self):
        rng = np.random.default_rng(3)
        jv = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 10))
        spec = local_spectrum(jv, rank=4)
        lam, P = dense_oracle(jv, 2)
        assert spec.r == 4
        assert np.allclose(spec.eigenvalues, [*lam, 0.0, 0.0], rtol=1e-10, atol=1e-12)
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(4), atol=1e-12)
        assert np.linalg.norm(jv @ spec.basis[:, 2:]) <= 1e-12
        lead = spec.basis[:, :2]
        assert np.allclose(lead @ lead.T, P, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 31 - 1),
           st.booleans(), st.integers(0, 12), st.none() | st.integers(1, 12))
    def test_matches_dense_oracle_on_random_shapes(self, m, n, seed, by_rank,
                                                   k, max_rank):
        jv = np.random.default_rng(seed).standard_normal((m, n))
        k = min(k, m, n)
        if by_rank:
            spec = local_spectrum(jv, rank=k)
            keep = k
        else:
            # a threshold halfway between the k-th and (k+1)-th eigenvalues
            lam_all = np.append(np.linalg.eigvalsh(jv.T @ jv)[::-1][:min(m, n)], 0.0)
            upper = lam_all[k - 1] if k else 2.0 * lam_all[0] + 1.0
            spec = local_spectrum(jv, max_rank or n,
                                  threshold=0.5 * (upper + lam_all[k]))
            keep = min(k, max_rank or n)
        lam, P = dense_oracle(jv, keep)
        assert spec.r == keep and spec.basis.shape == (n, keep)
        assert np.allclose(spec.eigenvalues, lam, rtol=1e-10, atol=1e-12)
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(keep), atol=1e-12)
        assert np.allclose(spec.basis @ spec.basis.T, P, atol=1e-10)

    def test_non_finite_jacobian_raises(self):
        jv = np.ones((3, 5))
        jv[1, 2] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            local_spectrum(jv, rank=2)

    def test_D_is_filled_on_every_constructor(self):
        spec = local_spectrum(np.random.default_rng(4).standard_normal((5, 9)), rank=4)
        checked = LowRankSpectrum(spec.eigenvalues, spec.basis)
        for s in (spec, checked):
            assert np.array_equal(s.D, 1.0 / (1.0 + s.eigenvalues))
            assert np.array_equal(s.sqrt_D, np.sqrt(s.D))
            assert s.logdet_D == float(np.sum(np.log(s.D)))
        empty = LowRankSpectrum.empty(7)
        assert empty.D.shape == (0,) and empty.sqrt_D.shape == (0,)
        assert np.array_equal(empty.D, 1.0 / (1.0 + empty.eigenvalues))
        assert empty.logdet_D == 0.0

    def test_elliptic_matches_randomized_eig(self):
        model, _ = build_elliptic(RunConfig(model="elliptic", nx=8, ny=8))
        rng = np.random.default_rng(0)
        state = model.state(0.5 * rng.standard_normal(model.n))
        spec = local_spectrum(state.jv, rank=5)
        ref = randomized_eig(state.gnh_action, model.n, 5,
                             rng=np.random.default_rng(1))
        assert spec.r == ref.r == 5
        assert np.allclose(spec.eigenvalues, ref.eigenvalues, rtol=1e-9, atol=0)
        P, R = spec.basis @ spec.basis.T, ref.basis @ ref.basis.T
        assert np.abs(P - R).max() <= 1e-9 * np.abs(R).max()


class TestMerge:
    def test_weighted_average_on_joint_span(self):
        n = 10
        a = random_spectrum(n, 3, seed=5)
        b = random_spectrum(n, 4, seed=6)
        m = 3
        merged, _ = _merge_spectra(a, m, b, 0.0)
        lam, basis = merged.eigenvalues, merged.basis
        dense = (m * dense_of(a, n) + dense_of(b, n)) / (m + 1)
        lam_ref = np.linalg.eigvalsh(dense)[::-1][: lam.size]
        assert np.allclose(lam, lam_ref, atol=1e-10)
        # reconstructed operator agrees on the joint span
        merged_dense = (basis * lam) @ basis.T
        assert np.allclose(merged_dense, dense, atol=1e-9)

    def test_merge_same_spectrum_is_fixed_point(self):
        n = 8
        a = random_spectrum(n, 3, seed=7)
        merged, _ = _merge_spectra(a, 5, a, 0.0)
        lam, basis = merged.eigenvalues, merged.basis
        assert np.allclose(np.sort(lam)[::-1][:3], a.eigenvalues, atol=1e-10)
        merged = LowRankSpectrum(np.clip(lam, 0, None), basis)
        assert forstner_distance(a, merged) < 1e-6


class TestUpdateLis:
    def test_first_update_installs_truncated_local(self):
        state = initial_state(12)
        local = random_spectrum(12, 5, seed=8)
        new = update_lis(state, local, 0.05)
        keep = int(np.sum(local.eigenvalues >= 0.05))
        assert new.m == 1 and new.r == keep
        assert len(new.history) == 1
        assert new.history[0][0] == 1

    def test_d_f_tracks_change(self):
        state = initial_state(10)
        a = random_spectrum(10, 3, seed=9)
        state = update_lis(state, a, 1e-9)
        d1 = state.d_f
        state = update_lis(state, a, 1e-9)  # same information again
        assert state.d_f < d1
        assert state.d_f < 1e-6  # average of identical operators is itself


def inside_span(spec, r, seed):
    """Rank-r spectrum whose basis lies in spec's span."""
    rng = np.random.default_rng(seed)
    rot = np.linalg.qr(rng.standard_normal((spec.r, r)))[0]
    return LowRankSpectrum(np.sort(rng.uniform(0.5, 4.0, r))[::-1], spec.basis @ rot)


class TestMergeInQRCoordinates:
    """update_lis against the dense weighted average and the dense Forstner
    distance, on the stacks the Householder QR must span, with a threshold
    below every merged eigenvalue and one that cuts at least one pair."""

    @pytest.mark.parametrize("n,m,running,local", [
        (10, 0, None, random_spectrum(10, 5, seed=21)),
        (10, 3, random_spectrum(10, 4, seed=22),
         inside_span(random_spectrum(10, 4, seed=22), 2, seed=23)),
        (6, 2, random_spectrum(6, 4, seed=24), random_spectrum(6, 4, seed=25)),
    ], ids=["first-update", "local-inside-running", "stack-wider-than-tall"])
    def test_matches_dense_average_and_forstner(self, n, m, running, local):
        state = initial_state(n) if running is None else LISState(running, m=m)
        dense = (m * dense_of(state.spectrum, n) + dense_of(local, n)) / (m + 1)
        lam_ref, Q = np.linalg.eigh(dense)
        for rho_g, cuts in ((1e-3, False), (1.0, True)):
            new = update_lis(state, local, rho_g)
            keep = lam_ref >= rho_g
            ref = (Q[:, keep] * lam_ref[keep]) @ Q[:, keep].T
            assert new.m == m + 1 and new.r == keep.sum()
            assert (new.r < np.count_nonzero(lam_ref > 1e-8)) == cuts
            assert np.allclose(new.spectrum.eigenvalues, lam_ref[keep][::-1],
                               rtol=1e-10, atol=1e-12)
            V = new.spectrum.basis
            assert np.allclose(V.T @ V, np.eye(new.r), atol=1e-12)
            assert np.allclose(dense_of(new.spectrum, n), ref, atol=1e-10)
            d_ref = forstner_dense(np.eye(n) + dense_of(state.spectrum, n), np.eye(n) + ref)
            assert abs(new.d_f - d_ref) <= 1e-10 * max(1.0, d_ref)
            assert abs(new.d_f - forstner_distance(state.spectrum, new.spectrum)) <= 1e-10

    def test_merge_calls_no_svd(self, monkeypatch):
        # desk-sized bases: 441 rows, the rank range the adaptive chains reach
        running, local = random_spectrum(441, 25, seed=26), random_spectrum(441, 30, seed=27)
        state = LISState(running, m=2)

        def no_svd(*args, **kwargs):
            raise AssertionError("the LIS merge called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        new = update_lis(state, local, 1e-3)
        assert new.r == 55 and np.isfinite(new.d_f)
        assert np.allclose(new.spectrum.basis.T @ new.spectrum.basis, np.eye(55), atol=1e-12)

    def test_adaptive_chain_with_stacks_wider_than_tall(self, monkeypatch):
        widths = []
        frame = lis.householder_frame

        def spy(X):
            widths.append(X.shape[1] - X.shape[0])
            return frame(X)

        monkeypatch.setattr(lis, "householder_frame", spy)
        cfg = RunConfig(model="linear-gaussian", lin_n=4, lin_m=4,
                        algorithm="adr-inf-mmala", h=0.8, iterations=60,
                        burn_in=40, n_lag=5)
        meta = run_from_config(cfg).meta["lis"]
        assert meta["update_errors"] == 0 and meta["m"] >= 2
        assert max(widths) > 0


class TestAdaptationSchedule:
    def test_due_on_lag_boundaries_only(self):
        cfg, state, due = RunConfig(n_lag=10), initial_state(6), []

        def spec_fn():
            due.append(it)
            return random_spectrum(6, 2, seed=it)

        for it in range(35):
            state = adaptation_step(it, state, cfg, spec_fn)
        assert due == [9, 19, 29]
        assert state.m == 3 and not state.frozen

    def test_no_update_when_frozen_or_after_burn_in(self):
        cfg = RunConfig(n_lag=5, burn_in=10, iterations=30)

        def spec_fn():
            raise AssertionError("an update was made")

        frozen = LISState(LowRankSpectrum.empty(6), frozen=True)
        assert adaptation_step(4, frozen, cfg, spec_fn) is frozen
        state = initial_state(6)
        for it in (10, 14, 19, 29):
            assert adaptation_step(it, state, cfg, spec_fn) is state

    def test_step_freezes_on_budget(self):
        cfg = RunConfig(n_lag=1, m_max=2)
        state = initial_state(8)
        calls = iter(range(100))
        spec_fn = lambda: random_spectrum(8, 3, seed=next(calls))
        state = adaptation_step(0, state, cfg, spec_fn)
        assert state.m == 1 and not state.frozen
        state = adaptation_step(1, state, cfg, spec_fn)
        assert state.m == 2 and state.frozen
        # frozen states pass through untouched
        assert adaptation_step(2, state, cfg, spec_fn) is state

    def test_step_freezes_on_stall(self):
        cfg = RunConfig(n_lag=1, delta_lis=1e-5)
        state = initial_state(8)
        a = random_spectrum(8, 3, seed=11)
        state = adaptation_step(0, state, cfg, lambda: a)
        for n in range(1, 6):
            state = adaptation_step(n, state, cfg, lambda: a)
            if state.frozen:
                break
        assert state.frozen
        assert state.d_f < 1e-5

    @pytest.mark.parametrize("last", ["merged", "failed"])
    def test_step_freezes_at_end_of_burn_in(self, last):
        # the update due on the last burn-in iteration merges or fails;
        # either way the subspace freezes there
        cfg = RunConfig(n_lag=4, burn_in=8, iterations=20)

        def spec_fn():
            if it == 7 and last == "failed":
                raise FloatingPointError("synthetic failure")
            return random_spectrum(8, 3, seed=it)

        state = initial_state(8)
        for it in range(8):
            state = adaptation_step(it, state, cfg, spec_fn)
            assert state.frozen == (it == 7)
        assert (state.m, state.errors) == ((2, 0) if last == "merged" else (1, 1))
        assert len(state.history) == state.m
