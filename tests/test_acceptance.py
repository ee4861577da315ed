"""Acceptance gate: one test per shipped guarantee, run at stated tolerance.

Each test is numbered so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion. The stochastic criteria (2, 11, 12) use fixed
seeds and are deterministic in single-threaded runs; they are the long
chains, marked ``slow``.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from drgmc import elliptic, linear_model
from drgmc.acceptance import dr_mhmc_delta_E, dr_mmala_log_ratio
from drgmc.chain import WhitenedModel, run_chain
from drgmc.config import RunConfig
from drgmc.diagnostics import ess_per_coordinate
from drgmc.harness import build_elliptic, build_model, run_from_config
from drgmc.operators import (CovarianceOperator, LowRankSpectrum,
                             apply_sqrtK_hat, randomized_eig)
from drgmc.proposals import (StepParams, dili_propose, dr_mhmc_propose,
                             dr_mmala_propose)

from _dense_reference import (apply_K_hat, bound_report, dili_connection_operators,
                              dili_coords, dili_log_ratio, drift, drift_fn, reduced)

# criterion 02's step sizes on its n=8 linear-Gaussian model; the golden
# linear chains run with them too
LINEAR_STEPS = {
    "pcn": dict(h=0.01),
    "inf-mala": dict(h=0.02),
    "inf-hmc": dict(h=0.02, n_leapfrog=3),
    "dr-inf-mmala": dict(h=2.0),
    "dr-inf-mhmc": dict(h=0.5, n_leapfrog=3),
    "dili": dict(h_r=0.5, h_perp=0.5),
    "adr-inf-mmala": dict(h=2.0),
    "adr-inf-mhmc": dict(h=0.5, n_leapfrog=3),
}


def random_spectrum(n, r, rng, scale=3.0):
    lam = np.sort(scale * rng.random(r))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return LowRankSpectrum(lam, basis)


class _FlatState:
    """Zero data-misfit everywhere: the target is exactly the prior."""

    def __init__(self, u):
        self.u = u
        self.phi = 0.0
        self.grad = np.zeros_like(u)
        self.jac = np.zeros((1, len(u)))


def test_criterion_01_flat_target_pcn_accepts_everything():
    model = WhitenedModel(CovarianceOperator(np.eye(32)), _FlatState)
    t0 = time.perf_counter()
    record = run_chain(model, RunConfig(algorithm="pcn", iterations=1000,
                                        burn_in=0, h=0.5, seed=0))
    elapsed = time.perf_counter() - t0
    assert record.accepts.all()
    assert float(np.mean(record.accepts)) == 1.0
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_02_linear_gaussian_moments_all_samplers():
    lm = linear_model.random_model(n=8, m=4, seed=20260815, noise_scale=0.5)
    model = WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
    mu, K = linear_model.analytic_posterior(lm)
    var = np.diag(K)
    for algorithm, kwargs in LINEAR_STEPS.items():
        record = run_chain(model, RunConfig(algorithm=algorithm,
                                            iterations=100_000, burn_in=2000,
                                            rank=4, seed=7, **kwargs))
        kept = record.kept()
        ess = ess_per_coordinate(kept)
        assert ess.min() > 10, f"{algorithm}: chain did not move"
        se_mean = np.sqrt(var / ess)
        err_mean = np.abs(kept.mean(axis=0) - mu)
        assert np.all(err_mean <= 3 * se_mean), (
            f"{algorithm}: mean off by {np.max(err_mean / se_mean):.2f} SE")
        se_var = var * np.sqrt(2.0 / ess)
        err_var = np.abs(kept.var(axis=0) - var)
        assert np.all(err_var <= 5 * se_var), (
            f"{algorithm}: variance off by {np.max(err_var / se_var):.2f} SE")


def test_criterion_03_low_rank_operators_match_dense_at_full_rank():
    rng = np.random.default_rng(3)
    n = 16
    spec = random_spectrum(n, n, rng, scale=5.0)
    V, lam = spec.basis, spec.eigenvalues
    K_dense = np.eye(n) + V @ np.diag(spec.D - 1.0) @ V.T
    sqrtK_dense = np.eye(n) + V @ np.diag(np.sqrt(spec.D) - 1.0) @ V.T
    for _ in range(20):
        x = rng.standard_normal(n)
        assert np.max(np.abs(apply_K_hat(x, spec) - K_dense @ x)) < 1e-10
        assert np.max(np.abs(apply_sqrtK_hat(x, spec) - sqrtK_dense @ x)) < 1e-10
        composed = apply_sqrtK_hat(apply_sqrtK_hat(x, spec), spec)
        assert np.max(np.abs(composed - apply_K_hat(x, spec))) < 1e-10


def test_criterion_04_adjoint_gradient_matches_finite_differences():
    mesh = elliptic.Mesh2D(16, 16)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem, 10.0, 1)
    rng = np.random.default_rng(4)
    u = 0.3 * rng.standard_normal(mesh.n_nodes)
    g = elliptic.assemble_and_solve(u, problem).grad
    t = 1e-5
    for _ in range(20):
        d = rng.standard_normal(mesh.n_nodes)
        d /= np.linalg.norm(d)
        fd = (elliptic.assemble_and_solve(u + t * d, problem).phi
              - elliptic.assemble_and_solve(u - t * d, problem).phi) / (2 * t)
        assert abs(float(g @ d) - fd) <= 1e-4 * max(abs(fd), 1.0)

    lm = linear_model.random_model(n=8, m=4, seed=4, noise_scale=0.5)
    u = rng.standard_normal(8)
    g = linear_model.make_state(lm, u).grad
    t = 1e-4
    for _ in range(20):
        d = rng.standard_normal(8)
        d /= np.linalg.norm(d)
        fd = (linear_model.make_state(lm, u + t * d).phi
              - linear_model.make_state(lm, u - t * d).phi) / (2 * t)
        assert abs(float(g @ d) - fd) <= 1e-8 * max(abs(fd), 1.0)


def test_criterion_05_gauss_newton_curvature_symmetric_psd_low_rank():
    mesh = elliptic.Mesh2D(16, 16)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem, 10.0, 1)
    rng = np.random.default_rng(5)
    u = 0.3 * rng.standard_normal(mesh.n_nodes)
    res = elliptic.assemble_and_solve(u, problem)

    def gnh(w):
        return elliptic.gnh_action(res, w)

    for _ in range(20):
        w1 = rng.standard_normal(mesh.n_nodes)
        w2 = rng.standard_normal(mesh.n_nodes)
        w1 /= np.linalg.norm(w1)
        w2 /= np.linalg.norm(w2)
        sym = float(w1 @ gnh(w2)) - float(w2 @ gnh(w1))
        assert abs(sym) <= 1e-9
        assert float(w1 @ gnh(w1)) >= -1e-10
    H = np.column_stack([gnh(e) for e in np.eye(mesh.n_nodes)])
    eig = np.linalg.eigvalsh(0.5 * (H + H.T))
    rank = int(np.sum(eig > 1e-10 * eig.max()))
    assert rank <= len(problem.sensors) == 25


def test_criterion_06_randomized_eigensolver_accuracy():
    n = 50
    lam_true = 1.0 / np.arange(1, n + 1) ** 2
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (Q * lam_true) @ Q.T
        spec = randomized_eig(lambda x: A @ x, n, 10, p=5, q=2, rng=rng)
        rel = np.abs(spec.eigenvalues[:10] - lam_true[:10]) / lam_true[:10]
        assert np.max(rel) <= 1e-6


def test_criterion_07_proposal_difference_bounds_hold():
    lm = linear_model.random_model(n=10, m=15, seed=5, noise_scale=0.7)
    report = bound_report(lm, trials=200, h=0.8, seed=6, n_leapfrog=3)
    counts = {}
    for row in report.rows:
        counts[(row["bound"], row["gamma_perp"])] = counts.get(
            (row["bound"], row["gamma_perp"]), 0) + 1
        assert row["lhs"] <= row["rhs"] + 1e-9
    for key in (("dr_vs_full", 0), ("dr_vs_full", 1),
                ("dr_vs_dili", 0), ("dr_vs_dili", 1)):
        assert counts[key] == 200
    assert counts[("dr_vs_full_hmc", 1)] == 200
    assert report.n_violations == 0


def test_criterion_08_determinant_correction_and_frozen_lis_equality():
    rng = np.random.default_rng(8)
    n = 9
    params = StepParams(h=0.7, gamma_r=1, gamma_perp=0)
    for _ in range(100):
        r = int(rng.integers(1, 5))
        spec_v = random_spectrum(n, r, rng)
        spec_vp = random_spectrum(n, int(rng.integers(1, 5)), rng)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        g, gp = rng.standard_normal(n), rng.standard_normal(n)
        phi, phip = rng.standard_normal(2)
        dr = dr_mmala_log_ratio(v, vp, spec_v, spec_vp, reduced(v, g, spec_v, params),
                                reduced(vp, gp, spec_vp, params), phi, phip, params)
        op = dili_log_ratio(v, vp, spec_v, g, gp, phi, phip, params,
                            spec_vp=spec_vp)
        expected = 0.5 * (np.sum(np.log(spec_v.D)) - np.sum(np.log(spec_vp.D)))
        assert abs((dr - op) - expected) < 1e-10

    for _ in range(100):
        spec = random_spectrum(n, 4, rng)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        g, gp = rng.standard_normal(n), rng.standard_normal(n)
        phi, phip = rng.standard_normal(2)
        dr = dr_mmala_log_ratio(v, vp, spec, spec, reduced(v, g, spec, params),
                                reduced(vp, gp, spec, params), phi, phip, params)
        op = dili_log_ratio(v, vp, spec, g, gp, phi, phip, params)
        assert abs(dr - op) < 1e-12


def test_criterion_09_leapfrog_reversible_exact_and_second_order():
    rng = np.random.default_rng(9)
    n = 6
    M = rng.standard_normal((n, n))
    Q = M @ M.T / n + 0.5 * np.eye(n)
    lam, vecs = np.linalg.eigh(Q)
    spec = LowRankSpectrum(lam[::-1][:3], vecs[:, ::-1][:, :3])

    phi = lambda w: 0.5 * float(w @ (Q @ w))
    grad = lambda w: Q @ w

    # reversibility of the chains' integrator under a fixed spectrum: flip
    # the final momentum, retrace, land on the start
    params = StepParams(h=1.0, eps=0.1, gamma_r=1, gamma_perp=1)
    v, vt = rng.standard_normal(n), rng.standard_normal(n)
    fwd = dr_mhmc_propose(v, spec, params, drift_fn(grad, params), vt, 25)
    back = dr_mhmc_propose(fwd.v_prime, spec, params, drift_fn(grad, params),
                           -fwd.trajectory.vts[-1], 25)
    assert np.max(np.abs(back.v_prime - v)) < 1e-9
    assert np.max(np.abs(back.trajectory.vts[-1] + vt)) < 1e-9

    # flat target (zero misfit, zero curvature): the step is an exact
    # rotation and energy is conserved
    flat = StepParams(h=1.0, eps=0.3, gamma_r=1, gamma_perp=1)
    out = dr_mhmc_propose(v, LowRankSpectrum.empty(n), flat,
                          drift_fn(lambda w: np.zeros(n), flat), vt.copy(), 25)
    assert abs(dr_mhmc_delta_E(out.trajectory, 0.0, 0.0)) < 1e-10

    # quadratic target, fixed integration time: |Delta E| = O(eps^2)
    T = 2.0
    eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
    mean_abs = []
    for eps in eps_grid:
        deltas = []
        for trial in range(10):
            trng = np.random.default_rng(100 + trial)
            v0, vt0 = trng.standard_normal(n), trng.standard_normal(n)
            params = StepParams(h=1.0, eps=float(eps), gamma_r=1, gamma_perp=1)
            out = dr_mhmc_propose(v0, spec, params, drift_fn(grad, params), vt0,
                                  int(round(T / eps)))
            deltas.append(abs(dr_mhmc_delta_E(out.trajectory, phi(v0),
                                              phi(out.v_prime))))
        mean_abs.append(np.mean(deltas))
    slope = np.polyfit(np.log(eps_grid), np.log(mean_abs), 1)[0]
    assert 1.8 <= slope <= 2.2, f"energy-error order fit gave {slope:.3f}"


def test_criterion_10_operator_form_reproduces_reduced_proposal():
    rng = np.random.default_rng(10)
    n = 9
    for _ in range(100):
        r = int(rng.integers(1, 6))
        spec = random_spectrum(n, r, rng)
        params = StepParams(h=float(rng.uniform(0.1, 2.5)), gamma_r=1,
                            gamma_perp=0)
        ops = dili_connection_operators(spec, params)
        v, g = rng.standard_normal(n), rng.standard_normal(n)
        xi = rng.standard_normal(n)
        vp_dr = dr_mmala_propose(v, drift(v, g, spec, params), spec, params, xi)
        vp_op = dili_propose(v, *dili_coords(v, g, spec, ops), spec, ops, xi)
        assert np.max(np.abs(vp_dr - vp_op)) < 1e-10


def _shared_observations(nx):
    mesh = elliptic.Mesh2D(nx, nx)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem, 10.0, 20260815)
    return problem.y, problem.sigma_eta


@pytest.mark.slow
def test_criterion_11_acceptance_stable_under_mesh_refinement():
    meshes = (16, 24, 32)
    data = _shared_observations(max(meshes))
    for algorithm in ("pcn", "adr-inf-mmala"):
        aps = []
        for k in meshes:
            cfg = RunConfig(model="elliptic", algorithm=algorithm, nx=k, ny=k,
                            iterations=2000, burn_in=500, seed=0)
            model, _ = build_elliptic(cfg, data=data)
            record = run_from_config(cfg, model=model)
            aps.append(float(record.accepts[record.burn_in:].mean()))
        spread = max(aps) - min(aps)
        assert spread <= 0.10, f"{algorithm}: acceptance drifted {aps}"


@pytest.mark.slow
def test_criterion_12_efficiency_ordering_on_desk_scale_study():
    wins_speedup, wins_hmc = 0, 0
    for seed in (0, 1, 2):
        stats = {}
        for algorithm in ("pcn", "adr-inf-mmala", "adr-inf-mhmc"):
            cfg = RunConfig(model="elliptic", algorithm=algorithm,
                            iterations=2500, burn_in=500, seed=seed)
            record = run_from_config(cfg)
            ess = ess_per_coordinate(record.kept())
            stats[algorithm] = (float(ess.min()),
                                float(ess.min()) / float(record.wall_times.sum()))
        if stats["adr-inf-mmala"][1] >= 2.0 * stats["pcn"][1]:
            wins_speedup += 1
        if stats["adr-inf-mhmc"][0] >= stats["adr-inf-mmala"][0]:
            wins_hmc += 1
    assert wins_speedup >= 2, f"speedup ordering held in {wins_speedup}/3 seeds"
    assert wins_hmc >= 2, f"Hamiltonian ESS ordering held in {wins_hmc}/3 seeds"


def test_criterion_13_subspace_adaptation_terminates_and_spans_row_space():
    cfg = RunConfig(model="elliptic", algorithm="adr-inf-mmala",
                    iterations=260, burn_in=200, n_lag=20, m_max=8, seed=0)
    model, _ = build_model(cfg)
    record = run_from_config(cfg, model=model)
    lis = record.meta["lis"]
    assert lis["frozen"]
    assert lis["d_f"] < 1e-5 or lis["m"] == 8
    ranks = [row[1] for row in lis["history"][-3:]]
    assert len(set(ranks)) == 1

    lm = linear_model.random_model(n=6, m=2, seed=13, noise_scale=0.4)
    wmodel = WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
    rec = run_chain(wmodel, RunConfig(algorithm="adr-inf-mmala", iterations=120,
                                      burn_in=80, h=0.8, n_lag=20,
                                      threshold=1e-8, seed=1))
    lis_state = rec.meta["lis_state"]
    assert lis_state.r == 2
    informed = lm.prior.S @ lm.A.T
    angles = sla.subspace_angles(lis_state.spectrum.basis, informed)
    assert np.max(angles) <= 1e-6


def test_criterion_14_solver_call_accounting_is_exact():
    for algorithm, expected in (("pcn", 2501), ("inf-mala", 5002)):
        cfg = RunConfig(model="elliptic", algorithm=algorithm,
                        iterations=2500, burn_in=500, seed=0)
        record = run_from_config(cfg)
        assert int(record.pde_solves[-1]) == expected


def test_criterion_14_curvature_solve_accounting_is_exact():
    # every dr-inf-mmala state (the start and one candidate per iteration)
    # costs a forward solve, an adjoint solve and one solve per sensor for
    # its Jacobian, however many GNH blocks its local spectrum applies
    iterations = 15
    model, extras = build_elliptic(RunConfig(model="elliptic", nx=8, ny=8))
    m = len(extras["problem"].sensors)
    record = run_chain(model, RunConfig(algorithm="dr-inf-mmala",
                                        iterations=iterations, burn_in=7, seed=11))
    assert record.meta["error_rejects"] == 0
    assert int(record.pde_solves[-1]) == (iterations + 1) * (m + 2) == 432
