"""Self-contained property checks behind the `verify` subcommand.

Each check returns (passed, detail). The fast level is a smoke pass over
every identity the samplers rely on; full widens trial counts, meshes, and
chain lengths. Results are machine-readable so CI can consume them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import elliptic
from .acceptance import (dili_exact_log_ratio, dili_log_ratio,
                         dr_mhmc_delta_E, dr_mmala_log_ratio)
from .chain import WhitenedModel, run_chain
from .config import RunConfig
from .diagnostics import bound_report, ess
from .harness import build_model
from .linear_model import analytic_posterior, model_callbacks, random_model
from .operators import (LowRankSpectrum, apply_invK_hat, apply_K_hat,
                        apply_sqrtK_hat, build_prior_covariance,
                        forstner_distance, randomized_eig)
from .proposals import (StepParams, dili_connection_operators, dili_operators,
                        dili_propose, dr_mhmc_propose, dr_mmala_propose,
                        hmc_leapfrog)


def _rand_spectrum(n, r, rng, scale=3.0):
    lam = np.sort(rng.uniform(0.0, scale, size=r))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return LowRankSpectrum(lam, basis)


def check_step_params(_level):
    rng = np.random.default_rng(0)
    worst = 0.0
    for h in rng.uniform(1e-4, 3.9, size=200):
        p = StepParams(h=float(h))
        worst = max(worst,
                    abs(p.rho2 * math.sqrt(p.h) / 2.0 - p.rho1),
                    abs(p.rho0 ** 2 + p.rho2 ** 2 - 1.0))
    return worst < 1e-12, f"max identity residual {worst:.2e}"


def check_woodbury(_level):
    rng = np.random.default_rng(1)
    n, r = 40, 7
    spec = _rand_spectrum(n, r, rng)
    eye = np.eye(n)
    k_hat = np.column_stack([apply_K_hat(eye[:, j], spec) for j in range(n)])
    k_inv = np.column_stack([apply_invK_hat(eye[:, j], spec) for j in range(n)])
    k_sqrt = np.column_stack([apply_sqrtK_hat(eye[:, j], spec) for j in range(n)])
    err = max(np.abs(k_hat @ k_inv - eye).max(),
              np.abs(k_sqrt @ k_sqrt - k_hat).max())
    return err < 1e-10, f"max dense residual {err:.2e}"


def check_randomized_eig(_level):
    rng = np.random.default_rng(2)
    n, r = 50, 10
    lam = 1.0 / np.arange(1, n + 1) ** 2
    q_mat = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q_mat * lam) @ q_mat.T
    worst = 0.0
    for seed in range(5):
        spec = randomized_eig(lambda B: a @ B, n, r,
                              rng=np.random.default_rng(seed))
        worst = max(worst, np.max(np.abs(spec.eigenvalues - lam[:r]) / lam[:r]))
    return worst < 1e-6, f"worst top-{r} relative error {worst:.2e}"


def check_dili_hand_values(_level):
    spec = LowRankSpectrum(np.array([1.0]), np.eye(2)[:, :1])
    ops = dili_operators(spec, h_r=1.0, h_perp=2.0, gamma_r=0)
    err = max(abs(ops.D_Ar[0] - 0.6), abs(ops.D_Br[0] - 0.8),
              abs(ops.a_perp - 0.0), abs(ops.b_perp - 1.0))
    return err < 1e-12, f"hand-value residual {err:.2e}"


def check_connection_equivalence(_level):
    rng = np.random.default_rng(3)
    n, worst = 12, 0.0
    for _ in range(20):
        spec = _rand_spectrum(n, 4, rng)
        params = StepParams(h=float(rng.uniform(0.2, 2.0)), gamma_r=1, gamma_perp=0)
        v = rng.standard_normal(n)
        grad = rng.standard_normal(n)
        xi = rng.standard_normal(n)
        ops = dili_connection_operators(spec, params)
        a = dili_propose(v, grad, spec, 1.0, 1.0, 1, rng, operators=ops, xi=xi).v_prime
        b = dr_mmala_propose(v, grad, spec, params, rng, xi=xi).v_prime
        worst = max(worst, np.max(np.abs(a - b)))
    return worst < 1e-10, f"max proposal difference {worst:.2e}"


def check_determinant_correction(level):
    rng = np.random.default_rng(4)
    n, worst_pos, worst_frozen = 10, 0.0, 0.0
    trials = 100 if level == "full" else 30
    for _ in range(trials):
        spec_v = _rand_spectrum(n, 4, rng)
        spec_vp = _rand_spectrum(n, 4, rng)
        params = StepParams(h=float(rng.uniform(0.2, 2.0)), gamma_r=1, gamma_perp=0)
        v, vp = rng.standard_normal(n), rng.standard_normal(n)
        gv, gvp = rng.standard_normal(n), rng.standard_normal(n)
        phi_v, phi_vp = rng.standard_normal(2)
        dr = dr_mmala_log_ratio(v, vp, spec_v, spec_vp, gv, gvp, phi_v, phi_vp, params)
        dl = dili_log_ratio(v, vp, spec_v, gv, gvp, phi_v, phi_vp, params,
                            spec_vp=spec_vp)
        corr = 0.5 * np.sum(np.log(spec_v.D)) - 0.5 * np.sum(np.log(spec_vp.D))
        worst_pos = max(worst_pos, abs((dr - dl) - corr))
        ops = dili_connection_operators(spec_v, params)
        exact = dili_exact_log_ratio(v, vp, spec_v, gv, gvp, phi_v, phi_vp, ops)
        frozen = dr_mmala_log_ratio(v, vp, spec_v, spec_v, gv, gvp, phi_v, phi_vp, params)
        worst_frozen = max(worst_frozen, abs(exact - frozen))
    ok = worst_pos < 1e-10 and worst_frozen < 1e-9
    return ok, (f"determinant-term residual {worst_pos:.2e}, "
                f"frozen-spec ratio agreement {worst_frozen:.2e}")


def check_leapfrog(_level):
    rng = np.random.default_rng(5)
    n = 8
    a = rng.standard_normal((n, n))
    a = a @ a.T / n

    def g(v):
        return -(a @ v)

    v, vt = rng.standard_normal(n), rng.standard_normal(n)
    eps = 0.3
    fv, fvt = v.copy(), vt.copy()
    for _ in range(10):
        fv, fvt = hmc_leapfrog(fv, fvt, g, eps)
    bv, bvt = fv, -fvt
    for _ in range(10):
        bv, bvt = hmc_leapfrog(bv, bvt, g, eps)
    rev = max(np.abs(bv - v).max(), np.abs(bvt + vt).max())

    spec = LowRankSpectrum.empty(n)
    params = StepParams(h=0.09, gamma_r=0, gamma_perp=0, n_leapfrog=25)
    out = dr_mhmc_propose(v, spec, params, lambda _v: None, rng)
    flat = abs(dr_mhmc_delta_E(out.trajectory, 0.0, 0.0))
    ok = rev < 1e-9 and flat < 1e-10
    return ok, f"reversibility {rev:.2e}, flat-target energy drift {flat:.2e}"


def check_adjoint_gradient(level):
    nx = 16 if level == "full" else 8
    mesh = elliptic.Mesh2D(nx, nx)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem, 10.0, seed=0)
    rng = np.random.default_rng(6)
    u = 0.3 * rng.standard_normal(problem.n)
    g = elliptic.gradient(u, problem)
    worst = 0.0
    for _ in range(20 if level == "full" else 8):
        w = rng.standard_normal(problem.n)
        w /= np.linalg.norm(w)
        t = 1e-5
        fp = elliptic.potential(u + t * w, problem)
        fm = elliptic.potential(u - t * w, problem)
        fd = (fp - fm) / (2 * t)
        worst = max(worst, abs(fd - g @ w) / max(abs(fd), 1e-14))
    return worst < 1e-4, f"max relative adjoint-FD error {worst:.2e} ({nx}x{nx})"


def check_gnh(level):
    nx = 16 if level == "full" else 8
    mesh = elliptic.Mesh2D(nx, nx)
    problem = elliptic.make_problem(mesh)
    elliptic.generate_data(elliptic.true_field(mesh), problem, 10.0, seed=0)
    rng = np.random.default_rng(7)
    u = 0.3 * rng.standard_normal(problem.n)
    state = elliptic.make_state(problem, u)
    k = 12
    ws = rng.standard_normal((problem.n, k))
    hw = state.gnh_action(ws)  # one block, as the eigensolver applies it
    gram = ws.T @ hw
    sym = np.abs(gram - gram.T).max() / max(np.abs(gram).max(), 1e-30)
    eigs = np.linalg.eigvalsh((gram + gram.T) / 2)
    return sym < 1e-9, f"Galerkin symmetry {sym:.2e}, min Ritz value {eigs.min():.2e}"


def check_bounds(level):
    if level == "full":
        model = random_model(n=30, m=45, seed=8)
        report = bound_report(model, trials=200)
    else:
        model = random_model(n=12, m=18, seed=8)
        report = bound_report(model, trials=50)
    ok = report.n_violations == 0
    return ok, f"{len(report.rows)} bound rows, {report.n_violations} violations"


def check_ess(_level):
    rng = np.random.default_rng(9)
    n = 10_000
    val = ess(rng.standard_normal(n))
    return 0.8 * n <= val <= 1.2 * n, f"iid ESS {val:.0f} of N={n}"


def check_forstner(_level):
    rng = np.random.default_rng(10)
    a = _rand_spectrum(12, 4, rng)
    b = _rand_spectrum(12, 4, rng)
    lam = np.array([math.e - 1.0])
    c = LowRankSpectrum(lam, np.eye(12)[:, :1])
    hand = forstner_distance(LowRankSpectrum.empty(12), c)
    err = max(forstner_distance(a, a),
              abs(forstner_distance(a, b) - forstner_distance(b, a)),
              abs(hand - 1.0))
    return err < 1e-9, f"max metric residual {err:.2e}"


def check_moments(level):
    iters = 100_000 if level == "full" else 20_000
    tol_mean, tol_cov = (3.0, 5.0) if level == "full" else (4.0, 6.0)
    algos = ("pcn", "dr-inf-mmala", "dili") if level == "full" else ("pcn",)
    cfg = RunConfig(model="linear-gaussian", lin_n=2, lin_m=2, h=0.5,
                    iterations=iters, burn_in=iters // 10, rank=2)
    model, extras = build_model(cfg)
    lm = extras["linear_model"]
    mu, k = analytic_posterior(lm)
    msgs, ok = [], True
    for algo in algos:
        rec = run_chain(model, algo, iterations=iters, burn_in=iters // 10,
                        h=0.5, h_r=0.8, h_perp=0.5, rank=2, seed=11)
        kept = rec.kept()
        e = ess(kept[:, 0])
        se = np.sqrt(np.diag(k) / max(e, 2.0))
        dev = np.abs(kept.mean(axis=0) - mu) / se
        cov_dev = np.abs(np.var(kept, axis=0) - np.diag(k)) / (np.diag(k) * np.sqrt(2.0 / max(e, 2.0)))
        ok = ok and dev.max() < tol_mean and cov_dev.max() < tol_cov
        msgs.append(f"{algo}: mean dev {dev.max():.2f} SE, var dev {cov_dev.max():.2f} SE")
    return ok, "; ".join(msgs)


CHECKS = [
    ("step_params_identities", check_step_params),
    ("woodbury_low_rank", check_woodbury),
    ("randomized_eigensolver", check_randomized_eig),
    ("operator_hand_values", check_dili_hand_values),
    ("proposal_connection_equivalence", check_connection_equivalence),
    ("determinant_correction_identity", check_determinant_correction),
    ("leapfrog_reversibility", check_leapfrog),
    ("adjoint_gradient_fd", check_adjoint_gradient),
    ("gnh_symmetry_psd", check_gnh),
    ("proposal_difference_bounds", check_bounds),
    ("ess_iid_sanity", check_ess),
    ("forstner_metric", check_forstner),
    ("linear_gaussian_moments", check_moments),
]


def run_verify(level="fast"):
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(level)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        results.append({"name": name, "passed": bool(passed), "detail": detail,
                        "seconds": round(time.perf_counter() - t0, 3)})
    return {"level": level,
            "passed": all(r["passed"] for r in results),
            "failed": [r["name"] for r in results if not r["passed"]],
            "checks": results}
