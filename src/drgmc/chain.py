"""Metropolis-Hastings drivers for the whitened kernel family.

A WhitenedModel bridges model states (which live in u coordinates and cache
their own forward/adjoint solves) to the whitened coordinates v = C^{-1/2} u
that every kernel works in. One chain = one RNG stream, drawn from here
alone: proposals are pure maps of their noise and leapfrog count. A local
spectrum is exact, from the Gram eigenproblem of the state's whitened
Jacobian and a QR basis, so it is a deterministic function of position and
draws nothing from the stream.

Each state memoizes its values on the last spectrum asked about, matched
on the spectrum's identity: g_r, the complement gradient and the drift ghat
for the DR and Hamiltonian kernels (_values), V^T v and V^T grad Phi for
dili (_projected). The proposal and both ratio terms read them, so an
accepted candidate's values serve the next iteration and a rejected state
keeps its own; a new spectrum (an LIS update) replaces them.

Curvature is decomposed once per distinct Jacobian array: a chain
decomposes a state's whitened Jacobian only when the model Jacobian it came
from is not the array the chain decomposed last. A model whose states share
one Jacobian object (the linear model) pays once per chain; a model whose
states form their own (the elliptic one) pays once per state.

The eight samplers share one Metropolis-Hastings step; each kernel only maps
the current state to a candidate and its log acceptance ratio. inf-hmc is the
DR Hamiltonian kernel on a frozen empty spectrum (identity mass, full drift).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .acceptance import (decide, dili_exact_log_ratio, dr_mhmc_delta_E,
                         dr_mmala_log_ratio, inf_mala_log_ratio,
                         pcn_log_ratio)
from .diagnostics import COLUMNS, ChainRecord
from .lis import LISState, adaptation_step, local_spectrum
from .operators import NUMERICAL_ERRORS, LowRankSpectrum, apply_sqrtK_hat
from .proposals import (StepParams, dili_operators, dili_propose,
                        dr_mhmc_propose, dr_mmala_propose, inf_mala_propose,
                        pcn_propose, reduced_ngrad, whitened_ngrad)
from .proposals import inf_hmc_propose  # noqa: F401  bench/layers.py wraps it here

ADAPTIVE = ("dili", "adr-inf-mmala", "adr-inf-mhmc")
# what one Metropolis-Hastings step did with its candidate
ACCEPTED, REJECTED, ERROR, NONFINITE = range(4)


class WhitenedState:
    """Lazy caches in v coordinates on top of a u-space model state: the
    whitened gradient S grad and Jacobian Jv = J S. The Gauss-Newton Hessian
    S J^T J S is Jv^T Jv, whose eigenpairs come from the m x m Gram matrix
    Jv Jv^T (lis.local_spectrum)."""

    __slots__ = ("v", "ustate", "_model", "_grad", "_jv", "spec", "memo")

    def __init__(self, model, ustate, v):
        self._model = model
        self.ustate = ustate
        self.v = v
        self._grad = None
        self._jv = None
        self.spec = None
        # (spectrum, values) from _values or _projected, keyed on the spectrum
        # alone: a chain has one StepParams and a state belongs to one chain,
        # which runs one kernel, so one slot serves both functions.
        self.memo = None

    @property
    def u(self):
        return self.ustate.u

    @property
    def phi(self):
        return self.ustate.phi

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._model.cov.sqrt_apply(self.ustate.grad)
        return self._grad

    @property
    def jv(self):
        if self._jv is None:
            self._jv = self._model.cov.sqrt_apply(self.ustate.jac.T).T
        return self._jv

    def gnh_action(self, w):
        return self.jv.T @ (self.jv @ w)


def _values(state, spec, params):
    """(g_r, g_perp, ghat) of state on spec, formed together and kept in its
    memo; g_perp is None when gamma_perp = 0. The gradient is read iff a
    gamma flag is set, at r = 0 too, where each value is the general
    formula's, bit for bit, in at most one operation."""
    memo = state.memo
    if memo is not None and memo[0] is spec:
        return memo[1]
    gamma_r, gamma_perp = params.gamma_r, params.gamma_perp
    grad = state.grad if gamma_r or gamma_perp else None
    if spec.r:
        cg = spec.project(grad) if grad is not None else None
        gr = reduced_ngrad(spec.project(state.v), cg, spec, gamma_r)
        g_perp = grad - spec.lift(cg) if gamma_perp else None
        values = gr, g_perp, whitened_ngrad(gr, g_perp, spec, gamma_perp)
    elif gamma_perp:
        values = np.zeros(0), grad, 0.0 - grad
    else:
        values = np.zeros(0), None, np.zeros(spec.n)
    state.memo = (spec, values)
    return values


def _projected(state, spec, ops):
    """(V^T v, V^T grad Phi) of state on spec, kept in its memo; the
    gradient is read, and projected, iff ops weights it (None otherwise)."""
    memo = state.memo
    if memo is not None and memo[0] is spec:
        return memo[1]
    cg = spec.project(state.grad) if ops.uses_grad else None
    values = spec.project(state.v), cg
    state.memo = (spec, values)
    return values


class WhitenedModel:
    """cov: prior CovarianceOperator; state_factory(u) -> the model's one
    state at u, caching phi (data misfit), grad (its u-gradient) and jac (the
    m x n Jacobian whose Gram matrix J^T J is the Gauss-Newton Hessian);
    counter: optional solve counter to snapshot."""

    def __init__(self, cov, state_factory, counter=None):
        self.cov = cov
        self._factory = state_factory
        self._counter = counter

    @property
    def n(self):
        return self.cov.n

    def state(self, v):
        u = self.cov.sqrt_apply(v)
        return WhitenedState(self, self._factory(u), v)

    def solves(self):
        return self._counter.count if self._counter is not None else 0


@dataclass
class KernelContext:
    """What the kernels read besides the current state; config is the
    chain's RunConfig and steps its resolved_steps()."""

    model: WhitenedModel
    config: object
    steps: dict
    params: StepParams
    rng: np.random.Generator
    # the spectrum DR kernels hold fixed: the adaptive LIS, or inf-hmc's frozen empty one
    lis: LISState | None = None
    # (spectrum, DILI operators built from it)
    dili_ops: tuple = (None, None)
    # (model Jacobian, spectrum) of the last position-specific decomposition
    last_spec: tuple = (None, None)


def _ensure_spec(ctx, state):
    """The state's spectrum of rank config.rank, decomposed only when its
    model Jacobian is not the array the chain decomposed last."""
    if state.spec is None:
        jac = state.ustate.jac
        last_jac, spec = ctx.last_spec
        if jac is not last_jac:
            spec = local_spectrum(state.jv, ctx.config.rank)
            ctx.last_spec = (jac, spec)
        state.spec = spec
    return state.spec


def _spectrum(ctx, state):
    """The curvature a DR kernel uses at state: the global LIS spectrum when
    the chain adapts one, the state's own spectrum otherwise."""
    return ctx.lis.spectrum if ctx.lis is not None else _ensure_spec(ctx, state)


def _leapfrog_count(ctx):
    """Leapfrog count drawn uniformly from {1..I}; I = 1 draws nothing."""
    top = ctx.steps["n_leapfrog"]
    return int(ctx.rng.integers(1, top + 1)) if top > 1 else 1


# Kernels: (ctx, state) -> (candidate, log acceptance ratio). DR kernels hold
# ctx.lis's spectrum fixed when it is set: the adaptive LIS or inf-hmc's empty one.
# Proposals and ratios are looked up as module globals at call time, so
# wrappers installed on this module (bench/layers.py) see every call.
# The count is drawn first; then the spectrum and gradient the proposal needs
# are read, and only then the noise, so a failed read leaves it undrawn.

def _pcn(ctx, state):
    xi = ctx.rng.standard_normal(len(state.v))
    cand = ctx.model.state(pcn_propose(state.v, ctx.params, xi))
    return cand, pcn_log_ratio(state.phi, cand.phi)


def _inf_mala(ctx, state):
    grad = state.grad
    xi = ctx.rng.standard_normal(len(state.v))
    cand = ctx.model.state(inf_mala_propose(state.v, grad, ctx.params, xi))
    return cand, inf_mala_log_ratio(state.v, cand.v, grad, cand.grad,
                                    state.phi, cand.phi, ctx.params)


def _dr_mmala(ctx, state):
    params = ctx.params
    spec_v = _spectrum(ctx, state)
    gr, g_perp, ghat = _values(state, spec_v, params)
    xi = ctx.rng.standard_normal(len(state.v))
    cand = ctx.model.state(dr_mmala_propose(state.v, ghat, spec_v, params, xi))
    spec_vp = _spectrum(ctx, cand)
    return cand, dr_mmala_log_ratio(state.v, cand.v, spec_v, spec_vp, (gr, g_perp),
                                    _values(cand, spec_vp, params)[:2],
                                    state.phi, cand.phi, params)


def _dr_mhmc(ctx, state):
    """One model state per trajectory point, only the latest kept. Its memo
    keeps its drift, so the drift at v_0 is the one formed at the end of the
    trajectory that reached it, or at the last iteration when that was
    rejected. A drift without gradient terms builds no model state (and
    makes no solve) at a point that has none."""
    count = _leapfrog_count(ctx)
    last, params = [state], ctx.params
    reads_grad = params.gamma_r or params.gamma_perp

    def ensure(v):
        if last[0].v is not v:
            last[0] = ctx.model.state(v)
        return last[0]

    def drift_fn(v, spec):
        if reads_grad or last[0].v is v:
            return _values(ensure(v), spec, params)[2]
        return _values(WhitenedState(ctx.model, None, v), spec, params)[2]

    spec = _spectrum(ctx, state)
    vt = apply_sqrtK_hat(ctx.rng.standard_normal(len(state.v)), spec)
    spec_fn = None if ctx.lis is not None else lambda v: _ensure_spec(ctx, ensure(v))
    out = dr_mhmc_propose(state.v, spec, params, drift_fn, vt, count, spec_fn=spec_fn)
    cand = ensure(out.v_prime)
    return cand, -dr_mhmc_delta_E(out.trajectory, state.phi, cand.phi)


def _dili(ctx, state):
    spec = ctx.lis.spectrum
    built_for, ops = ctx.dili_ops
    if spec is not built_for:
        ops = dili_operators(spec, ctx.steps["h_r"], ctx.steps["h_perp"],
                             ctx.params.gamma_r)
        ctx.dili_ops = (spec, ops)
    cv, cg = _projected(state, spec, ops)
    xi = ctx.rng.standard_normal(len(state.v))
    cand = ctx.model.state(dili_propose(state.v, cv, cg, spec, ops, xi))
    cv_p, cg_p = _projected(cand, spec, ops)
    return cand, dili_exact_log_ratio(cv, cv_p, cg, cg_p, state.phi, cand.phi, ops)


_KERNELS = {
    "pcn": _pcn,
    "inf-mala": _inf_mala,
    "inf-hmc": _dr_mhmc,
    "dr-inf-mmala": _dr_mmala,
    "dr-inf-mhmc": _dr_mhmc,
    "dili": _dili,
    "adr-inf-mmala": _dr_mmala,
    "adr-inf-mhmc": _dr_mhmc,
}
ALGORITHMS = tuple(_KERNELS)


def _mh_step(kernel, ctx, state):
    """One Metropolis-Hastings step: (next state, outcome). A solver or
    arithmetic failure while proposing or scoring the candidate is ERROR;
    otherwise decide draws its uniform, and a rejected NaN log ratio is
    NONFINITE."""
    try:
        cand, log_ratio = kernel(ctx, state)
    except NUMERICAL_ERRORS:
        return state, ERROR
    if decide(log_ratio, ctx.rng):
        return cand, ACCEPTED
    return state, NONFINITE if math.isnan(log_ratio) else REJECTED


def run_chain(model, config):
    """Run the chain a RunConfig describes on a WhitenedModel and return
    its ChainRecord. The config's model and problem fields are not read:
    the model is given. The chain starts at v = 0, its RNG is seeded with
    config.seed, and its pde_solves count the solves made since it started.

    For the adaptive kernels lis.adaptation_step grows the global subspace
    during burn-in and freezes it. config.max_rank caps each local spectrum
    fed to an LIS update; the global subspace is cut by the threshold alone.
    The LIS trail is stored in the record's meta.
    """
    steps = config.resolved_steps()
    rng = np.random.default_rng(config.seed)
    n = model.n
    iterations = config.iterations
    params = StepParams(h=steps["h"], gamma_r=config.gamma_r,
                        gamma_perp=config.gamma_perp, eps=steps["eps"])
    # The randomized eigensolver's probe block: unused since local spectra are
    # exact, but drawn so that every chain's RNG stream stays as it was.
    rng.standard_normal((n, min(max(config.rank, min(config.max_rank, n)) + 5, n)))
    ctx = KernelContext(model=model, config=config, steps=steps, params=params,
                        rng=rng)
    if config.algorithm == "inf-hmc":
        ctx.params = replace(params, gamma_r=0, gamma_perp=1)
        ctx.lis = LISState(LowRankSpectrum.empty(n), frozen=True)
    if config.algorithm in ADAPTIVE:
        ctx.lis = LISState(LowRankSpectrum.empty(n))
    kernel = _KERNELS[config.algorithm]

    solves_before, state = model.solves(), model.state(np.zeros(n))
    record = ChainRecord(samples=np.empty((iterations, n)), **{
        col.name: np.zeros(iterations, col.metadata["dtype"]) for col in COLUMNS})
    outcomes = [0] * 4  # iterations per outcome code

    for it in range(iterations):
        t0 = time.perf_counter()
        state, outcome = _mh_step(kernel, ctx, state)
        outcomes[outcome] += 1
        if ctx.lis is not None and not ctx.lis.frozen:
            ctx.lis = adaptation_step(it, ctx.lis, config, lambda: local_spectrum(
                state.jv, config.max_rank, config.threshold))
        record.wall_times[it] = time.perf_counter() - t0
        record.samples[it] = state.u
        record.potentials[it] = state.phi
        record.accepts[it] = outcome == ACCEPTED
        record.pde_solves[it] = model.solves() - solves_before

    record.meta = meta = {"algorithm": config.algorithm, "h": steps["h"],
                          "burn_in": config.burn_in, "seed": config.seed,
                          "error_rejects": outcomes[ERROR], "nonfinite_rejects": outcomes[NONFINITE]}
    if config.algorithm in ADAPTIVE:
        meta["lis"] = {  # lis.json as written, in this key order
            "eigenvalues": ctx.lis.spectrum.eigenvalues.tolist(),
            "history": [list(row) for row in ctx.lis.history],
            "m": ctx.lis.m,
            "r": ctx.lis.r,
            "d_f": ctx.lis.d_f,
            "frozen": ctx.lis.frozen,
            "update_errors": ctx.lis.errors,
        }
        meta["lis_state"] = ctx.lis
    return record
