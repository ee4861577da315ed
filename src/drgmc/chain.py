"""Metropolis-Hastings drivers for the whitened kernel family.

A WhitenedModel bridges model states (which live in u coordinates and cache
their own forward/adjoint solves) to the whitened coordinates v = C^{-1/2} u
that every kernel works in. One chain = one RNG stream. A local spectrum is
exact, from the Gram eigenproblem of the state's whitened Jacobian and a QR
basis, so it is a deterministic function of position and draws nothing from
the stream.

Curvature is formed once per distinct Jacobian array: the model whitens a
Jacobian only when it is not the one it whitened last, and a chain
decomposes a whitened Jacobian only when it is not the one it decomposed
last. A model whose states share one Jacobian object (the linear model)
pays for both once per chain; a model whose states form their own
(the elliptic one) pays once per state, as before.

The eight samplers share one Metropolis-Hastings step; each kernel only
maps the current state to a candidate and its log acceptance ratio.
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
from .operators import NUMERICAL_ERRORS, LowRankSpectrum
from .proposals import (StepParams, dili_operators, dili_propose,
                        dr_mhmc_propose, dr_mmala_propose, inf_hmc_propose,
                        inf_mala_propose, pcn_propose)

ADAPTIVE = ("dili", "adr-inf-mmala", "adr-inf-mhmc")
HAMILTONIAN = ("inf-hmc", "dr-inf-mhmc", "adr-inf-mhmc")
# what one Metropolis-Hastings step did with its candidate
ACCEPTED, REJECTED, ERROR, NONFINITE = range(4)


class WhitenedState:
    """Lazy caches in v coordinates on top of a u-space model state. The
    whitened Jacobian Jv = J S comes from the model, which whitens each
    distinct Jacobian array once: the Gauss-Newton Hessian S J^T J S is
    Jv^T Jv, whose eigenpairs come from the m x m Gram matrix Jv Jv^T
    (lis.local_spectrum)."""

    __slots__ = ("v", "ustate", "_model", "_grad", "_jv", "spec")

    def __init__(self, model, ustate, v):
        self._model = model
        self.ustate = ustate
        self.v = v
        self._grad = None
        self._jv = None
        self.spec = None

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
            self._jv = self._model.whiten(self.ustate.jac)
        return self._jv

    def gnh_action(self, w):
        return self.jv.T @ (self.jv @ w)


class WhitenedModel:
    """cov: prior CovarianceOperator; state_factory(u) -> the model's one
    state at u, caching phi (data misfit), grad (its u-gradient) and jac (the
    m x n Jacobian whose Gram matrix J^T J is the Gauss-Newton Hessian);
    counter: optional solve counter to snapshot."""

    def __init__(self, cov, state_factory, counter=None):
        self.cov = cov
        self._factory = state_factory
        self._counter = counter
        self._whitened = (None, None)

    @property
    def n(self):
        return self.cov.n

    def state(self, v):
        u = self.cov.sqrt_apply(v)
        return WhitenedState(self, self._factory(u), v)

    def whiten(self, jac):
        """Jv = J S, read-only, reused while jac is the array it came from."""
        last_jac, jv = self._whitened
        if jac is not last_jac:
            jv = self.cov.sqrt_apply(jac.T).T
            jv.flags.writeable = False
            self._whitened = (jac, jv)
        return jv

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
    lis: LISState | None = None
    # (spectrum, DILI operators built from it)
    dili_ops: tuple = (None, None)
    # (jv, spectrum) of the last position-specific decomposition
    last_spec: tuple = (None, None)


def _ensure_spec(ctx, state):
    """The state's rank-mode spectrum, decomposed only when its whitened
    Jacobian is not the array the chain decomposed last."""
    if state.spec is None:
        jv = state.jv
        last_jv, spec = ctx.last_spec
        if jv is not last_jv:
            spec = local_spectrum(jv, rank=ctx.config.rank)
            ctx.last_spec = (jv, spec)
        state.spec = spec
    return state.spec


def _randomize_steps(ctx):
    """Leapfrog count drawn uniformly from {1..I} each iteration."""
    top = ctx.params.n_leapfrog
    count = int(ctx.rng.integers(1, top + 1)) if top > 1 else 1
    return replace(ctx.params, n_leapfrog=count)


def _hmc_callbacks(ctx, state):
    """Boundary-state factory sharing one model state per trajectory point."""
    cache = {"last": None}

    def ensure(v):
        if v is state.v:
            return state
        st = cache["last"]
        if st is None or st.v is not v:
            st = ctx.model.state(v)
            cache["last"] = st
        return st

    def grad_fn(v):
        return ensure(v).grad

    def spec_fn(v):
        return _ensure_spec(ctx, ensure(v))

    return ensure, grad_fn, spec_fn


# Kernels: (ctx, state) -> (candidate, log acceptance ratio). DR kernels hold
# the global LIS spectrum fixed when the chain adapts one (ctx.lis set).
# Proposals and ratios are looked up as module globals at call time, so
# wrappers installed on this module (bench/layers.py) see every call.

def _pcn(ctx, state):
    out = pcn_propose(state.v, ctx.params, ctx.rng)
    cand = ctx.model.state(out.v_prime)
    return cand, pcn_log_ratio(state.phi, cand.phi)


def _inf_mala(ctx, state):
    out = inf_mala_propose(state.v, state.grad, ctx.params, ctx.rng)
    cand = ctx.model.state(out.v_prime)
    return cand, inf_mala_log_ratio(state.v, cand.v, state.grad, cand.grad,
                                    state.phi, cand.phi, ctx.params)


def _inf_hmc(ctx, state):
    params = _randomize_steps(ctx)
    ensure, grad_fn, _ = _hmc_callbacks(ctx, state)
    out = inf_hmc_propose(state.v, params, grad_fn, ctx.rng)
    cand = ensure(out.v_prime)
    return cand, -dr_mhmc_delta_E(out.trajectory, state.phi, cand.phi)


def _dr_mmala(ctx, state):
    fixed = ctx.lis is not None
    spec_v = ctx.lis.spectrum if fixed else _ensure_spec(ctx, state)
    out = dr_mmala_propose(state.v, state.grad, spec_v, ctx.params, ctx.rng)
    cand = ctx.model.state(out.v_prime)
    spec_vp = spec_v if fixed else _ensure_spec(ctx, cand)
    return cand, dr_mmala_log_ratio(state.v, cand.v, spec_v, spec_vp,
                                    state.grad, cand.grad, state.phi, cand.phi,
                                    ctx.params)


def _dr_mhmc(ctx, state):
    params = _randomize_steps(ctx)
    ensure, grad_fn, spec_fn = _hmc_callbacks(ctx, state)
    if ctx.lis is not None:
        spec_v, spec_fn = ctx.lis.spectrum, None
    else:
        spec_v = _ensure_spec(ctx, state)
    out = dr_mhmc_propose(state.v, spec_v, params, grad_fn, ctx.rng,
                          spec_fn=spec_fn)
    cand = ensure(out.v_prime)
    return cand, -dr_mhmc_delta_E(out.trajectory, state.phi, cand.phi)


def _dili(ctx, state):
    spec = ctx.lis.spectrum
    h_r, h_perp = ctx.steps["h_r"], ctx.steps["h_perp"]
    built_for, ops = ctx.dili_ops
    if spec is not built_for:
        ops = dili_operators(spec, h_r, h_perp, ctx.params.gamma_r)
        ctx.dili_ops = (spec, ops)
    grad_needed = bool(ctx.params.gamma_r) and spec.r > 0
    grad = state.grad if grad_needed else None
    out = dili_propose(state.v, grad, spec, h_r, h_perp,
                       ctx.params.gamma_r, ctx.rng, operators=ops)
    cand = ctx.model.state(out.v_prime)
    grad_p = cand.grad if grad_needed else None
    return cand, dili_exact_log_ratio(state.v, cand.v, spec, grad, grad_p,
                                      state.phi, cand.phi, ops)


_KERNELS = {
    "pcn": _pcn,
    "inf-mala": _inf_mala,
    "inf-hmc": _inf_hmc,
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
                        gamma_perp=config.gamma_perp,
                        n_leapfrog=steps["n_leapfrog"], eps=steps["eps"])
    # The randomized eigensolver's probe block: unused since local spectra are
    # exact, but drawn so that every chain's RNG stream stays as it was.
    rng.standard_normal((n, min(max(config.rank, min(config.max_rank, n)) + 5, n)))
    ctx = KernelContext(model=model, config=config, steps=steps, params=params,
                        rng=rng)
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
        if ctx.lis is not None:
            ctx.lis = adaptation_step(it, ctx.lis, config, lambda: local_spectrum(
                state.jv, threshold=config.threshold, max_rank=config.max_rank))
        record.wall_times[it] = time.perf_counter() - t0
        record.samples[it] = state.u
        record.potentials[it] = state.phi
        record.accepts[it] = outcome == ACCEPTED
        record.pde_solves[it] = model.solves() - solves_before

    record.meta = meta = {"algorithm": config.algorithm, "h": steps["h"],
                          "burn_in": config.burn_in, "seed": config.seed,
                          "error_rejects": outcomes[ERROR], "nonfinite_rejects": outcomes[NONFINITE]}
    if ctx.lis is not None:
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
