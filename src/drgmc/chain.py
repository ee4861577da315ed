"""Metropolis-Hastings drivers for the whitened kernel family.

A WhitenedModel bridges model states (which live in u coordinates and cache
their own forward/adjoint solves) to the whitened coordinates v = C^{-1/2} u
that every kernel works in. One chain = one RNG stream; the randomized
eigensolver reuses a single probe block drawn at chain start, so the local
spectrum is a deterministic function of position and detailed balance is
unaffected by the randomization.

The eight samplers share one Metropolis-Hastings step; each kernel only
maps the current state to a candidate and its log acceptance ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .acceptance import (AcceptDecision, decide, dili_exact_log_ratio,
                         dr_mhmc_delta_E, dr_mmala_log_ratio,
                         inf_mala_log_ratio, pcn_log_ratio)
from .diagnostics import ChainRecord
from .lis import LISState, adaptation_step, freeze, local_spectrum
from .proposals import (StepParams, dili_operators, dili_propose,
                        dr_mhmc_propose, dr_mmala_propose, inf_hmc_propose,
                        inf_mala_propose, pcn_propose)

ADAPTIVE = ("dili", "adr-inf-mmala", "adr-inf-mhmc")
HAMILTONIAN = ("inf-hmc", "dr-inf-mhmc", "adr-inf-mhmc")


class WhitenedState:
    """Lazy caches in v coordinates on top of a u-space model state."""

    __slots__ = ("v", "ustate", "_cov", "_u", "_grad", "spec")

    def __init__(self, cov, ustate, v):
        self._cov = cov
        self.ustate = ustate
        self.v = v
        self._u = None
        self._grad = None
        self.spec = None

    @property
    def u(self):
        if self._u is None:
            self._u = self.ustate.u
        return self._u

    @property
    def phi(self):
        return self.ustate.phi

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._cov.sqrt_apply(self.ustate.grad)
        return self._grad

    def gnh_action(self, w):
        return self._cov.sqrt_apply(self.ustate.gnh_action(self._cov.sqrt_apply(w)))


class WhitenedModel:
    """cov: prior CovarianceOperator; state_factory(u) -> u-space state with
    phi/grad/gnh_action; counter: optional solve counter to snapshot."""

    def __init__(self, cov, state_factory, counter=None):
        self.cov = cov
        self._factory = state_factory
        self._counter = counter

    @property
    def n(self):
        return self.cov.n

    def state(self, v):
        u = self.cov.sqrt_apply(v)
        return WhitenedState(self.cov, self._factory(u), v)

    def solves(self):
        return self._counter.count if self._counter is not None else 0


@dataclass
class KernelContext:
    model: WhitenedModel
    params: StepParams
    rng: np.random.Generator
    rank: int = 5
    threshold: float = 0.01
    max_rank: int = 30
    probe: np.ndarray | None = None
    lis: LISState | None = None
    h_r: float | None = None
    h_perp: float | None = None
    dili_ops: object = None


_REJECTABLE = (FloatingPointError, np.linalg.LinAlgError, OverflowError)
_REJECTED = AcceptDecision(float("-inf"), False, 1.0)


def _ensure_spec(ctx, state):
    if state.spec is None:
        state.spec = local_spectrum(state.gnh_action, ctx.model.n,
                                    rank=ctx.rank, probe=ctx.probe)
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
    cand.spec = out.trajectory.specs[-1]
    return cand, -dr_mhmc_delta_E(out.trajectory, state.phi, cand.phi)


def _dili(ctx, state):
    spec = ctx.lis.spectrum
    if ctx.dili_ops is None:
        ctx.dili_ops = dili_operators(spec, ctx.h_r, ctx.h_perp, ctx.params.gamma_r)
    grad_needed = bool(ctx.params.gamma_r) and spec.r > 0
    grad = state.grad if grad_needed else None
    out = dili_propose(state.v, grad, spec, ctx.h_r, ctx.h_perp,
                       ctx.params.gamma_r, ctx.rng, operators=ctx.dili_ops)
    cand = ctx.model.state(out.v_prime)
    grad_p = cand.grad if grad_needed else None
    return cand, dili_exact_log_ratio(state.v, cand.v, spec, grad, grad_p,
                                      state.phi, cand.phi, ctx.dili_ops)


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
    """One Metropolis-Hastings step; a solver or arithmetic failure while
    proposing or scoring the candidate rejects it and returns _REJECTED."""
    try:
        cand, log_ratio = kernel(ctx, state)
    except _REJECTABLE:
        return state, _REJECTED
    dec = decide(log_ratio, ctx.rng)
    return (cand if dec.accept else state), dec


def run_chain(model, algorithm, *, iterations, burn_in=0, h=None, h_r=None,
              h_perp=None, gamma_r=1, gamma_perp=0, n_leapfrog=1, eps=None,
              rank=5, threshold=0.01, max_rank=30, n_lag=200, m_max=100,
              delta_lis=1e-5, seed=0, rng=None, v0=None):
    """Run one chain and return its ChainRecord.

    For the adaptive kernels the global subspace is grown during burn-in on
    the n_lag schedule and frozen at the end of burn-in (or earlier, once
    the Forstner distance stalls below delta_lis or the budget m_max is
    spent). The LIS trail is stored in the record's meta.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm '{algorithm}'")
    if iterations <= burn_in or burn_in < 0:
        raise ValueError("need iterations > burn_in >= 0")
    if h is None and h_r is None:
        raise ValueError("a step size is required")
    rng = rng if rng is not None else np.random.default_rng(seed)
    n = model.n
    base_h = h if h is not None else h_r
    params = StepParams(h=base_h, gamma_r=gamma_r, gamma_perp=gamma_perp,
                        n_leapfrog=n_leapfrog, eps=eps)
    probe_width = max(rank, min(max_rank, n)) + 5
    ctx = KernelContext(model=model, params=params, rng=rng, rank=rank,
                        threshold=threshold, max_rank=max_rank,
                        probe=rng.standard_normal((n, min(probe_width, n))),
                        h_r=h_r if h_r is not None else base_h,
                        h_perp=h_perp if h_perp is not None else base_h)
    if algorithm in ADAPTIVE:
        ctx.lis = LISState.initial(n, rho_g=threshold, delta_lis=delta_lis,
                                   m_max=m_max, n_lag=n_lag)
    kernel = _KERNELS[algorithm]

    state = model.state(np.zeros(n) if v0 is None else np.asarray(v0, dtype=float))
    samples = np.empty((iterations, n))
    potentials = np.empty(iterations)
    accepts = np.zeros(iterations, dtype=bool)
    wall = np.empty(iterations)
    solves = np.zeros(iterations, dtype=np.int64)
    error_rejects = 0

    for it in range(iterations):
        t0 = time.perf_counter()
        state, dec = _mh_step(kernel, ctx, state)
        if dec is _REJECTED:
            error_rejects += 1
        if ctx.lis is not None and it < burn_in:
            before = ctx.lis
            ctx.lis = adaptation_step(it, ctx.lis, lambda: local_spectrum(
                state.gnh_action, n, threshold=ctx.threshold,
                max_rank=ctx.max_rank, probe=ctx.probe))
            if ctx.lis is not before:
                ctx.dili_ops = None
            if it + 1 == burn_in and not ctx.lis.frozen:
                ctx.lis = freeze(ctx.lis)
        wall[it] = time.perf_counter() - t0
        samples[it] = state.u
        potentials[it] = state.phi
        accepts[it] = dec.accept
        solves[it] = model.solves()

    meta = {"algorithm": algorithm, "h": base_h, "burn_in": burn_in,
            "seed": seed, "gamma_r": gamma_r, "gamma_perp": gamma_perp,
            "n_leapfrog": n_leapfrog, "error_rejects": error_rejects}
    if h_r is not None:
        meta["h_r"], meta["h_perp"] = ctx.h_r, ctx.h_perp
    if ctx.lis is not None:
        meta["lis"] = {
            "m": ctx.lis.m,
            "r": ctx.lis.r,
            "d_f": ctx.lis.d_f,
            "frozen": ctx.lis.frozen,
            "history": [list(row) for row in ctx.lis.history],
            "eigenvalues": ctx.lis.spectrum.eigenvalues.tolist(),
        }
        meta["lis_state"] = ctx.lis
    return ChainRecord(samples=samples, potentials=potentials, accepts=accepts,
                       wall_times=wall, pde_solves=solves, meta=meta)
