"""Which program functions the traced run wraps, what their spans add up
to per chain, and the names of every metric the benchmark prints.

Every wrapper sits at the name its caller looks up at call time:

* chain.py imported the proposal, ratio, ``decide`` and ``local_spectrum``
  functions into its own namespace, so those are wrapped on ``drgmc.chain``;
* ``local_spectrum`` calls ``randomized_eig`` and ``adaptation_step`` calls
  ``update_lis`` through ``drgmc.lis``;
* the elliptic state calls ``assemble_and_solve``, ``gradient`` and
  ``gnh_action`` through ``drgmc.elliptic``; solves go through the
  ``ForwardSolveResult.solve`` method;
* chain states come from ``WhitenedModel.state``, and ``randomized_eig``
  applies ``WhitenedState.gnh_action`` to a block of vectors;
* prior applies go through ``CovarianceOperator.sqrt_apply``, set-up
  through ``drgmc.harness.build_prior_covariance`` (elliptic) and the
  ``CovarianceOperator`` constructor (linear model), and ``write_run``
  imports ``ess_per_coordinate`` from ``drgmc.diagnostics`` when called.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import counts, inclusive_times, self_times
from workloads import ADAPTIVE as ADAPTIVE_KERNELS
from workloads import KERNELS as ALL

GNH_KERNELS = ("dr-inf-mmala", "dr-inf-mhmc", "dili", "adr-inf-mmala",
               "adr-inf-mhmc")
HMC_KERNELS = ("inf-hmc", "dr-inf-mhmc", "adr-inf-mhmc")


class ProposalLog:
    """Reads proposal outputs and log ratios as they pass the wrappers.

    Counts leapfrog steps, and classifies each failed iteration once: a
    proposal that diverged, a non-finite log ratio, or (found by the caller
    from the number of ``decide`` calls) an exception before ``decide``.
    Every step calls its proposal before ``decide`` and calls ``decide`` at
    most once, so ``decide`` sees the proposal of its own iteration.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.last_diverged = False
        self.leapfrog_steps = 0

    def proposal(self, args, result, exc):
        trajectory = getattr(result, "trajectory", None)
        if trajectory is not None:
            self.leapfrog_steps += len(trajectory.vs) - 1
        self.last_diverged = bool(exc is None and getattr(result, "diverged", False))
        return "diverged" if self.last_diverged else None

    def decide(self, args, result, exc):
        lr = float(args[0])
        diverged, self.last_diverged = self.last_diverged, False
        if math.isfinite(lr):
            return None
        return "after_divergence" if diverged else "nonfinite"


def _block_fallback(args, result, exc):
    # WhitenedState.gnh_action(self, w): randomized_eig first tries the
    # whole block and, if that raises, applies it one column at a time.
    if exc is not None and np.ndim(args[1]) == 2:
        return "fallback"
    return None


def wrapper_table(drgmc, log):
    """(owner, attribute, span name, observer) for every traced function."""
    chain, lis, elliptic = drgmc.chain, drgmc.lis, drgmc.elliptic
    cov_cls = drgmc.operators.CovarianceOperator
    table = [
        (drgmc.harness, "build_prior_covariance", "operators.prior_build", None),
        (cov_cls, "__init__", "operators.prior_build", None),
        (elliptic, "make_problem", "elliptic.problem_build", None),
        (elliptic, "generate_data", "elliptic.problem_build", None),
        (cov_cls, "sqrt_apply", "operators.prior_apply", None),
        (elliptic, "assemble_and_solve", "elliptic.factor", None),
        (elliptic.ForwardSolveResult, "solve", "elliptic.solve", None),
        (elliptic, "gradient", "elliptic.gradient", None),
        (elliptic, "gnh_action", "elliptic.gnh", None),
        (chain.WhitenedModel, "state", "chain.state", None),
        (chain.WhitenedState, "gnh_action", "operators.eig_action", _block_fallback),
        (lis, "randomized_eig", "operators.eig", None),
        (chain, "local_spectrum", "lis.local_spectrum", None),
        (lis, "update_lis", "lis.update", None),
        (chain, "decide", "acceptance.decide", log.decide),
        (drgmc.diagnostics, "ess_per_coordinate", "diagnostics.ess", None),
    ]
    for attr in ("pcn_propose", "inf_mala_propose", "inf_hmc_propose",
                 "dr_mmala_propose", "dr_mhmc_propose", "dili_propose"):
        table.append((chain, attr, "proposals", log.proposal))
    table.append((chain, "dili_operators", "proposals", None))
    for attr in ("pcn_log_ratio", "inf_mala_log_ratio", "dr_mmala_log_ratio",
                 "dili_exact_log_ratio", "dr_mhmc_delta_E"):
        table.append((chain, attr, "acceptance.ratio", None))
    return table


def restored(drgmc):
    """True when every traced name is the program's own object again."""
    return (drgmc.chain.decide is drgmc.acceptance.decide
            and not any(hasattr(getattr(owner, attr), "__wrapped__")
                        for owner, attr, _, _ in wrapper_table(drgmc, ProposalLog())))


# (metric, unit, kernels it is reported for); the name printed is
# "<metric>.<kernel>". Where a layer does no work for a kernel (every
# elliptic metric on the linear workload) the value is 0.
PER_KERNEL = (
    ("elliptic.factorizations_per_iter", "count/iter", ALL),
    ("elliptic.factor_ms_per_iter", "ms/iter", ALL),
    ("elliptic.solves_per_iter", "count/iter", ALL),
    ("elliptic.solve_ms_per_iter", "ms/iter", ALL),
    ("elliptic.gradient_ms_per_iter", "ms/iter", ALL[1:]),
    ("elliptic.gnh_ms_per_iter", "ms/iter", GNH_KERNELS),
    ("operators.eig_calls_per_iter", "count/iter", GNH_KERNELS),
    ("operators.eig_ms_per_iter", "ms/iter", GNH_KERNELS),
    ("operators.prior_apply_ms_per_iter", "ms/iter", ALL),
    ("lis.updates", "count", ADAPTIVE_KERNELS),
    ("lis.update_ms", "ms", ADAPTIVE_KERNELS),
    ("lis.local_spectrum_ms", "ms", ADAPTIVE_KERNELS),
    ("lis.rank", "count", ADAPTIVE_KERNELS),
    ("proposals.ms_per_iter", "ms/iter", ALL),
    ("proposals.leapfrog_steps_per_iter", "count/iter", HMC_KERNELS),
    ("acceptance.ratio_ms_per_iter", "ms/iter", ALL),
    ("acceptance.accept_rate", "1", ALL),
    ("chain.self_ms_per_iter", "ms/iter", ALL),
    ("failed_iter_frac", "1", ALL),
)

# Summed over the workload's chains, or taken from set-up and output.
POOLED = (
    ("operators.prior_build_s", "s"),
    ("elliptic.problem_build_s", "s"),
    ("operators.eig_vector_fallbacks_per_iter", "count/iter"),
    ("chain.states_per_iter", "count/iter"),
    ("acceptance.exception_rejects", "count"),
    ("acceptance.nonfinite_ratios", "count"),
    ("proposals.diverged", "count"),
    ("diagnostics.ess_s", "s"),
    ("runio.write_s", "s"),
    ("runio.bytes_written", "B"),
    ("trace.overhead_frac", "1"),
)


def end_to_end_metrics():
    """Every end-to-end metric as (name, unit), in the order printed."""
    return ([("setup_s", "s")] + [(f"ms_per_iter.{k}", "ms") for k in ALL]
            + [("output_s", "s"), ("peak_rss_mb", "MB")])


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in the order printed."""
    names = [(f"{metric}.{kernel}", unit)
             for metric, unit, kernels in PER_KERNEL for kernel in kernels]
    return names + list(POOLED)


def chain_layers(spans, record, kernel, leapfrog_steps):
    """Per-layer metrics of one traced chain, keyed by metric without the
    kernel suffix, plus the counts that are pooled over the workload.
    spans[0] is the chain's root span."""
    iterations = len(record.samples)
    own = self_times(spans)
    incl = inclusive_times(spans)
    n = counts(spans)
    per_ms = 1e3 / iterations

    def ms(*names):
        return per_ms * sum(own.get(x, 0.0) for x in names)

    decides = n.get("acceptance.decide", 0)
    diverged = counts(spans, note="diverged").get("proposals", 0)
    after_div = counts(spans, note="after_divergence").get("acceptance.decide", 0)
    nonfinite = counts(spans, note="nonfinite").get("acceptance.decide", 0)
    # iterations that never reached decide, less those already counted
    # as diverged
    exception = (iterations - decides) - (diverged - after_div)
    lis = record.meta.get("lis")
    values = {
        "elliptic.factorizations_per_iter": n.get("elliptic.factor", 0) / iterations,
        "elliptic.factor_ms_per_iter": ms("elliptic.factor"),
        "elliptic.solves_per_iter": n.get("elliptic.solve", 0) / iterations,
        "elliptic.solve_ms_per_iter": ms("elliptic.solve"),
        "elliptic.gradient_ms_per_iter": ms("elliptic.gradient"),
        "elliptic.gnh_ms_per_iter": ms("elliptic.gnh"),
        "operators.eig_calls_per_iter": n.get("operators.eig", 0) / iterations,
        "operators.eig_ms_per_iter": ms("operators.eig", "operators.eig_action"),
        "operators.prior_apply_ms_per_iter": ms("operators.prior_apply"),
        "lis.updates": n.get("lis.update", 0),
        "lis.update_ms": 1e3 * incl.get("lis.update", 0.0),
        "lis.local_spectrum_ms": 1e3 * incl.get("lis.local_spectrum", 0.0),
        "lis.rank": lis["r"] if lis is not None else 0,
        "proposals.ms_per_iter": ms("proposals"),
        "proposals.leapfrog_steps_per_iter": leapfrog_steps / iterations,
        "acceptance.ratio_ms_per_iter": ms("acceptance.ratio", "acceptance.decide"),
        "acceptance.accept_rate": float(record.accepts.mean()),
        "chain.self_ms_per_iter": ms("chain", "chain.state"),
        "failed_iter_frac": (exception + nonfinite + diverged) / iterations,
    }
    pooled = {
        "iterations": iterations,
        "solves": n.get("elliptic.solve", 0),
        "states": n.get("chain.state", 0),
        "eig_fallbacks": counts(spans, note="fallback").get("operators.eig_action", 0),
        "exception_rejects": exception,
        "nonfinite_ratios": nonfinite,
        "diverged": diverged,
    }
    return values, pooled
