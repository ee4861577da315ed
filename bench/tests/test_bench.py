"""The benchmark's own code: span arithmetic, wrapper install and removal,
failure accounting and metric names."""

import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import drgmc
import drgmc.harness
from drgmc.config import RunConfig
from reference import REFERENCE_S, Reference, ScaledClock
from layers import (ProposalLog, chain_layers, end_to_end_metrics,
                    per_layer_metrics, restored, wrapper_table)
from tracing import Tracer, counts, inclusive_times, self_times
from workloads import KERNELS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: float(next(it))


def test_self_time_subtracts_direct_children_of_nested_spans():
    # chain [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tracer = Tracer(clock=scripted_clock(0, 1, 4, 5, 6, 7, 9, 10))
    with tracer.span("chain"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert self_times(tracer.spans) == {"chain": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert inclusive_times(tracer.spans) == {"chain": 10.0, "a": 3.0, "b": 4.0, "c": 1.0}
    assert sum(self_times(tracer.spans).values()) == 10.0


def test_inclusive_time_counts_a_name_nested_in_itself_once():
    tracer = Tracer(clock=scripted_clock(0, 2, 5, 8))
    with tracer.span("x"):
        with tracer.span("x"):
            pass
    assert inclusive_times(tracer.spans) == {"x": 8.0}
    assert self_times(tracer.spans) == {"x": 8.0}
    assert counts(tracer.spans) == {"x": 2}


def test_scaled_time_divides_by_the_mean_of_the_bracketing_references():
    # references before and after the work read 1.5x and 2.5x REFERENCE_S:
    # the box ran at half speed, so 4 s of work count as 2 s
    passes = iter([1.5 * REFERENCE_S, 2.5 * REFERENCE_S, 4.0 * REFERENCE_S])
    reference = SimpleNamespace(seconds=lambda: next(passes))
    clock = ScaledClock(reference, clock=scripted_clock(10, 14, 20, 21))
    assert clock.time(lambda: "done") == ("done", 4.0, pytest.approx(2.0))
    # the pass after one piece of work is the pass before the next
    assert clock.time(lambda: None)[2] == pytest.approx(1.0 / 3.25)


def test_reference_work_is_fixed():
    reference = Reference()
    assert reference.interpreter() == Reference().interpreter()
    assert reference.sparse() == Reference().sparse()
    assert reference.seconds() > 0


def test_wrapper_closes_its_span_and_reraises():
    tracer = Tracer(clock=scripted_clock(0, 1, 3, 4))
    seen = []

    def boom(x):
        raise ValueError(x)

    traced = tracer.wrap(boom, "boom",
                         observe=lambda a, r, e: seen.append(e) or "raised")
    with tracer.span("root"):
        with pytest.raises(ValueError):
            traced(1)
    (root, span) = tracer.spans
    assert span[1] == 0 and span[4] == "raised"
    assert isinstance(seen[0], ValueError)
    assert self_times(tracer.spans) == {"root": 2.0, "boom": 2.0}
    assert traced.__wrapped__ is boom


def _linear_model():
    return drgmc.harness.build_model(RunConfig(model="linear-gaussian", rank=4))


def _every_kernel(model, seed=5):
    out = {}
    for kernel in KERNELS:
        cfg = RunConfig(model="linear-gaussian", algorithm=kernel, rank=4,
                        iterations=30, burn_in=10, n_lag=3, seed=seed)
        out[kernel] = drgmc.harness.run_from_config(cfg, model=model)
    return out


def test_wrappers_are_removed_and_do_not_change_chains():
    model, _ = _linear_model()
    plain = _every_kernel(model)
    tracer, log = Tracer(), ProposalLog()
    tracer.install(wrapper_table(drgmc, log))
    assert drgmc.chain.decide is not drgmc.acceptance.decide
    try:
        traced = _every_kernel(model)
        names = counts(tracer.spans)
    finally:
        tracer.uninstall()
    assert drgmc.chain.decide is drgmc.acceptance.decide
    assert restored(drgmc)
    assert "acceptance.decide" in names and "proposals" in names
    for kernel in KERNELS:
        assert np.array_equal(plain[kernel].samples, traced[kernel].samples), kernel


def test_failed_install_leaves_nothing_patched():
    tracer = Tracer()
    table = [(drgmc.chain, "decide", "acceptance.decide", None),
             (drgmc.chain, "no_such_function", "x", None)]
    with pytest.raises(AttributeError):
        tracer.install(table)
    assert drgmc.chain.decide is drgmc.acceptance.decide
    assert not tracer.installed


def test_traced_solves_match_the_solve_counter():
    model, parts = drgmc.harness.build_model(RunConfig(nx=6, ny=6))
    tracer, log = Tracer(), ProposalLog()
    tracer.install(wrapper_table(drgmc, log))
    try:
        for kernel in ("pcn", "dr-inf-mmala"):
            parts["problem"].solves.count = 0
            tracer.clear()
            with tracer.span("chain"):
                record = drgmc.harness.run_from_config(
                    RunConfig(nx=6, ny=6, algorithm=kernel, iterations=12,
                              burn_in=2, seed=3), model=model)
            _, pooled = chain_layers(tracer.spans, record, kernel, log.leapfrog_steps)
            assert pooled["solves"] == parts["problem"].solves.count > 0
            assert pooled["solves"] == int(record.pde_solves[-1])
    finally:
        tracer.uninstall()
    assert restored(drgmc)


def test_failures_are_classified_once_per_iteration():
    # four iterations: a diverged proposal that then raised, a non-finite
    # ratio, an exception before decide, and a clean step
    log = ProposalLog()
    spans = [["chain", -1, 0.0, 10.0, None]]

    def add(name, note):
        spans.append([name, 0, 1.0, 2.0, note])

    diverged = SimpleNamespace(diverged=True, trajectory=SimpleNamespace(vs=[0, 1, 2]))
    fine = SimpleNamespace(diverged=False, trajectory=None)
    add("proposals", log.proposal((), diverged, None))
    add("proposals", log.proposal((), fine, None))
    add("acceptance.decide", log.decide((float("nan"),), None, None))
    add("proposals", log.proposal((), fine, None))
    add("proposals", log.proposal((), fine, None))
    add("acceptance.decide", log.decide((-0.5,), None, None))
    record = SimpleNamespace(samples=np.zeros((4, 2)), accepts=np.array([0, 0, 0, 1]),
                             meta={})
    values, pooled = chain_layers(spans, record, "inf-hmc", log.leapfrog_steps)
    assert pooled["diverged"] == 1
    assert pooled["nonfinite_ratios"] == 1
    assert pooled["exception_rejects"] == 1
    assert values["failed_iter_frac"] == 0.75
    assert values["proposals.leapfrog_steps_per_iter"] == 0.5
    # a diverged trajectory whose -inf ratio reached decide counts once
    log.proposal((), diverged, None)
    assert log.decide((-math.inf,), None, None) == "after_divergence"


def test_metric_names_and_benchmark_file_agree():
    e2e, layers = end_to_end_metrics(), per_layer_metrics()
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    assert len(layers) <= 128
    for name, unit in e2e + layers:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == e2e
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
