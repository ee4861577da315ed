"""drgmc benchmark: per-kernel ms/iter through the path ``drgmc run`` takes.

Usage (from the repository root):

    python3 bench/run.py --workload desk --seed 1 --seconds 55 --trace 0

Each run is one process with BLAS pinned to one thread. It builds the
workload's model with ``harness.build_model``, runs rounds of eight
chains through ``harness.run_from_config`` until ``--seconds`` is used
up, writes chains with ``runio.write_run``, checks the outputs, and
prints a JSON object as its last line. ``--trace 0`` reports the
end-to-end metrics, scaled by a fixed reference workload timed next to
them (reference.py); ``--trace 1`` runs one round untraced and again
traced, and reports the per-layer metrics instead. The program under
``src/`` is not changed: tracing replaces functions from outside and puts
them back afterwards. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: with two cores the thread count alone moves
# the geometric kernels by about 2x.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"
# git (ours, and the one runio.write_manifest starts) must not look for a
# repository above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)

# Traced runs: builds of set-up, at least this many and for this long.
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_BUILDS = 200
# Untraced runs time set-up in batches of builds lasting at least
# SETUP_BATCH_S, since one linear build is shorter than the timer's
# noise; setup_s is seconds per build.
SETUP_MIN_BATCHES = 5
SETUP_BATCH_S = 0.05
OUTPUT_MIN_WRITES = 5
SECONDARY_SHARE = 0.2
# The linear chains' means must lie within this many Monte Carlo standard
# errors (sqrt(posterior variance / ESS)) of the analytic posterior mean.
# 64 coordinates are tested per run; at 5 standard errors a correct
# sampler fails one of them in fewer than 1 in 10^4 runs.
MEAN_Z_MAX = 5.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_program():
    """Import drgmc from this checkout's src/, never from anywhere else."""
    if not (SRC / "drgmc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no drgmc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import drgmc
    if Path(drgmc.__file__).resolve().parent != (SRC / "drgmc").resolve():
        raise SystemExit(f"bench: imported drgmc from {drgmc.__file__}, not {SRC}")
    return drgmc


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_describe": git_describe(),
    }


class Bench:
    def __init__(self, drgmc, workload, seed, tracer=None, log=None):
        self.drgmc = drgmc
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.log = log
        self.problems = []
        self.failed_kernels = set()
        self.config = workload.base_config(seed)
        self.model = None
        self.parts = None

    def fail(self, kernel, message):
        """Record a failed output check; the run will exit non-zero."""
        self.problems.append(f"{kernel}: {message}")
        self.failed_kernels.add(kernel)
        print(f"CHECK FAILED: {kernel}: {message}", flush=True)

    # -- set-up ----------------------------------------------------------

    def build(self):
        """One timed harness.build_model; the result becomes the model the
        chains use (every build of a seed gives the same model). When
        traced, also returns the prior and problem build times."""
        self.model = self.parts = None  # free the last build first
        if self.tracer is not None:
            self.tracer.clear()
        t0 = time.perf_counter()
        self.model, self.parts = self.drgmc.harness.build_model(self.config)
        seconds = time.perf_counter() - t0
        if self.tracer is None:
            return seconds, None
        from tracing import inclusive_times
        incl = inclusive_times(self.tracer.spans)
        return seconds, (incl.get("operators.prior_build", 0.0),
                         incl.get("elliptic.problem_build", 0.0))

    def setup(self):
        """Build at least SETUP_MIN_BUILDS times and for SETUP_MIN_SECONDS."""
        builds = []
        start = time.perf_counter()
        while (len(builds) < SETUP_MIN_BUILDS
               or (time.perf_counter() - start < SETUP_MIN_SECONDS
                   and len(builds) < SETUP_MAX_BUILDS)):
            builds.append(self.build())
        return builds

    # -- chains ----------------------------------------------------------

    def run_chain(self, kernel, round_index):
        """One chain through run_from_config, timed from outside."""
        config = self.workload.chain_config(self.seed, kernel, round_index)
        problem = self.parts.get("problem")
        if problem is not None:
            problem.solves.count = 0  # as build_model leaves it
        t0 = time.perf_counter()
        record = self.drgmc.harness.run_from_config(config, model=self.model)
        return config, record, time.perf_counter() - t0

    def run_traced_chain(self, kernel, round_index):
        from layers import chain_layers
        tracer, log = self.tracer, self.log
        tracer.clear()
        log.reset()
        with tracer.span("chain"):
            config, record, wall = self.run_chain(kernel, round_index)
        layer, pooled = chain_layers(tracer.spans, record, kernel, log.leapfrog_steps)
        tracer.clear()
        problem = self.parts.get("problem")
        if problem is not None and pooled["solves"] != problem.solves.count:
            self.fail(kernel, f"solve counter says {problem.solves.count}, traced "
                      f"ForwardSolveResult.solve calls {pooled['solves']}")
        return config, record, wall, layer, pooled

    def check_chain(self, kernel, config, record):
        if not (np.isfinite(record.samples).all() and np.isfinite(record.potentials).all()):
            self.fail(kernel, "non-finite sample or potential")
        if config.model == "elliptic":
            n = config.iterations
            expected = {"pcn": n + 1, "inf-mala": 2 * n + 2}.get(kernel)
            if expected is not None and int(record.pde_solves[-1]) != expected:
                self.fail(kernel, f"{int(record.pde_solves[-1])} solves, "
                          f"expected {expected} (one per state and iteration)")
        lis = record.meta.get("lis")
        if lis is not None and not (lis["m"] >= 1 and lis["frozen"]):
            self.fail(kernel, f"LIS made {lis['m']} updates, frozen={lis['frozen']}")

    def round(self, round_index, traced=False, run=None, between_chains=None):
        """One chain of every kernel, checked; kernel -> (config, record,
        wall seconds[, layer metrics, pooled counts]). ``run`` replaces
        run_chain, to time chains another way."""
        run = run or (self.run_traced_chain if traced else self.run_chain)
        results = {}
        for kernel in self.workload.iterations:
            results[kernel] = run(kernel, round_index)
            self.check_chain(kernel, *results[kernel][:2])
            if between_chains is not None:
                between_chains()
        if round_index == 0:
            # later linear rounds are too short for a mean check
            self.check_linear_means(results)
        return results

    def check_same(self, first, again):
        """The traced round must reproduce the untraced one bit for bit."""
        for kernel, (_, rec, *_rest) in first.items():
            other = again[kernel][1]
            if not (np.array_equal(rec.samples, other.samples)
                    and np.array_equal(rec.accepts, other.accepts)):
                self.fail(kernel, "traced chain differs from the untraced one")

    # -- output ------------------------------------------------------------

    def write(self, results):
        """write_run every chain of one round; returns (seconds, directory)."""
        runio = self.drgmc.runio
        base = OUT_DIR / f"{self.workload.name}-{os.getpid()}"
        shutil.rmtree(base, ignore_errors=True)
        t0 = time.perf_counter()
        for kernel, (config, record, *_rest) in results.items():
            if self.tracer is not None:
                with self.tracer.span("runio.write"):
                    runio.write_run(base / kernel, record, config)
            else:
                runio.write_run(base / kernel, record, config)
        return time.perf_counter() - t0, base

    def check_output(self, results, base):
        """Read the written runs back; return per-chain summaries."""
        runio = self.drgmc.runio
        summaries = {}
        for kernel, (config, record, *_rest) in results.items():
            run_dir = base / kernel
            summary = json.loads((run_dir / "summary.json").read_text())
            if not np.array_equal(runio.read_samples(run_dir / "samples.bin"), record.samples):
                self.fail(kernel, "samples.bin does not read back as the chain")
            if summary["PDEsolns"] != int(record.pde_solves[-1]):
                self.fail(kernel, f"summary PDEsolns {summary['PDEsolns']} "
                          f"!= chain {int(record.pde_solves[-1])}")
            manifest = json.loads((run_dir / "manifest.json").read_text())
            if manifest["files"]["samples.bin"]["sha256"] != runio._sha256(run_dir / "samples.bin"):
                self.fail(kernel, "manifest hash of samples.bin is wrong")
            summaries[kernel] = summary
        return summaries

    def check_linear_means(self, results):
        drgmc = self.drgmc
        lm = self.parts.get("linear_model")
        if lm is None:
            return
        mu, K = drgmc.linear_model.analytic_posterior(lm)
        var = np.diag(K)
        for kernel, (_, record, *_rest) in results.items():
            kept = record.kept()
            ess = drgmc.diagnostics.ess_per_coordinate(kept)
            if not np.all(ess > 0):
                self.fail(kernel, "a coordinate did not move (ESS 0)")
                continue
            z = np.abs(kept.mean(axis=0) - mu) / np.sqrt(var / ess)
            if z.max() > MEAN_Z_MAX:
                self.fail(kernel, f"mean off the analytic posterior by "
                          f"{z.max():.2f} Monte Carlo standard errors (limit {MEAN_Z_MAX})")


def bytes_under(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def report_chains(results, summaries):
    for kernel, (config, record, wall, *_rest) in results.items():
        s = summaries[kernel]
        lis = record.meta.get("lis")
        lis_text = (f"  lis rank {lis['r']} (max_rank {config.max_rank}) updates {lis['m']}"
                    if lis else "")
        print(f"chain {kernel:>14}  iters {config.iterations:6d}  "
              f"accepts {int(record.accepts.sum()):6d}  minESS {s['minESS']:9.2f}  "
              f"solves {int(record.pde_solves[-1]):7d}  "
              f"ms/iter {1e3 * wall / config.iterations:9.4f}{lis_text}",
              flush=True)


def measure(bench, seconds):
    """Untraced run: every end-to-end metric.

    From round 2 on, set-up and output are timed again between chains, one
    sample at a time and up to SECONDARY_SHARE of the elapsed time, so that
    their values, like the chains', are spread over the run rather than
    taken at one moment of it. Every piece of work is timed by a
    ScaledClock; the metrics are medians of scaled times.
    """
    from layers import end_to_end_metrics
    from reference import Reference, ScaledClock

    clock = ScaledClock(Reference())
    raw = {"setup": [], "output": []}
    scaled = {"setup": [], "output": []}
    per_iter = {k: [] for k in bench.workload.iterations}
    raw_per_iter = {k: [] for k in bench.workload.iterations}

    def build_batch():
        """Builds for at least SETUP_BATCH_S; seconds per build."""
        def builds():
            n, t0 = 0, time.perf_counter()
            while n == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
                bench.build()
                n += 1
            return n
        n, t_raw, t_scaled = clock.time(builds)
        raw["setup"].append(t_raw / n)
        scaled["setup"].append(t_scaled / n)

    def write_round(results):
        _, t_raw, t_scaled = clock.time(lambda: bench.write(results))
        raw["output"].append(t_raw)
        scaled["output"].append(t_scaled)

    for _ in range(SETUP_MIN_BATCHES):
        build_batch()
    # `latest` is the last finished round after round 0, whose chains the
    # timed writes store: on linear round 0 is ten times longer than the
    # rest, and on desk whether an inf-mala or inf-hmc chain rejects every
    # proposal (which makes its ESS cheap) changes from round to round.
    first, latest, rounds, spent = None, None, 0, 0.0
    start = time.perf_counter()

    def between_chains():
        nonlocal spent
        if latest is None or spent >= SECONDARY_SHARE * (time.perf_counter() - start):
            return
        t0 = time.perf_counter()
        # as many set-up batches as writes; a batch is the cheaper of the two
        if len(scaled["output"]) <= len(scaled["setup"]) - SETUP_MIN_BATCHES:
            write_round(latest)
        else:
            build_batch()
        spent += time.perf_counter() - t0

    def timed_chain(kernel, round_index):
        (config, record, wall), _, t_scaled = clock.time(
            lambda: bench.run_chain(kernel, round_index))
        per_iter[kernel].append(1e3 * t_scaled / config.iterations)
        raw_per_iter[kernel].append(1e3 * wall / config.iterations)
        return config, record, wall

    while True:
        results = bench.round(rounds, run=timed_chain, between_chains=between_chains)
        rounds += 1
        first = first or results
        latest = results if rounds > 1 else None
        # the round in progress always finishes, so a slow box makes as
        # many rounds as a fast one unless it is slower by a whole round
        if time.perf_counter() - start >= seconds and latest is not None:
            break
    while len(scaled["output"]) < OUTPUT_MIN_WRITES:
        write_round(latest)
    base = bench.write(first)[1]
    print(f"rounds {rounds}  set-up batches {len(scaled['setup'])}  output writes "
          f"{len(scaled['output'])}", flush=True)
    for kind in ("setup", "output"):
        print(f"{kind} s raw " + " ".join(f"{t:.4g}" for t in raw[kind]))
        print(f"{kind} s scaled " + " ".join(f"{t:.4g}" for t in scaled[kind]))
    for kernel, values in per_iter.items():
        print(f"rounds {kernel:>14}  ms/iter raw "
              + " ".join(f"{v:.4g}" for v in raw_per_iter[kernel]))
        print(f"rounds {kernel:>14}  ms/iter scaled " + " ".join(f"{v:.4g}" for v in values))
    summaries = bench.check_output(first, base)
    report_chains(first, summaries)
    print("raw medians " + json.dumps(
        {**{f"ms_per_iter.{k}": statistics.median(v) for k, v in raw_per_iter.items()},
         "setup_s": statistics.median(raw["setup"]),
         "output_s": statistics.median(raw["output"])}), flush=True)
    # Medians of scaled times: scaling takes out the box's slow changes of
    # speed, and the median the chains or writes that a burst of other load
    # on the host slowed down.
    values = {f"ms_per_iter.{kernel}": statistics.median(v) for kernel, v in per_iter.items()}
    values.update(setup_s=statistics.median(scaled["setup"]),
                  output_s=statistics.median(scaled["output"]),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {name: (values[name], unit) for name, unit in end_to_end_metrics()}
    return metrics, rounds * len(per_iter)


def measure_traced(bench, drgmc):
    """Traced run: every per-layer metric, from one untraced and one traced
    round of the same chains."""
    from layers import per_layer_metrics, restored, wrapper_table
    from tracing import inclusive_times, self_times

    tracer = bench.tracer
    tracer.install(wrapper_table(drgmc, bench.log))
    try:
        setup_layers = [layers for _, layers in bench.setup()]
    finally:
        tracer.uninstall()
    plain = bench.round(0)
    tracer.install(wrapper_table(drgmc, bench.log))
    try:
        traced = bench.round(0, traced=True)
        tracer.clear()
        _, base = bench.write(traced)
        spans = list(tracer.spans)
    finally:
        tracer.uninstall()
        tracer.clear()
    if not restored(drgmc):
        bench.fail("trace", "tracing wrappers were not removed")
    bench.check_same(plain, traced)
    summaries = bench.check_output(traced, base)
    report_chains(traced, summaries)

    own, incl = self_times(spans), inclusive_times(spans)
    values, pooled = {}, {}
    for kernel, (_, _, _, layer, chain_pooled) in traced.items():
        values.update({f"{name}.{kernel}": value for name, value in layer.items()})
        for key, value in chain_pooled.items():
            pooled[key] = pooled.get(key, 0) + value
    prior_build, problem_build = zip(*setup_layers)
    iterations = pooled["iterations"]
    values.update({
        "operators.prior_build_s": statistics.median(prior_build),
        "elliptic.problem_build_s": statistics.median(problem_build),
        "operators.eig_vector_fallbacks_per_iter": pooled["eig_fallbacks"] / iterations,
        "chain.states_per_iter": pooled["states"] / iterations,
        "acceptance.exception_rejects": pooled["exception_rejects"],
        "acceptance.nonfinite_ratios": pooled["nonfinite_ratios"],
        "proposals.diverged": pooled["diverged"],
        "diagnostics.ess_s": incl.get("diagnostics.ess", 0.0),
        "runio.write_s": own.get("runio.write", 0.0),
        "runio.bytes_written": bytes_under(base),
        "trace.overhead_frac": (sum(r[2] for r in traced.values())
                                / sum(r[2] for r in plain.values()) - 1.0),
    })
    metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    return metrics, 2 * len(traced)


def main(argv=None):
    args = parse_args(argv)
    drgmc = import_program()
    import drgmc.harness  # noqa: F401  (load every submodule the bench touches)
    import drgmc.runio  # noqa: F401

    from tracing import Tracer
    from layers import ProposalLog
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    workload = WORKLOADS[args.workload]
    # A chain that rejects every proposal (inf-mala and inf-hmc with
    # DEFAULT_STEPS, on some data seeds) has constant coordinates, and
    # diagnostics.ess warns once per coordinate; its accept count and
    # minESS of 0 are printed per chain instead.
    warnings.filterwarnings("ignore", message="constant or non-finite series")
    print("env " + json.dumps(environment(args)), flush=True)

    bench = Bench(drgmc, workload, args.seed,
                  tracer=Tracer() if args.trace else None,
                  log=ProposalLog() if args.trace else None)
    try:
        if args.trace:
            metrics, attempted = measure_traced(bench, drgmc)
        else:
            metrics, attempted = measure(bench, args.seconds)
    finally:
        shutil.rmtree(OUT_DIR / f"{workload.name}-{os.getpid()}", ignore_errors=True)
        if OUT_DIR.is_dir() and not any(OUT_DIR.iterdir()):
            OUT_DIR.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"metric {name:48s} {value:14.6g} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": len(bench.failed_kernels),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if bench.problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
