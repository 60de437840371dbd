"""Benchmark of the ECAD reproduction: end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mnist-serial --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` spends half the time on the same untraced measurement, then
instruments every layer and runs a fixed amount of traced work; it reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Everything before it is for people,
including each run's job throughput and latency percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS

#: Pinned to one thread before NumPy loads: two BLAS threads per evaluation
#: thread would oversubscribe a two-core host and make the numbers depend on
#: the scheduler.  The setting is printed with the host.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: ``(name, unit, better)`` of every end-to-end metric, in print order.
END_TO_END = (
    ("evals_per_s", "1/s", "higher"),
    ("hypervolume", "area", "higher"),
    ("best_accuracy", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "fraction", "higher"),
    ("setup_s", "s", "lower"),
)

#: Span names whose summed self time and call count are reported as
#: ``<name>_s`` and ``<name>_calls``.
SPAN_LAYERS = (
    "nn.fit", "nn.forward", "nn.backward", "nn.optimizer", "nn.predict",
    "nn.batched_fit", "nn.batched_step",
    "workers.simulation", "workers.hardware_db", "workers.physical", "workers.dispatch_wait",
    "hardware.fpga", "hardware.gpu", "hardware.synthesis",
    "core.breed", "core.fitness", "core.frontier", "core.cache", "core.engine",
    "store.lookup", "store.warm_start", "store.flush",
    "experiment.run", "experiment.checkpoint",
    "service.jobqueue",
    "datasets.load", "datasets.prepare",
)

#: Spans that start a unit of work: a search, or a job inside the service.
ROOT_SPANS = ("search", "experiment.run")

#: Per-layer metric, or its layer -> the end-to-end metric and workload it
#: should move.  Span times are summed self seconds over the traced work: one
#: in-process set-up plus a fixed number of searches (training workloads) or
#: jobs (warm-serve); ``_calls`` count the calls over the same work.
PER_LAYER_TARGETS = {
    "nn.fit": "evals_per_s on mnist-serial; near zero elsewhere",
    "nn.forward": "evals_per_s on mnist-serial",
    "nn.backward": "evals_per_s on mnist-serial",
    "nn.optimizer": "evals_per_s on mnist-serial",
    "nn.predict": "evals_per_s on mnist-serial",
    "nn.batched_fit": "evals_per_s and peak_rss_mb on creditg-batched; near zero elsewhere",
    "nn.batched_step": "evals_per_s and peak_rss_mb on creditg-batched",
    "nn.runs_per_batched_fit": "evals_per_s and peak_rss_mb on creditg-batched",
    "workers.simulation": "evals_per_s on creditg-batched",
    "workers.hardware_db": "evals_per_s on creditg-batched",
    "workers.physical": "evals_per_s on creditg-batched",
    "workers.batch_fill": "evals_per_s on creditg-batched",
    "workers.dispatch_wait": "evals_per_s on creditg-batched",
    "hardware.fpga": "no end-to-end metric (under 1% of wall clock); tracked for regressions",
    "hardware.gpu": "no end-to-end metric (under 1% of wall clock); tracked for regressions",
    "hardware.synthesis": "no end-to-end metric (under 1% of wall clock); tracked for regressions",
    "core.breed": "evals_per_s and service.job_p50_s on warm-serve; flat on the training workloads",
    "core.fitness": "evals_per_s and service.job_p50_s on warm-serve; flat on the training workloads",
    "core.frontier": "evals_per_s and service.job_p50_s on warm-serve; flat on the training workloads",
    "core.cache": "evals_per_s and service.job_p50_s on warm-serve; flat on the training workloads",
    "core.cache_hit_ratio": "evals_per_s and service.job_p50_s on warm-serve",
    "core.engine": "evals_per_s and service.job_p50_s on warm-serve (engine loop outside timed layers)",
    "store.lookup": "evals_per_s and service.job_p50_s on warm-serve",
    "store.hit_ratio": "evals_per_s and service.job_p50_s on warm-serve",
    "store.warm_start": "service.job_p50_s on warm-serve",
    "store.flush": "evals_per_s on creditg-batched",
    "store.rows_written": "evals_per_s on creditg-batched",
    "store.write_retries": "evals_per_s on creditg-batched",
    "experiment.run": "service.job_p50_s on warm-serve",
    "experiment.checkpoint": "service.job_p50_s on warm-serve",
    "service.submit_ms": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    "service.poll_ms": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    "service.notify_delay_ms": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    "service.queue_wait_s": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    "service.job_run_s": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    "service.jobqueue": "service.job_p50_s, service.jobs_per_s and service.job_tail_s on warm-serve",
    # Job throughput and latency are what a service user sees, but over ten
    # runs on a 2-core host their spread on warm-serve reached 0.26-0.33,
    # above the largest bound a gated metric may have; they are measured
    # (from the untraced half) and printed on every run, not gated.
    "service.jobs_per_s": "warm-serve's job throughput with two closed-loop clients",
    "service.job_p50_s": "warm-serve's median job latency, submit to terminal state seen",
    "service.job_tail_s": (
        "warm-serve's job latency tail: the highest percentile with ten jobs beyond it "
        "(printed with its sample count)"
    ),
    "service.late_notifications": "service.job_tail_s on warm-serve (jobs seen over 0.25 s after they finished)",
    "datasets.load": "setup_s",
    "datasets.prepare": "setup_s (on mnist-serial also the per-evaluation standardisation)",
    "trace": "tracing overhead: traced versus untraced evals_per_s and jobs_per_s",
}


def per_layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """``(name, unit, better)`` of every per-layer metric, in print order."""
    metrics = []
    for layer in SPAN_LAYERS:
        metrics.append((f"{layer}_s", "s", "lower"))
        metrics.append((f"{layer}_calls", "count", "lower"))
    metrics += [
        ("nn.runs_per_batched_fit", "count", "higher"),
        ("workers.batch_fill", "fraction", "higher"),
        ("core.cache_hit_ratio", "fraction", "higher"),
        ("store.hit_ratio", "fraction", "higher"),
        ("store.rows_written", "count", "higher"),
        ("store.write_retries", "count", "lower"),
        ("service.submit_ms", "ms", "lower"),
        ("service.poll_ms", "ms", "lower"),
        ("service.notify_delay_ms", "ms", "lower"),
        ("service.queue_wait_s", "s", "lower"),
        ("service.job_run_s", "s", "lower"),
        ("service.jobs_per_s", "1/s", "higher"),
        ("service.job_p50_s", "s", "lower"),
        ("service.job_tail_s", "s", "lower"),
        ("service.late_notifications", "count", "lower"),
        ("trace.untraced_evals_per_s", "1/s", "higher"),
        ("trace.traced_evals_per_s", "1/s", "higher"),
        ("trace.untraced_jobs_per_s", "1/s", "higher"),
        ("trace.traced_jobs_per_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.self_over_wall", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return tuple(metrics)


def _target_keys(name: str) -> tuple[str, ...]:
    """Keys of :data:`PER_LAYER_TARGETS` that may describe metric ``name``."""
    return (name, name.rsplit("_", 1)[0], name.split(".")[0])


def host_info() -> dict:
    """Cores, BLAS vendor and thread setting, Python and NumPy versions."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": ",".join(f"{name}={os.environ[name]}" for name in BLAS_THREAD_VARIABLES),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------- metrics
def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def end_to_end(outcome) -> dict[str, float]:
    return {
        "evals_per_s": _median(outcome.unit_rates),
        "hypervolume": _median(outcome.hypervolumes),
        "best_accuracy": _median(outcome.best_accuracies),
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_ratio": 1.0 - outcome.failed / max(outcome.attempted, 1),
        "setup_s": _median(outcome.setup_seconds),
    }


def jobs_per_s(outcome) -> float:
    """Units of work (searches or service jobs) completed per second."""
    return outcome.completed / outcome.elapsed


def per_layer(workload, untraced, traced, tracer) -> dict[str, float]:
    from perfstats import self_over_wall, self_times, tail

    times = self_times([span for span in tracer.spans if span.end is not None])
    # The search span's own self time is the engine loop between layers.
    times["core.engine"] = times.pop("search", (0.0, 0))
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        seconds, calls = times.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = seconds
        metrics[f"{layer}_calls"] = calls
    fits = metrics["nn.batched_fit_calls"]
    metrics["nn.runs_per_batched_fit"] = counters.get("nn.batched_runs", 0) / fits if fits else 0.0
    batches = counters.get("workers.batch_calls", 0)
    metrics["workers.batch_fill"] = (
        counters.get("workers.batch_genomes", 0) / (batches * workload.batch_size) if batches else 0.0
    )
    stats = traced.statistics
    generated = sum(s.get("models_generated", 0) for s in stats)
    lookups = sum(s.get("store_hits", 0) + s.get("store_misses", 0) for s in stats)
    metrics["core.cache_hit_ratio"] = sum(s.get("cache_hits", 0) for s in stats) / max(generated, 1)
    metrics["store.hit_ratio"] = sum(s.get("store_hits", 0) for s in stats) / lookups if lookups else 0.0
    metrics["store.rows_written"] = counters.get("store.rows_written", 0)
    metrics["store.write_retries"] = traced.counters.get("store.write_retries", 0)
    metrics["service.late_notifications"] = sum(
        outcome.counters.get("service.late_notifications", 0) for outcome in (untraced, traced)
    )
    for name in ("service.submit_ms", "service.poll_ms", "service.notify_delay_ms",
                 "service.queue_wait_s", "service.job_run_s"):
        metrics[name] = _median(traced.service.get(name, ()))
    metrics["service.jobs_per_s"] = jobs_per_s(untraced)
    metrics["service.job_p50_s"] = _median(untraced.unit_seconds)
    metrics["service.job_tail_s"] = tail(untraced.unit_seconds)[0]
    rates = {
        "evals_per_s": (_median(untraced.unit_rates), _median(traced.unit_rates)),
        "jobs_per_s": (jobs_per_s(untraced), jobs_per_s(traced)),
    }
    for name, (plain, instrumented) in rates.items():
        metrics[f"trace.untraced_{name}"] = plain
        metrics[f"trace.traced_{name}"] = instrumented
    plain, instrumented = rates["jobs_per_s" if workload.name == "warm-serve" else "evals_per_s"]
    metrics["trace.overhead_pct"] = 100.0 * (plain - instrumented) / plain
    metrics["trace.self_over_wall"] = self_over_wall(tracer.spans, ROOT_SPANS)
    # Self times partition each root's wall clock; across threads they add up
    # to more.  Less than the wall clock means time went missing.
    traced.check("self times reconcile with wall clock", metrics["trace.self_over_wall"] >= 1 - 1e-6)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


# -------------------------------------------------------------------- main
def _print_checks(outcomes) -> None:
    merged: dict[str, list[bool]] = {}
    for outcome in outcomes:
        for name, results in outcome.checks.items():
            merged.setdefault(name, []).extend(results)
    for name, results in merged.items():
        verdict = "PASS" if all(results) else f"FAIL ({results.count(False)} of {len(results)})"
        print(f"check  {name:<52} {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from perfstats import tail
    from perftrace import Tracer

    workload = WORKLOADS[args.workload]
    host = host_info()
    print("host   " + "  ".join(f"{key}={value}" for key, value in host.items()))
    print(f"run    workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    state_dir = ROOT / ".perfbench"
    run_dir = state_dir / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = Tracer()
            untraced, traced = workload.measure(
                args.seed, run_dir, args.seconds / 2, setups=1, tracer=tracer
            )
            trace_path = tracer.dump(state_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
            print(f"trace  {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
            metrics = per_layer(workload, untraced, traced, tracer)
            units = {name: unit for name, unit, _better in per_layer_metrics()}
            outcomes = [untraced, traced]
        else:
            untraced, _ = workload.measure(args.seed, run_dir, args.seconds, setups=SETUPS)
            metrics = end_to_end(untraced)
            units = {name: unit for name, unit, _better in END_TO_END}
            outcomes = [untraced]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    for label, outcome in zip(("untraced", "traced"), outcomes):
        shown = ", ".join(f"{seconds:.3g}" for seconds in outcome.unit_seconds[:12])
        more = " ..." if len(outcome.unit_seconds) > 12 else ""
        print(f"units  {label}: {len(outcome.unit_seconds)} in {outcome.elapsed:.3g} s; seconds: {shown}{more}")
        value, pct, count = tail(outcome.unit_seconds)
        print(f"jobs   {label}: jobs_per_s={jobs_per_s(outcome):.6g}  p50={_median(outcome.unit_seconds):.6g} s  "
              f"p{pct:g}={value:.6g} s of {count} samples")
    _print_checks(outcomes)
    print(f"check  failed_ratio = {failed} / {attempted} = {failed / max(attempted, 1):.4g}")
    for name, value in metrics.items():
        target = next((PER_LAYER_TARGETS[key] for key in _target_keys(name) if key in PER_LAYER_TARGETS), "")
        print(f"metric {name:<34} {value:>14.6g} {units[name]:<8} {'-> ' + target if args.trace else ''}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
