"""The benchmark's three workloads.

Each workload generates its inputs from the seed (dataset name and scale, the
configuration, job bodies), runs them through ``repro``'s public API, checks
the outputs and returns an :class:`Outcome` for ``run.py`` to turn into
metrics.

Why the search seed is fixed: a candidate's training cost depends on its
topology, and two search seeds visit topologies whose cost differs threefold,
so with a per-seed search the evaluations per second would measure the seed,
not the code.  The benchmark seed therefore generates the dataset contents
(and, on ``warm-serve``, the job seeds), while each training workload runs the
same search seed and repeats one fixed unit of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfstats import hypervolume

__all__ = ["Outcome", "WORKLOADS"]

_TIMING_KEYS = ("train_seconds", "evaluation_seconds")

#: How long one frontier long-poll may block before the client asks again.
#: The server can miss a long-poll's wake-up: ``JobQueue.wait_for_events``
#: reads the job and then waits on the condition without holding its lock in
#: between, so a job finishing in that gap is seen only at the next event or
#: at the timeout.  With the service's 30 s maximum one missed wake-up, when
#: no other job wakes the poller, stalls a client for 30 s; re-polling every
#: second bounds that, and every miss is still counted (below).
POLL_SECONDS = 1.0

#: A client that sees a finished job later than this was not woken by the
#: job's completion but by a later event or the poll timeout; such jobs are
#: reported as ``service.late_notifications``.
LATE_NOTIFICATION_SECONDS = 0.25


@dataclass
class Outcome:
    """What one measurement phase of a workload produced."""

    setup_seconds: list[float] = field(default_factory=list)
    unit_seconds: list[float] = field(default_factory=list)
    unit_rates: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    completed: int = 0
    observed_at: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, list[bool]] = field(default_factory=dict)
    hypervolumes: list[float] = field(default_factory=list)
    best_accuracies: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    statistics: list[dict] = field(default_factory=list)
    service: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        """Record one correctness check; a failed check counts as a failed operation."""
        self.checks.setdefault(name, []).append(bool(ok))
        self.attempted += 1
        self.failed += 0 if ok else 1

    def sample(self, name: str, value: float) -> None:
        self.service.setdefault(name, []).append(value)


def _frontier_hypervolume(pairs) -> float:
    """Hypervolume of (accuracy, log10 FPGA outputs/s) points against the origin."""
    return hypervolume(
        (accuracy, math.log10(outputs)) for accuracy, outputs in pairs if outputs > 1.0
    )


def _remove_store(path: Path) -> None:
    """Delete an SQLite store file with its journal sidecars."""
    for candidate in (path, *path.parent.glob(path.name + "-*")):
        candidate.unlink(missing_ok=True)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- searches
class SearchWorkload:
    """Repeats one seeded ``CoDesignSearch.run`` as the unit of work.

    Every repeat is the same search on the same inputs, so repeats must
    produce the same result digest, and their evaluations per second can be
    compared directly; the median over repeats is reported.
    """

    def __init__(self, name, dataset, scale, overrides, use_store, traced_units, batch_size=1):
        self.name = name
        self.dataset = dataset
        self.scale = scale
        self.overrides = overrides
        self.use_store = use_store
        self.traced_units = traced_units
        self.batch_size = batch_size

    def setup(self, seed: int, run_dir: Path, index: int):
        """Build the dataset and configuration (and a fresh store, where used)."""
        from repro.core.config import ECADConfig, OptimizationTargetConfig
        from repro.core.search import CoDesignSearch
        from repro.datasets.registry import load_dataset
        from repro.store import EvaluationStore

        dataset = load_dataset(self.dataset, seed=seed, scale=self.scale)
        config = ECADConfig.template_for_dataset(
            dataset, optimization=OptimizationTargetConfig.accuracy_and_throughput()
        ).with_overrides(self.overrides)
        if self.use_store:
            # A fresh store and the search that would read it: opening the
            # SQLite file and hashing the problem digest are set-up costs.
            path = run_dir / f"setup-{index}.sqlite"
            store = EvaluationStore(path)
            CoDesignSearch(dataset, config, store=store).close()
            store.close()
            _remove_store(path)
        return dataset, config

    def _unit(self, dataset, config, run_dir: Path, index: int, outcome: Outcome) -> None:
        from repro.core.search import CoDesignSearch
        from repro.store import EvaluationStore
        from repro.store.serialize import evaluation_to_payload

        store = EvaluationStore(run_dir / f"unit-{index}.sqlite") if self.use_store else None
        search = CoDesignSearch(dataset, config, store=store)
        start = time.perf_counter()
        result = search.run()
        seconds = time.perf_counter() - start
        search.close()

        stats = result.statistics
        evaluations = result.history.evaluations()
        failed = sum(1 for evaluation in evaluations if evaluation.failed)
        outcome.attempted += stats.models_generated
        outcome.failed += failed
        outcome.unit_seconds.append(seconds)
        outcome.unit_rates.append(stats.models_evaluated / seconds)
        outcome.statistics.append(stats.to_dict())

        # Completion order varies on the threads backend; the evaluated set
        # does not, so the digest is taken over payloads sorted by genome.
        payloads = []
        for evaluation in evaluations:
            payload = evaluation_to_payload(evaluation)
            for key in _TIMING_KEYS:
                payload.pop(key)
            payloads.append(json.dumps(payload, sort_keys=True))
        digest = hashlib.sha256("\n".join(sorted(payloads)).encode()).hexdigest()
        outcome.check("repeats agree on result_digest", not outcome.digests or digest == outcome.digests[0])
        outcome.digests.append(digest)
        outcome.check(
            "models_evaluated + cache_hits == models_generated",
            stats.models_evaluated + stats.cache_hits == stats.models_generated,
        )
        good = [evaluation for evaluation in evaluations if not evaluation.failed]
        outcome.hypervolumes.append(
            _frontier_hypervolume((e.accuracy, e.fpga_outputs_per_second) for e in good)
        )
        outcome.best_accuracies.append(max(e.accuracy for e in good))
        if store is not None:
            store_stats = search.cache.store_statistics
            rows = store.count(search.problem_digest)
            outcome.check("store rows == real evaluations", rows == stats.models_evaluated - failed)
            outcome.counters["store.write_retries"] = (
                outcome.counters.get("store.write_retries", 0) + store_stats.write_retries
            )
            store.close()
            _remove_store(run_dir / f"unit-{index}.sqlite")

    def _phase(self, seed, run_dir, setups, seconds=None, units=None) -> Outcome:
        outcome = Outcome()
        probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), self.name, str(seed), str(run_dir)]
        for index in range(setups):
            start = time.perf_counter()
            subprocess.run([*probe, str(index)], check=True)
            outcome.setup_seconds.append(time.perf_counter() - start)
        dataset, config = self.setup(seed, run_dir, setups)
        start = time.perf_counter()
        index = 0
        while index < units if units is not None else (index == 0 or time.perf_counter() - start < seconds):
            self._unit(dataset, config, run_dir, index, outcome)
            index += 1
        outcome.elapsed = time.perf_counter() - start
        outcome.completed = index
        outcome.peak_rss_mb = _self_peak_rss_mb()
        return outcome

    def measure(self, seed, run_dir, seconds, setups, tracer=None):
        """Time ``setups`` set-ups in fresh interpreters, then repeat the unit for ``seconds``.

        With a ``tracer``, a second phase follows with the layers
        instrumented: one in-process set-up and ``traced_units`` repeats.  Returns
        ``(untraced, traced)`` outcomes; ``traced`` is None without a tracer.
        """
        from perftrace import instrument

        untraced = self._phase(seed, run_dir, setups, seconds=seconds)
        if tracer is None:
            return untraced, None
        instrument(tracer)
        try:
            traced = self._phase(seed, run_dir, 0, units=self.traced_units)
        finally:
            tracer.uninstall()
        return untraced, traced


# ------------------------------------------------------------ warm service
class WarmServe:
    """Closed-loop clients resubmitting store-warm jobs to ``ecad serve``."""

    name = "warm-serve"
    clients = 2
    job_specs = 4
    traced_units = 300
    batch_size = 1

    def __init__(self) -> None:
        self.launcher = Path(__file__).with_name("serve_launcher.py")

    def bodies(self, seed: int) -> list[dict]:
        """The fixed job set: small phishing searches, seeded from ``seed``."""
        return [
            {
                "run": {
                    "dataset": "phishing_like",
                    "objective": "codesign",
                    "seed": self.job_specs * seed + index,
                    "scale": 0.05,
                    "data_seed": seed,
                    "population_size": 4,
                    "max_evaluations": 8,
                    "training_epochs": 1,
                    "evaluation_protocol": "1-fold",
                    "nna.layer_sizes": [16, 32, 64],
                    "nna.max_layers": 2,
                }
            }
            for index in range(self.job_specs)
        ]

    # -------------------------------------------------------------- server
    def start_server(self, data_dir: Path, trace_out: Path | None = None):
        """Start the service in a subprocess; returns ``(process, client)``."""
        from repro.service import ServiceClient

        data_dir.mkdir(parents=True, exist_ok=True)
        log_path = data_dir / "serve.log"
        command = [sys.executable, "-u", str(self.launcher), "--rss-out", str(data_dir / "rss.json")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "serve", "--port", "0", "--data-dir", str(data_dir),
            "--store", str(data_dir.parent / "store.sqlite"),
            "--backend", "threads", "--eval-workers", str(self.clients),
        ]
        with open(log_path, "w") as log:
            process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in log_path.read_text().splitlines():
                if " on http://" in line:
                    address = line.split(" on http://", 1)[1].split()[0]
                    return process, ServiceClient(address, timeout=60)
            if process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop_server(process)
        raise RuntimeError(f"ecad serve did not start:\n{log_path.read_text()}")

    @staticmethod
    def stop_server(process) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    @staticmethod
    def _wait_terminal(client, job_id: str, outcome: Outcome | None) -> dict:
        since = 0
        while True:
            start = time.perf_counter()
            payload = client.frontier(job_id, since=since, timeout=POLL_SECONDS)
            if outcome is not None:
                outcome.attempted += 1
                outcome.sample("service.poll_ms", (time.perf_counter() - start) * 1000)
            since = payload["next_since"]
            if payload["terminal"]:
                return payload

    def _prewarm(self, client, bodies) -> list[str]:
        """Run every job body once, cold, and return their result digests."""
        digests = []
        for body in bodies:
            job_id = client.submit(body)["job_id"]
            self._wait_terminal(client, job_id, None)
            _finished, record = client.result(job_id)
            if record["state"] != "done":
                raise RuntimeError(f"cold job {job_id} ended {record['state']}: {record['error']}")
            digests.append(record["result"]["result_digest"])
        return digests

    # --------------------------------------------------------------- load
    def _client_loop(self, client, bodies, digests, index, stop, outcome, lock, seen, ends) -> None:
        from repro.core.errors import ServiceError

        turn = index
        last = 0.0
        while not stop():
            body_index = turn % len(bodies)
            turn += self.clients
            try:
                start = time.perf_counter()
                job = client.submit(bodies[body_index])
                submitted = time.perf_counter()
                local = Outcome()
                self._wait_terminal(client, job["job_id"], local)
                observed_wall = time.time()
                last = time.perf_counter()
                latency = last - start
                _finished, record = client.result(job["job_id"])
            except (ServiceError, OSError) as exc:
                with lock:
                    outcome.attempted += 1
                    outcome.failed += 1
                print(f"warm-serve client {index}: request failed: {exc}", file=sys.stderr)
                continue
            result = record.get("result") or {}
            artifacts = (result.get("report") or {}).get("artifacts") or [{}]
            stats = artifacts[0].get("statistics") or {}
            with lock:
                # submit + polls + result fetch, and the job itself.
                outcome.attempted += 3 + local.attempted
                outcome.unit_seconds.append(latency)
                outcome.observed_at.append(last)
                for name, values in local.service.items():
                    outcome.service.setdefault(name, []).extend(values)
                outcome.sample("service.submit_ms", (submitted - start) * 1000)
                ok = record["state"] == "done"
                outcome.check("job done", ok)
                if not ok:
                    continue
                notify_delay = observed_wall - record["finished_at"]
                outcome.sample("service.notify_delay_ms", notify_delay * 1000)
                if notify_delay > LATE_NOTIFICATION_SECONDS:
                    outcome.counters["service.late_notifications"] = (
                        outcome.counters.get("service.late_notifications", 0) + 1
                    )
                outcome.sample("service.queue_wait_s", record["started_at"] - record["submitted_at"])
                outcome.sample("service.job_run_s", record["finished_at"] - record["started_at"])
                outcome.check("warm result_digest == cold", result.get("result_digest") == digests[body_index])
                generated = stats.get("models_generated", -1)
                outcome.check("store_hits == models_generated", stats.get("store_hits") == generated)
                outcome.check(
                    "models_evaluated + cache_hits == models_generated",
                    stats.get("models_evaluated", 0) + stats.get("cache_hits", 0) == generated,
                )
                outcome.statistics.append(stats)
                if stats.get("wall_clock_seconds"):
                    outcome.unit_rates.append(generated / stats["wall_clock_seconds"])
                if body_index not in seen:
                    # Quality is a property of the job spec: count each spec once.
                    seen.add(body_index)
                    rows = artifacts[0].get("frontier") or []
                    outcome.hypervolumes.append(
                        _frontier_hypervolume((r["accuracy"], r["fpga_outputs_per_second"]) for r in rows)
                    )
                    outcome.best_accuracies.append(artifacts[0].get("best_accuracy", 0.0))
        with lock:
            ends.append(last)

    def _load(self, client, bodies, digests, seconds=None, units=None) -> Outcome:
        outcome = Outcome()
        lock = threading.Lock()
        claimed = [0]
        seen: set[int] = set()
        ends: list[float] = []
        start = time.perf_counter()

        def stop() -> bool:
            if units is None:
                return time.perf_counter() - start >= seconds
            with lock:
                claimed[0] += 1
                return claimed[0] > units

        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(client, bodies, digests, index, stop, outcome, lock, seen, ends),
                name=f"warm-serve-client-{index}",
            )
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Throughput counts the window in which every client was active: the
        # final client's last job runs alone, where a missed wake-up is not
        # rescued by the other client's events (see POLL_SECONDS).
        window_end = min(ends)
        if window_end <= start:  # a client completed no job at all
            window_end = time.perf_counter()
        outcome.elapsed = window_end - start
        outcome.completed = sum(1 for t in outcome.observed_at if t <= window_end)
        return outcome

    def measure(self, seed, run_dir, seconds, setups, tracer=None):
        """Set up ``setups`` warm servers, then load the last one for ``seconds``.

        With a ``tracer``, the warm server is then restarted under the
        benchmark's traced launcher and loaded with ``traced_units`` jobs;
        the server's spans are read back into ``tracer``.  Returns
        ``(untraced, traced)`` outcomes; ``traced`` is None without a tracer.
        """
        from perftrace import load_trace

        bodies = self.bodies(seed)
        setup_seconds = []
        traced = None
        process = None
        try:
            for index in range(setups):
                if process is not None:
                    self.stop_server(process)
                serve_dir = run_dir / f"setup-{index}" / "serve"
                start = time.perf_counter()
                process, client = self.start_server(serve_dir)
                digests = self._prewarm(client, bodies)
                setup_seconds.append(time.perf_counter() - start)
            untraced = self._load(client, bodies, digests, seconds=seconds)
            self.stop_server(process)
            untraced.peak_rss_mb = self._server_rss(serve_dir)
            if tracer is not None:
                trace_path = serve_dir / "spans.jsonl"
                process, client = self.start_server(serve_dir, trace_out=trace_path)
                # One untimed round lets the restarted server load what the
                # untraced one loaded while pre-warming; spans before the
                # load starts are dropped (perf_counter is one clock for
                # every process on the host).
                self._prewarm(client, bodies)
                load_start = time.perf_counter()
                traced = self._load(client, bodies, digests, units=self.traced_units)
                self.stop_server(process)
                traced.peak_rss_mb = self._server_rss(serve_dir)
                spans, counters = load_trace(trace_path)
                tracer.spans.extend(span for span in spans if span.start >= load_start)
                for name, value in counters.items():
                    tracer.count(name, value)
        finally:
            if process is not None:
                self.stop_server(process)
        untraced.setup_seconds = setup_seconds
        return untraced, traced

    @staticmethod
    def _server_rss(serve_dir: Path) -> float:
        return json.loads((serve_dir / "rss.json").read_text())["peak_rss_mb"]


WORKLOADS = {
    "mnist-serial": SearchWorkload(
        "mnist-serial",
        dataset="mnist_like",
        scale=0.02,
        overrides={"population_size": 6, "max_evaluations": 12, "training_epochs": 2, "seed": 0},
        use_store=False,
        traced_units=3,
    ),
    # The whole budget is the initial population: two batches of eight in
    # flight at once.  Bred offspring would depend on which batch finished
    # first and on the seed's accuracies, and their sizes swing the cost of a
    # search twofold between seeds.  Search seed 1 draws networks that take
    # about 3 s per search on two cores and peak near 300 MB; seed 0 draws
    # several 1024-wide ones (8 s, 740 MB), leaving two or three repeats a run.
    "creditg-batched": SearchWorkload(
        "creditg-batched",
        dataset="credit_g_like",
        scale=0.2,
        overrides={
            "population_size": 16,
            "max_evaluations": 16,
            "training_epochs": 2,
            "seed": 1,
            "backend": "threads",
            "eval_parallelism": 2,
            "eval_batch_size": 8,
        },
        use_store=True,
        traced_units=5,
        batch_size=8,
    ),
    "warm-serve": WarmServe(),
}
