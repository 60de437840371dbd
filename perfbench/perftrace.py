"""In-memory span recorder and the layer instrumentation the benchmark installs.

Tracing lives entirely in the benchmark: :func:`instrument` wraps the public
functions of each layer of ``repro`` (and the thread-pool ``submit`` that
carries work between threads) with span-recording shims, and
:meth:`Tracer.uninstall` puts the originals back.  A span has a name, a start,
an end, the span that caused it and a trace id: the genome ``cache_key`` for
evaluation work, the job id inside the service, inherited by child spans.

Spans stay in memory until :meth:`Tracer.dump` writes them out as JSON lines
when the benchmark (or the traced server, see ``serve_launcher.py``) ends.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Span", "Tracer", "instrument", "load_trace"]


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "trace_id", "thread")

    def __init__(self, span_id, name, start, parent, trace_id, thread, end=None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id
        self.thread = thread

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def load_trace(path: str | Path) -> tuple[list[Span], dict[str, float]]:
    """Read the spans and counters written by :meth:`Tracer.dump`."""
    spans = []
    counters: dict[str, float] = {}
    with open(path) as handle:
        for line in handle:
            data = json.loads(line)
            if "counters" in data:
                counters = data["counters"]
                continue
            spans.append(
                Span(
                    data["span_id"],
                    data["name"],
                    data["start"],
                    data["parent"],
                    data["trace_id"],
                    data["thread"],
                    end=data["end"],
                )
            )
    return spans, counters


class Tracer:
    """Thread-safe span and counter recorder with monkeypatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, trace_id: str | None = None, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.span_id if parent is not None else None,
            trace_id,
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def record(self, name: str, start: float, end: float, parent: Span | None) -> None:
        """Add an already-measured interval (e.g. a queue wait) as a span."""
        self.spans.append(
            Span(
                next(self._ids),
                name,
                start,
                parent.span_id if parent is not None else None,
                parent.trace_id if parent is not None else None,
                threading.get_ident(),
                end=end,
            )
        )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------ patching
    def wrap(self, owner, attribute: str, name: str, trace_id=None, counter=None) -> None:
        """Replace ``owner.attribute`` with a span-recording shim.

        ``trace_id(args, kwargs)`` names the span's trace (the parent's is
        inherited otherwise); ``counter(args, kwargs, result)`` may add
        counters from the call.
        """
        original = vars(owner).get(attribute) or getattr(owner, attribute)
        function = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            span = tracer.begin(name, trace_id(args, kwargs) if trace_id is not None else None)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.finish(span)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        replacement = type(original)(shim) if isinstance(original, (staticmethod, classmethod)) else shim
        self._patch(owner, attribute, replacement)

    def propagate_thread_pools(self) -> None:
        """Make work submitted to a thread pool a child of the submitting span."""
        original = concurrent.futures.ThreadPoolExecutor.submit
        tracer = self

        @functools.wraps(original)
        def submit(executor, function, /, *args, **kwargs):
            parent = tracer.current()
            if parent is None:
                return original(executor, function, *args, **kwargs)

            def run_as_child(*inner_args, **inner_kwargs):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return function(*inner_args, **inner_kwargs)
                finally:
                    stack.remove(parent)

            return original(executor, run_as_child, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", submit)

    def wrap_dispatch(self, owner) -> None:
        """Time ``owner.submit``'s queue wait: from submit to the task starting."""
        original = owner.submit
        tracer = self

        @functools.wraps(original)
        def submit(backend, function, item):
            submitted = time.perf_counter()
            parent = tracer.current()

            def timed(task_item):
                tracer.record("workers.dispatch_wait", submitted, time.perf_counter(), parent)
                return function(task_item)

            return original(backend, timed, item)

        self._patch(owner, "submit", submit)

    def _patch(self, owner, attribute: str, replacement) -> None:
        # An inherited attribute is shadowed now and deleted again on
        # uninstall, so the owner ends up exactly as it was.
        self._patches.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------- output
    def dump(self, path: str | Path) -> Path:
        """Write every finished span, then the counters, one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                if span.end is not None:
                    handle.write(json.dumps(span.to_dict()) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        return path


# ---------------------------------------------------------------- layers
def _genome_key(position: int):
    def trace_id(args, kwargs):
        genome = args[position] if len(args) > position else None
        return genome.cache_key() if genome is not None else None

    return trace_id


def _batch_keys(args, kwargs):
    return ",".join(genome.cache_key() for genome in args[1])


def _job_id(args, kwargs):
    return Path(args[0].output_dir).name


def _store_key(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("genome_key")


#: ``(module, owner or None for a module-level function, attribute, span name)``
#: for every layer boundary the benchmark times.  Span names are the per-layer
#: metric names without their ``_s`` suffix.
LAYER_BOUNDARIES = (
    ("repro.nn.training", "Trainer", "fit", "nn.fit"),
    ("repro.nn.layers", "DenseLayer", "forward", "nn.forward"),
    ("repro.nn.layers", "DenseLayer", "backward", "nn.backward"),
    ("repro.nn.optimizers", "Optimizer", "step", "nn.optimizer"),
    ("repro.nn.mlp", "MLP", "predict", "nn.predict"),
    ("repro.nn.batched", "StackedMLPGroup", "train_step", "nn.batched_step"),
    ("repro.workers.simulation", "SimulationWorker", "evaluate", "workers.simulation"),
    ("repro.workers.simulation", "SimulationWorker", "evaluate_batch", "workers.simulation"),
    ("repro.workers.hardware_db", "HardwareDatabaseWorker", "evaluate", "workers.hardware_db"),
    ("repro.workers.hardware_db", "HardwareDatabaseWorker", "evaluate_batch", "workers.hardware_db"),
    ("repro.workers.physical", "PhysicalWorker", "evaluate", "workers.physical"),
    ("repro.hardware.fpga_model", "FPGAPerformanceModel", "evaluate", "hardware.fpga"),
    ("repro.hardware.vectorized", None, "evaluate_workloads", "hardware.fpga"),
    ("repro.hardware.gpu_model", "GPUPerformanceModel", "evaluate", "hardware.gpu"),
    ("repro.hardware.synthesis", "SynthesisModel", "estimate", "hardware.synthesis"),
    ("repro.core.mutation", "CoDesignMutator", "mutate", "core.breed"),
    ("repro.core.crossover", "CoDesignCrossover", "recombine", "core.breed"),
    ("repro.core.selection", "SelectionScheme", "select_pair", "core.breed"),
    ("repro.core.selection", "TournamentSelection", "select", "core.breed"),
    ("repro.core.selection", "NSGA2Selection", "select", "core.breed"),
    ("repro.core.fitness", "FitnessEvaluator", "score", "core.fitness"),
    ("repro.core.fitness", "FitnessEvaluator", "score_population", "core.fitness"),
    ("repro.core.fitness", "ParetoRankingEvaluator", "score_population", "core.fitness"),
    ("repro.core.frontier", "FrontierArchive", "observe", "core.frontier"),
    ("repro.core.cache", "EvaluationCache", "lookup", "core.cache"),
    ("repro.core.cache", "EvaluationCache", "lookup_or_reserve", "core.cache"),
    ("repro.core.cache", "EvaluationCache", "complete", "core.cache"),
    ("repro.core.cache", "EvaluationCache", "store", "core.cache"),
    ("repro.store.cache", "StoreBackedCache", "lookup", "core.cache"),
    ("repro.store.cache", "StoreBackedCache", "lookup_or_reserve", "core.cache"),
    ("repro.store.cache", "StoreBackedCache", "complete", "core.cache"),
    ("repro.store.cache", "StoreBackedCache", "store", "core.cache"),
    ("repro.core.search", "CoDesignSearch", "warm_start_genomes", "store.warm_start"),
    ("repro.experiment.artifacts", "RunArtifact", "save", "experiment.checkpoint"),
    ("repro.datasets.registry", "DatasetEntry", "load", "datasets.load"),
    ("repro.datasets.prepared", None, "prepare_dataset", "datasets.prepare"),
    ("repro.nn.preprocessing", "StandardScaler", "fit", "datasets.prepare"),
    ("repro.nn.preprocessing", "StandardScaler", "transform", "datasets.prepare"),
)

#: Public :class:`~repro.service.jobs.JobQueue` methods timed as
#: ``service.jobqueue``.  ``wait_for_events`` is left out: it blocks on purpose
#: (the long-poll), and the reads it makes are timed through ``get`` and
#: ``frontier_events``.
JOBQUEUE_METHODS = (
    "submit",
    "get",
    "list",
    "counts",
    "claim_next",
    "mark_done",
    "mark_failed",
    "requeue",
    "cancel_requested",
    "record_progress",
    "append_frontier_event",
    "frontier_events",
    "drop_frontier_events",
)


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of ``repro`` with spans recorded by ``tracer``."""
    for module_name, owner_name, attribute, name in LAYER_BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        tracer.wrap(owner, attribute, name)

    from repro.core.search import CoDesignSearch
    from repro.experiment.runner import ExperimentRunner
    from repro.nn.batched import BatchedTrainer
    from repro.service.jobs import JobQueue
    from repro.store.cache import StoreBackedCache
    from repro.store.store import EvaluationStore
    from repro.workers.backends import SerialBackend, ThreadPoolBackend
    from repro.workers.master import Master

    def count_runs(args, kwargs, result):
        tracer.count("nn.batched_runs", len(args[4] if len(args) > 4 else kwargs["seeds"]))

    def count_batch(args, kwargs, result):
        tracer.count("workers.batch_calls")
        tracer.count("workers.batch_genomes", len(args[1]))

    def count_rows(args, kwargs, result):
        tracer.count("store.rows_written", result)

    tracer.wrap(BatchedTrainer, "fit", "nn.batched_fit", counter=count_runs)
    tracer.wrap(Master, "evaluate", "workers.master", trace_id=_genome_key(1))
    tracer.wrap(Master, "__call__", "workers.master", trace_id=_genome_key(1))
    tracer.wrap(Master, "evaluate_batch", "workers.master", trace_id=_batch_keys, counter=count_batch)
    tracer.wrap(EvaluationStore, "get", "store.lookup", trace_id=_store_key)
    tracer.wrap(StoreBackedCache, "flush", "store.flush", counter=count_rows)
    tracer.wrap(CoDesignSearch, "run", "search")
    tracer.wrap(ExperimentRunner, "run", "experiment.run", trace_id=_job_id)
    for method in JOBQUEUE_METHODS:
        tracer.wrap(JobQueue, method, "service.jobqueue")
    tracer.wrap_dispatch(SerialBackend)
    tracer.wrap_dispatch(ThreadPoolBackend)
    tracer.propagate_thread_pools()
    return tracer
