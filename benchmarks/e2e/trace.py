"""Outside-in span tracer for the end-to-end benchmark.

The tracer wraps *public* callables of ``repro`` from the benchmark's own
code; nothing under ``src/`` is edited.  Three wrapping rules follow from
how the package binds its names:

* class methods are patched on the class (every instance sees them);
* functions imported by name are patched where the *consumer* binds them
  (``repro.matching.sparse.batched_search``, not
  ``repro.matching.search.batched_search``), because that is the global
  the calling module looks up at run time;
* the service's worker entry point is patched in ``repro.service.server``,
  which reads it when it spawns a worker.  The forked worker inherits every
  wrapper, records its own spans and writes them to a file when it exits
  cleanly; :meth:`Tracer.merge_worker_files` collects them.

Spans live in memory.  A layer's *self time* (its span minus the time its
child spans cover) is accumulated online, on span exit, so hot leaf layers
cost O(1) memory; the raw span log keeps at most ``SPAN_CAP`` spans per
name for inspection.  Coroutine spans (a service solve awaiting its batch)
overlap other work on the event loop, so they record their duration as a
*wait* and stay out of the self-time stack.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "install_layers", "layer_metrics", "percentile"]

#: Raw spans kept per name (self times and counters are exact regardless).
SPAN_CAP = 2000


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.enabled = False
        self._patches: list[tuple[object, str, object]] = []
        self._worker_files: tuple[Path, str] | None = None
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span, counter and duration."""
        self.pid = os.getpid()
        #: Self seconds by root span name, then span name.
        self.self_s: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []
        self.workers: list[dict] = []
        self._logged: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _log(self, span_id: int, parent: int, name: str, t0: float, t1: float):
        if self._logged[name] < SPAN_CAP:
            self._logged[name] += 1
            self.spans.append([span_id, parent, name, t0, t1, self.pid])

    def _enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        # [id, parent, name, start, time covered by children]
        frame = [span_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        root = self._stack[0][2]
        self._stack.pop()
        duration = end - frame[3]
        name = frame[2]
        self.self_s[root][name] += duration - frame[4]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        self._log(frame[0], frame[1], name, frame[3], end)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def record_wait(self, name: str, start: float, end: float) -> None:
        """Record a coroutine span: a wait, outside the self-time stack."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self.calls[name] += 1
        self.durations[name].append(end - start)
        self._log(span_id, parent, name, start, end)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, count=None, keep: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        Args:
            owner: Class or module that binds the callable.
            attr: Attribute name.
            name: Span name, or ``name(args) -> str`` for spans named by
                an argument (the pipeline stage).
            count: Optional ``count(tracer, args, result)`` hook updating
                :attr:`counters` after each traced call.
            keep: Also keep every call's duration (for percentiles).
        """
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.record_wait(name, start, time.perf_counter())

        else:

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                frame = tracer._enter(name if isinstance(name, str) else name(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    if keep:
                        tracer.durations[frame[2]].append(
                            time.perf_counter() - frame[3]
                        )
                if count is not None:
                    count(tracer, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def mute(self, owner, attr: str) -> None:
        """Run ``owner.attr`` with tracing off (work that is not measured,
        such as a reference replay inside a measured call)."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            was = tracer.enabled
            tracer.enabled = False
            try:
                return original(*args, **kwargs)
            finally:
                tracer.enabled = was

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every wrapped attribute (last patched first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------

    def hook_service_workers(self, out_dir: Path, tag: str) -> None:
        """Trace inside the decode service's forked workers.

        Each worker starts from an empty record, runs the real worker
        main, and -- only on a clean exit -- writes its record to
        ``out_dir/<tag>.worker-<pid>.json`` with its wall and CPU time.
        """
        from repro.service import server

        self._worker_files = (out_dir, tag)
        original = server.service_worker_main
        tracer = self

        def traced_worker_main(request_queue, result_queue, bootstrap):
            if not tracer.enabled:  # forked by an untraced phase
                return original(request_queue, result_queue, bootstrap)
            tracer.reset()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            original(request_queue, result_queue, bootstrap)
            record = tracer.export()
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
            path = out_dir / f"{tag}.worker-{os.getpid()}.json"
            path.write_text(json.dumps(record))

        server.service_worker_main = traced_worker_main
        self._patches.append((server, "service_worker_main", original))

    def merge_worker_files(self) -> None:
        """Collect (and delete) the records written by exited workers."""
        if self._worker_files is None:
            return
        out_dir, tag = self._worker_files
        for path in sorted(out_dir.glob(f"{tag}.worker-*.json")):
            self.workers.append(json.loads(path.read_text()))
            path.unlink()

    def export(self) -> dict:
        """The record as JSON-ready data."""
        return {
            "pid": self.pid,
            "self_s": {root: dict(v) for root, v in self.self_s.items()},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "spans": self.spans,
            "workers": self.workers,
        }


# ----------------------------------------------------------------------
# The layer map: which callable is which layer
# ----------------------------------------------------------------------

#: Pipeline stages reported on their own; the rest fold into "other".
_PIPELINE_STAGES = ("dem", "graph", "sparse_graph", "neighbor_structure")


def _pipeline_span(args) -> str:
    stage = args[1]
    return f"pipeline.{stage if stage in _PIPELINE_STAGES else 'other'}"


def _count_sample(tracer: Tracer, args, result) -> None:
    tracer.counters["sim.sample.shots"] += args[1]


def _count_unique(tracer: Tracer, args, result) -> None:
    tracer.counters["sim.unique_rows.rows"] += args[0].shape[0]
    tracer.counters["sim.unique_rows.unique"] += result[0].shape[0]


def _count_search(tracer: Tracer, args, result) -> None:
    tracer.counters["matching.search.rows"] += args[0].shape[0]


def _count_blossom(tracer: Tracer, args, result) -> None:
    tracer.counters["matching.blossom.nodes"] += len(args[0])


def _count_worker_rows(tracer: Tracer, args, result) -> None:
    tracer.counters["service.worker.rows"] += len(args[1])


def install_layers(tracer: Tracer, out_dir: Path, tag: str) -> None:
    """Wrap every traced layer boundary of the shot and streaming paths."""
    from repro.decoders import mwpm, windowed
    from repro.decoders.cascade import CascadeDecoder, ClosedFormTier
    from repro.decoders.mwpm import MWPMDecoder
    from repro.decoders.windowed import SlidingWindowDecoder
    from repro.experiments import memory
    from repro.matching import sparse, sparse_blossom
    from repro.matching.sparse import SparseMatchingEngine
    from repro.matching.sparse_blossom import SparseBlossomEngine
    from repro.pipeline.stages import DecodingPipeline
    from repro.service.server import DecodeService
    from repro.service.worker import TierSolver
    from repro.sim.pauli_frame import PauliFrameSimulator

    wrap = tracer.wrap
    wrap(DecodingPipeline, "get", _pipeline_span)
    # Shot path: experiment -> sampler -> dedup -> decode tiers -> tally.
    wrap(memory, "run_memory_experiment", "experiments.run")
    # Every chunk builds its own sampler: that set-up counts as sampling.
    wrap(PauliFrameSimulator, "__init__", "sim.sample")
    wrap(PauliFrameSimulator, "sample", "sim.sample", count=_count_sample)
    wrap(memory, "unique_rows", "sim.unique_rows", count=_count_unique)
    wrap(memory, "tally_decode_results", "experiments.tally")
    for attr in ("decode_batch", "decode_active"):
        wrap(CascadeDecoder, attr, "decoders.cascade")
        wrap(MWPMDecoder, attr, "decoders.mwpm")
    wrap(ClosedFormTier, "attempt", "decoders.cascade.closed_form")
    wrap(SparseMatchingEngine, "solve_batch", "matching.sparse")
    wrap(SparseMatchingEngine, "solve", "matching.sparse")
    wrap(SparseBlossomEngine, "solve", "matching.sparse_blossom")
    wrap(SparseBlossomEngine, "solve_many", "matching.sparse_blossom")
    wrap(sparse_blossom, "dijkstra", "matching.sparse_blossom.dijkstra")
    for module in (sparse, windowed):
        wrap(module, "batched_search", "matching.search", count=_count_search)
    for module in (sparse, sparse_blossom, mwpm, windowed):
        wrap(
            module,
            "min_weight_perfect_matching",
            "matching.blossom",
            count=_count_blossom,
        )
    # Streaming path: session bookkeeping -> solve wait -> worker solve.
    wrap(SlidingWindowDecoder, "window_active", "decoders.windowed.window_active")
    wrap(SlidingWindowDecoder, "commit_edges", "decoders.windowed.commit_edges")
    wrap(DecodeService, "start", "service.start")
    wrap(DecodeService, "solve", "service.solve")
    wrap(
        TierSolver,
        "solve_batch",
        "service.worker.solve_batch",
        count=_count_worker_rows,
        keep=True,
    )
    # run_load replays every episode through decode_batch after feeding;
    # that reference check is not part of the streaming path.
    tracer.mute(SlidingWindowDecoder, "decode_batch")
    tracer.hook_service_workers(out_dir, tag)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Root spans of the set-up builds; every other ``bench.*`` root is a
#: measured phase.
SETUP_ROOTS = ("bench.setup", "bench.service_start")
#: Span names reported as ``<name>.self_s`` over the measured phases.
MEASURED_LAYERS = (
    "sim.sample",
    "sim.unique_rows",
    "experiments.run",
    "experiments.tally",
    "decoders.cascade",
    "decoders.cascade.closed_form",
    "decoders.mwpm",
    "matching.sparse",
    "matching.search",
    "matching.sparse_blossom",
    "matching.sparse_blossom.dijkstra",
    "matching.blossom",
    "decoders.windowed.window_active",
    "decoders.windowed.commit_edges",
    "service.worker.solve_batch",
)
#: Layers that wrap the whole measured call: their self time is whatever
#: no inner layer covers, so ``trace.coverage`` leaves them out.
CONTAINER_LAYERS = ("experiments.run",)
SETUP_LAYERS = tuple(f"pipeline.{s}" for s in (*_PIPELINE_STAGES, "other"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1] (0 for no values)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))])


def layer_metrics(tracer: Tracer, extras: dict, *, setup_builds: int) -> dict:
    """Every per-layer metric from a traced run (0 for idle layers).

    Self times of the shot and streaming layers cover the measured phases
    of the main process plus every traced worker; pipeline self times are
    per set-up build.  ``extras`` carries what the workload measured
    itself (decoder counters, service reports, generator lateness, the
    tracing overhead) and overrides same-named entries.
    """
    tracer.merge_worker_files()
    measured = {
        root: layers
        for root, layers in tracer.self_s.items()
        if root.startswith("bench.") and root not in SETUP_ROOTS
    }
    records = [tracer.export()] + tracer.workers
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for layers in measured.values():
        for name, value in layers.items():
            self_s[name] += value
    for worker in tracer.workers:
        for layers in worker["self_s"].values():
            for name, value in layers.items():
                self_s[name] += value
    for record in records:
        for name, value in record["calls"].items():
            calls[name] += value
        for name, value in record["counters"].items():
            counters[name] += value
        for name, values in record["durations"].items():
            durations[name].extend(values)

    out: dict[str, float] = {}
    setup = tracer.self_s.get("bench.setup", {})
    for name in SETUP_LAYERS:
        out[f"{name}.self_s"] = setup.get(name, 0.0) / setup_builds
    for name in MEASURED_LAYERS:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["sim.sample.shots_per_s"] = _ratio(
        counters["sim.sample.shots"], self_s.get("sim.sample", 0.0)
    )
    out["sim.unique_rows.unique_fraction"] = _ratio(
        counters["sim.unique_rows.unique"], counters["sim.unique_rows.rows"]
    )
    for name in (
        "decoders.cascade.closed_form.solved_fraction",
        "decoders.cascade.escalation_rate",
        "decoders.mwpm.fallback_events",
        "matching.sparse.clusters",
        "matching.sparse.cache_hit_rate",
        "matching.sparse.fallbacks",
        "matching.sparse_blossom.nodes_settled",
        "matching.sparse_blossom.clusters",
    ):
        out[name] = 0.0
    out["matching.search.calls"] = calls["matching.search"]
    out["matching.search.rows_per_call"] = _ratio(
        counters["matching.search.rows"], calls["matching.search"]
    )
    out["matching.blossom.calls"] = calls["matching.blossom"]
    out["matching.blossom.nodes_mean"] = _ratio(
        counters["matching.blossom.nodes"], calls["matching.blossom"]
    )

    # Streaming service: waits are coroutine spans, not self time.
    starts = durations["service.start"]
    out["service.start_s"] = percentile(starts, 0.5)
    waits = durations["service.solve"]
    solves = durations["service.worker.solve_batch"]
    out["service.solve.wait_p50_ms"] = percentile(waits, 0.5) * 1e3
    out["service.solve.wait_p99_ms"] = percentile(waits, 0.99) * 1e3
    out["service.solve.count"] = float(len(waits))
    out["service.ipc_wait_p50_ms"] = (
        (percentile(waits, 0.5) - percentile(solves, 0.5)) * 1e3 if waits else 0.0
    )
    out["service.worker.rows_per_batch"] = _ratio(
        counters["service.worker.rows"], calls["service.worker.solve_batch"]
    )
    out["service.worker.cpu_util"] = _ratio(
        sum(w["cpu_s"] for w in tracer.workers),
        sum(w["wall_s"] for w in tracer.workers),
    )
    for name in (
        "service.main.cpu_util",
        "service.batches",
        "service.batch.size_mean",
        "service.backpressure_events",
        "loadgen.lag_p50_ms",
        "loadgen.lag_p99_ms",
        "loadgen.reaction_p99_ms.r150",
        "loadgen.reaction_p99_ms.r300",
        "loadgen.reaction_samples.r150",
        "loadgen.reaction_samples.r300",
        "trace.overhead",
    ):
        out[name] = 0.0

    # How much of the measured main-process wall the named inner layers
    # cover; a layer missing from the trace lowers this.
    wall = sum(sum(layers.values()) for layers in measured.values())
    covered = sum(
        value
        for layers in measured.values()
        for name, value in layers.items()
        if name in MEASURED_LAYERS and name not in CONTAINER_LAYERS
    )
    out["trace.traced_wall_s"] = wall
    out["trace.coverage"] = _ratio(covered, wall)
    out.update(extras)
    return out
