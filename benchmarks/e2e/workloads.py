"""The benchmark's four workloads, driven through public entry points only.

Each ``run_*`` function executes one workload inside the current process
(``run.py`` gives every workload a fresh subprocess) and returns a result
dict: ``correct``/``attempted``/``failed``, the deterministic
``logical_errors`` count, ``metrics`` (end-to-end, or per-layer when a
tracer is passed), and ``info`` (context printed but not gated).

A run does *fixed work*: each workload's table entry counts its rounds,
chunk sizes, windows and repeats for a run of ``REFERENCE_SECONDS``, and
:class:`RunOptions` scales every count by ``seconds / REFERENCE_SECONDS``
(the only place a run's size is set).  So every estimator sees the same
number of samples on every run, and the logical-error counts repeat
exactly at a fixed seed and run length.

The host this was built on is shared, and its speed swings up to 3x over
tens of seconds with no steal time visible to the guest.  Phases are
therefore interleaved in short rounds across the whole run.  Throughput
takes its least disturbed sample, the fastest chunk or repeat: noise only
ever slows work down, so that is the steadiest estimate of what the code
itself costs.  Reaction is the median over every episode of a rate, whose
windows are spread over the whole run.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.decoders.cascade import CascadeDecoder
from repro.decoders.registry import make_decoder
from repro.experiments import memory
from repro.experiments.setup import DecodingSetup
from repro.service import RetryPolicy
from repro.service.loadgen import run_load
from repro.service.server import DecodeService, ServiceConfig
from repro.sim.pauli_frame import PauliFrameSimulator

from trace import Tracer, layer_metrics, percentile

#: Cold builds whose median is ``setup_s`` (after one untimed build that
#: pays for imports and lazily built kernel tables).
SETUP_BUILDS = 3
#: Unique syndromes of the first timed chunk checked against the oracle.
ORACLE_ROWS = 256
ORACLE_TOLERANCE = 1e-9
#: Open-loop rates.  mem-* decodes one shot per arrival (shots/s); the
#: streaming workload feeds rounds to each of its streams (rounds/s).
RATES = (150, 300)
#: Reaction limit each rate is checked against (p99, not gated).
LATENCY_LIMIT_MS = 20.0
#: Run length the work counts below are sized for: on the 2-core host
#: this was built on, one run's measured phase takes about this long.
REFERENCE_SECONDS = 20.0
#: Fewest rounds (and repeats) a scaled-down run keeps.
MIN_ROUNDS = 2
#: Length of one open-loop window.  A mem-* window holds 150-300 single
#: shots; a stream-d5 window 400-800 episodes.
MEM_WINDOW_S = 1.0
STREAM_WINDOW_S = 0.5
#: Seed streams: every phase draws from its own derived seed sequence, so
#: the warm-up never shares syndromes with a measured chunk.
_WARMUP, _CHUNKS, _REACTION, _SATURATION = range(4)


def derived_seed(seed: int, *indices: int) -> int:
    """Deterministic per-phase, per-chunk sampler seed."""
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1)[0])


@dataclass(frozen=True)
class MemWorkload:
    """A Monte-Carlo memory campaign through ``run_memory_experiment``.

    ``rounds`` rounds of one ``chunk_shots`` chunk plus, untraced, one
    open-loop window per rate.
    """

    name: str
    distance: int
    p: float
    decoder: str
    dense_weights: bool
    rounds: int
    chunk_shots: int


@dataclass(frozen=True)
class StreamWorkload:
    """Rounds streamed through ``DecodeService`` sessions.

    ``windows`` open-loop windows per rate (about 60% of the run), then
    ``repeats`` closed-loop ``run_load`` calls of ``episodes`` episodes per
    stream (about 40%, at ~25k rounds/s).
    """

    name: str
    distance: int
    p: float
    streams: int
    window: int
    commit: int
    workers: int
    windows: int
    repeats: int
    episodes: int


WORKLOADS = {
    w.name: w
    for w in (
        MemWorkload("mem-d7-p1e-3", 7, 1e-3, "cascade", True, 8, 65_536),
        MemWorkload("mem-d7-p5e-3", 7, 5e-3, "cascade", True, 8, 1_024),
        MemWorkload("mem-d11-graph", 11, 1e-3, "mwpm", False, 6, 1_024),
        StreamWorkload("stream-d5", 5, 2e-3, 32, 3, 1, 1, 12, 12, 90),
    )
}


@dataclass(frozen=True)
class RunOptions:
    """Per-run knobs shared by every workload."""

    seed: int
    seconds: float

    @property
    def scale(self) -> float:
        """Run length relative to the one the work counts are sized for."""
        return self.seconds / REFERENCE_SECONDS

    def rounds(self, count: int) -> int:
        """A round or repeat count, scaled with the run length."""
        return max(MIN_ROUNDS, round(count * self.scale))

    def size(self, amount: float) -> float:
        """A chunk, window or episode size: shrunk for short runs, never
        grown (a larger chunk would change what dedup saves)."""
        return amount * min(1.0, self.scale)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reaction_metrics(info: dict, reactions: dict[str, list[float]]) -> dict:
    """Median reaction per rate, in ms, over every window of that rate.

    The p99 (not gated), its sample count and whether it meets the
    latency limit go to ``info``.
    """
    metrics = {}
    for name, values in reactions.items():
        p99 = percentile(values, 0.99) * 1e3
        info[f"reaction_p99_ms.{name}"] = p99
        info[f"reaction_samples.{name}"] = len(values)
        info[f"meets_limit.{name}"] = p99 <= LATENCY_LIMIT_MS
        metrics[f"reaction_p50_ms.{name}"] = percentile(values, 0.5) * 1e3
    return metrics


def _num_layers(setup) -> int:
    return max(t for *_, t in setup.experiment.detector_coords) + 1


@contextmanager
def _traced(tracer: Tracer | None, name: str):
    """Enable ``tracer`` (if any) under a root span for one block."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.enabled = False


def _measure_setup(build, tracer: Tracer | None):
    """Median of cold builds after one untimed build; returns the last."""
    build()
    times = []
    for _ in range(SETUP_BUILDS):
        start = time.perf_counter()
        with _traced(tracer, "bench.setup"):
            stack = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), stack


# ----------------------------------------------------------------------
# mem-*: the shot path
# ----------------------------------------------------------------------


def _decoder_counters(decoder) -> dict[str, float]:
    """Cumulative decode-layer counters, for per-chunk deltas."""
    cascade = isinstance(decoder, CascadeDecoder)
    mwpm = decoder.terminal if cascade else decoder
    out = {"fallback_events": float(mwpm.fallback_events)}
    if cascade:
        for tier, tier_stats in decoder.stats.tiers.items():
            out[f"tier.{tier}.routed"] = float(tier_stats.routed)
            out[f"tier.{tier}.solved"] = float(tier_stats.solved)
    graph_stats = mwpm.graph_stats
    table_stats = mwpm.sparse_stats
    if table_stats is not None and table_stats is not graph_stats:
        out["sparse.clusters"] = float(table_stats.clusters)
        out["sparse.hits"] = float(table_stats.cache_hits)
        out["sparse.misses"] = float(table_stats.cache_misses)
        out["sparse.fallbacks"] = float(table_stats.total_fallbacks)
    if graph_stats is not None:
        out["graph.clusters"] = float(graph_stats.clusters)
        out["graph.nodes_settled"] = float(graph_stats.nodes_settled)
    return out


def _first_unique(detectors: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` distinct non-empty syndromes, in shot order."""
    keys = np.packbits(detectors, axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    rows = detectors[np.sort(first)]
    return rows[rows.any(axis=1)][:limit]


def _oracle_mismatches(w: MemWorkload, setup, decoder, rows) -> int:
    """Rows whose matching weight differs from the dense blossom oracle."""
    oracle_setup = (
        setup
        if w.dense_weights
        else DecodingSetup.build(w.distance, w.p, cache=False, store_root=None)
    )
    oracle = make_decoder("mwpm", oracle_setup, use_sparse=False)
    got = decoder.decode_batch(rows)
    want = oracle.decode_batch(rows)
    return sum(
        abs(a.weight - b.weight) > ORACLE_TOLERANCE for a, b in zip(got, want)
    )


def _wait_until(due: float) -> None:
    """Busy-wait until ``due``.

    A real-time decode loop polls for its next syndrome.  Sleeping instead
    lets the core idle between shots, and a sub-millisecond decode then
    measures how fast the host wakes a cold core (spreads of 40% and more
    between runs), not the decoder.
    """
    while time.perf_counter() < due:
        pass


def _mem_reaction(decoder, experiment, rate: int, count: int, seed: int):
    """Decode ``count`` shots arriving open-loop at ``rate`` shots/s.

    Each shot's reaction is timed from when it was due, so a slow decode
    delays (and is charged to) the shots queued behind it.
    """
    sample = PauliFrameSimulator(experiment.circuit, seed=seed).sample(count)
    observed = sample.observables[:, 0]
    reactions = []
    errors = declined = 0
    start = time.perf_counter() + 0.005
    for k, row in enumerate(sample.detectors):
        due = start + k / rate
        _wait_until(due)
        result = decoder.decode(row)
        reactions.append(time.perf_counter() - due)
        errors += bool(result.prediction) != bool(observed[k])
        declined += not result.decoded
    return reactions, errors, declined


def run_mem(w: MemWorkload, opts: RunOptions, tracer: Tracer | None) -> dict:
    """One mem-* workload: setup, interleaved rounds, oracle check.

    A round is one throughput chunk through ``run_memory_experiment`` and,
    untraced, one open-loop window per rate.  A traced run has no windows
    and traces every other chunk, so the tracing overhead is measured on
    neighbouring chunks.
    """

    def build():
        setup = DecodingSetup.build(
            w.distance,
            w.p,
            dense_weights=w.dense_weights,
            cache=False,
            store_root=None,
        )
        return setup, make_decoder(w.decoder, setup)

    setup_s, (setup, decoder) = _measure_setup(build, tracer)
    experiment = setup.experiment
    chunk = max(8, round(opts.size(w.chunk_shots)))
    rounds = opts.rounds(w.rounds)
    # Campaigns run long: warm the decoder's caches on an unmeasured seed.
    memory.run_memory_experiment(
        experiment, decoder, chunk, seed=derived_seed(opts.seed, _WARMUP)
    )
    fallbacks0 = _decoder_counters(decoder)["fallback_events"]

    rates, traced_times, plain_times = [], [], []
    traced_delta: dict[str, float] = {}
    reactions: dict[str, list[float]] = {f"r{rate}": [] for rate in RATES}
    attempted = failed = logical_errors = 0
    for i in range(rounds):
        traced = tracer is not None and i % 2 == 1
        before = _decoder_counters(decoder)
        start = time.perf_counter()
        with _traced(tracer if traced else None, "bench.chunk"):
            result = memory.run_memory_experiment(
                experiment, decoder, chunk, seed=derived_seed(opts.seed, _CHUNKS, i)
            )
        elapsed = time.perf_counter() - start
        if traced:
            traced_times.append(elapsed)
            after = _decoder_counters(decoder)
            for key, value in after.items():
                traced_delta[key] = traced_delta.get(key, 0.0) + value - before[key]
        else:
            plain_times.append(elapsed)
        rates.append(chunk / elapsed)
        attempted += result.shots
        failed += result.declined
        logical_errors += result.errors
        for k, rate in enumerate(RATES if tracer is None else ()):
            count = max(20, round(rate * opts.size(MEM_WINDOW_S)))
            window, errors, declined = _mem_reaction(
                decoder,
                experiment,
                rate,
                count,
                derived_seed(opts.seed, _REACTION, k, i),
            )
            reactions[f"r{rate}"].extend(window)
            attempted += count
            failed += declined
            logical_errors += errors
    peak_rss = _peak_rss_mb()
    decoder_fallbacks = _decoder_counters(decoder)["fallback_events"] - fallbacks0
    failed += int(decoder_fallbacks)

    rows = _first_unique(
        PauliFrameSimulator(experiment.circuit, seed=derived_seed(opts.seed, _CHUNKS, 0))
        .sample(chunk)
        .detectors,
        ORACLE_ROWS,
    )
    mismatches = _oracle_mismatches(w, setup, decoder, rows)

    # The fastest chunk is the least disturbed (see the module docstring).
    shots_per_s = max(rates)
    layers = _num_layers(setup)
    out = {
        "correct": mismatches == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "logical_errors": logical_errors,
        "info": {
            "rounds": rounds,
            "chunk_shots": chunk,
            "shots_per_s_median_chunk": statistics.median(rates),
            "oracle_rows": len(rows),
            "oracle_mismatches": mismatches,
            "fallback_events": int(decoder_fallbacks),
            "expected_fault_count": setup.dem.expected_fault_count,
            "layers": layers,
        },
    }
    if tracer is None:
        out["metrics"] = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "shots_per_s": shots_per_s,
            "errors_per_core_s": shots_per_s * setup.dem.expected_fault_count,
            **_reaction_metrics(out["info"], reactions),
            "saturation_rounds_per_s": shots_per_s * layers,
        }
        return out

    c = traced_delta
    routed = c.get("tier.closed-form.routed", 0.0)
    lookups = c.get("sparse.hits", 0.0) + c.get("sparse.misses", 0.0)
    extras = {
        "decoders.cascade.closed_form.solved_fraction": (
            c.get("tier.closed-form.solved", 0.0) / routed if routed else 0.0
        ),
        "decoders.cascade.escalation_rate": (
            c.get("tier.mwpm.routed", 0.0) / routed if routed else 0.0
        ),
        "decoders.mwpm.fallback_events": c.get("fallback_events", 0.0),
        "matching.sparse.clusters": c.get("sparse.clusters", 0.0),
        "matching.sparse.cache_hit_rate": (
            c.get("sparse.hits", 0.0) / lookups if lookups else 0.0
        ),
        "matching.sparse.fallbacks": c.get("sparse.fallbacks", 0.0),
        "matching.sparse_blossom.nodes_settled": c.get("graph.nodes_settled", 0.0),
        "matching.sparse_blossom.clusters": c.get("graph.clusters", 0.0),
        "trace.overhead": (
            statistics.median(traced_times) / statistics.median(plain_times)
        ),
    }
    out["metrics"] = layer_metrics(tracer, extras, setup_builds=SETUP_BUILDS)
    return out


# ----------------------------------------------------------------------
# stream-d5: the streaming service
# ----------------------------------------------------------------------


async def _open_loop(svc, sessions, rate: int, detectors: np.ndarray):
    """Feed each stream its share of ``detectors`` at ``rate`` rounds/s.

    Streams run in lockstep: round ``k`` of every stream is due at
    ``start + k / rate``.  Returns reaction times (episode's last round
    due -> ``finish_episode`` returned), generator lateness per round and
    each episode's prediction.
    """
    decoder = svc.decoder
    layers = decoder.num_layers
    index = [decoder.layer_detectors(t) for t in range(layers)]
    per_stream = len(detectors) // len(sessions)
    predictions = np.zeros(len(detectors), dtype=bool)
    reactions: list[float] = []
    lags: list[float] = []
    start = time.perf_counter() + 0.01

    async def feed(s: int, session) -> None:
        for e in range(per_stream):
            row = detectors[s * per_stream + e]
            for t in range(layers):
                due = start + (e * layers + t) / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(time.perf_counter() - due)
                await session.submit_round(row[index[t]])
            result = await session.finish_episode()
            reactions.append(time.perf_counter() - due)
            predictions[s * per_stream + e] = result.prediction

    await asyncio.gather(*(feed(s, x) for s, x in enumerate(sessions)))
    return reactions, lags, predictions


def _service_config(w: StreamWorkload) -> ServiceConfig:
    return ServiceConfig(
        window=w.window,
        commit=w.commit,
        workers=w.workers,
        batch_window=0.001,
        policy=RetryPolicy(max_retries=3, backoff=0.02, timeout=10.0),
    )


async def _serve_open_loop(w, config, windows, tracer) -> dict:
    """Run open-loop windows ``[(name, rate, seconds, seed)]`` on one service.

    Every episode's prediction is checked against the in-process
    ``SlidingWindowDecoder.decode_batch`` after its window (untimed).
    """
    svc = DecodeService(config, _service_config(w))
    with _traced(tracer, "bench.service_start"):
        await svc.start()
    out = {"reactions": {}, "lags": [], "fed": 0, "mismatches": 0, "errors": 0}
    cpu_s = wall_s = 0.0
    circuit = DecodingSetup.from_config(config, store_root=None).experiment.circuit
    try:
        sessions = [svc.open_stream(f"stream-{s}") for s in range(w.streams)]
        layers = svc.decoder.num_layers
        for name, rate, seconds, seed in windows:
            per_stream = max(2, round(rate * seconds / layers))
            sample = PauliFrameSimulator(circuit, seed=seed).sample(
                w.streams * per_stream
            )
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with _traced(tracer, f"bench.{name}"):
                reactions, lags, predictions = await _open_loop(
                    svc, sessions, rate, sample.detectors
                )
            cpu_s += time.process_time() - cpu0
            wall_s += time.perf_counter() - wall0
            reference = svc.decoder.decode_batch(sample.detectors)
            out["mismatches"] += sum(
                bool(p) != bool(r.prediction)
                for p, r in zip(predictions, reference)
            )
            out["fed"] += len(predictions) * layers
            out["errors"] += int(
                np.sum(predictions != sample.observables[:, 0].astype(bool))
            )
            out["reactions"].setdefault(name, []).extend(reactions)
            out["lags"].extend(lags)
        out["report"] = svc.report()
    finally:
        await svc.stop()
    out["committed"] = out["report"]["service"]["rounds_committed"]
    out["main_cpu_util"] = cpu_s / wall_s if wall_s else 0.0
    return out


async def _stream_open_loop(w, config, opts, tracer) -> dict:
    """Warm-up on its own service, then alternating r150/r300 windows.

    The warm-up's reference replay leaves the shared in-process decoder's
    window cache warm, and the measured service's forked worker inherits
    it -- without a traced worker ever recording warm-up work.
    """
    window_s = opts.size(STREAM_WINDOW_S)
    warm = await _serve_open_loop(
        w,
        config,
        [("warmup", RATES[0], window_s, derived_seed(opts.seed, _WARMUP))],
        None,
    )
    measured = await _serve_open_loop(
        w,
        config,
        [
            (f"r{rate}", rate, window_s, derived_seed(opts.seed, _REACTION, k, i))
            for i in range(opts.rounds(w.windows))
            for k, rate in enumerate(RATES)
        ],
        tracer,
    )
    for key in ("fed", "committed", "mismatches"):
        measured[key] += warm[key]
    return measured


def run_stream(w: StreamWorkload, opts: RunOptions, tracer: Tracer | None) -> dict:
    """The streaming workload: open-loop windows, then saturation."""

    def build():
        setup = DecodingSetup.build(w.distance, w.p, cache=False, store_root=None)
        return setup, make_decoder(
            "sliding-window", setup, window=w.window, commit=w.commit
        )

    setup_s, (setup, _decoder) = _measure_setup(build, tracer)
    # The service resolves its decoders through the process-wide facade
    # cache; build it here so service start-up is not a cold build.
    config = DecodingSetup.build(w.distance, w.p, store_root=None).config
    layers = _num_layers(setup)

    open_loop = asyncio.run(_stream_open_loop(w, config, opts, tracer))

    # Saturation: closed-loop run_load repeats; a traced run alternates
    # untraced and traced repeats to measure the tracing overhead.
    repeats = opts.rounds(w.repeats)
    episodes = max(2, round(opts.size(w.episodes)))
    plain_rates, traced_rates = [], []
    reports = []
    for k in range(repeats):
        traced = tracer is not None and k % 2 == 1
        with _traced(tracer if traced else None, "bench.saturation"):
            report = run_load(
                config,
                _service_config(w),
                streams=w.streams,
                episodes=episodes,
                seed=derived_seed(opts.seed, _SATURATION, k),
            )
        (traced_rates if traced else plain_rates).append(report.rounds_per_second)
        reports.append(report)
    peak_rss = _peak_rss_mb()

    fed = open_loop["fed"] + sum(r.rounds_fed for r in reports)
    committed = open_loop["committed"] + sum(r.rounds_committed for r in reports)
    mismatches = open_loop["mismatches"] + sum(
        r.reference_mismatches for r in reports
    )
    degraded = sum(r.episodes_degraded for r in reports)
    errors = open_loop["errors"] + sum(
        r.logical_errors_primary + r.logical_errors_degraded for r in reports
    )
    # The fastest repeat is the least disturbed, as for mem-* chunks.
    rounds_per_s = max(plain_rates)
    shots_per_s = rounds_per_s / layers
    out = {
        "correct": committed == fed and mismatches == 0 and degraded == 0,
        "attempted": fed,
        "failed": fed - committed,
        "logical_errors": errors,
        "info": {
            "rounds_fed": fed,
            "rounds_committed": committed,
            "reference_mismatches": mismatches,
            "episodes_degraded": degraded,
            "saturation_episodes_per_stream": episodes,
            "saturation_rounds_per_s_median": statistics.median(plain_rates),
            "expected_fault_count": setup.dem.expected_fault_count,
            "layers": layers,
        },
    }
    reaction = _reaction_metrics(out["info"], open_loop["reactions"])
    if tracer is None:
        out["metrics"] = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            # One episode is one memory shot; the service occupies two
            # cores (the asyncio process and its one worker).
            "shots_per_s": shots_per_s,
            "errors_per_core_s": (
                shots_per_s * setup.dem.expected_fault_count / (1 + w.workers)
            ),
            **reaction,
            "saturation_rounds_per_s": rounds_per_s,
        }
        return out

    service_reports = [open_loop["report"]] + [r.service for r in reports]
    batches = sum(r["service"]["batches"] for r in service_reports)
    requests = sum(r["service"]["batched_requests"] for r in service_reports)
    lags = open_loop["lags"]
    extras = {
        "service.main.cpu_util": open_loop["main_cpu_util"],
        "service.batches": float(batches),
        "service.batch.size_mean": requests / batches if batches else 0.0,
        "service.backpressure_events": float(
            sum(r["backpressure_events"] for r in service_reports)
        ),
        "loadgen.lag_p50_ms": percentile(lags, 0.5) * 1e3,
        "loadgen.lag_p99_ms": percentile(lags, 0.99) * 1e3,
        "trace.overhead": (
            statistics.median(plain_rates) / statistics.median(traced_rates)
        ),
    }
    for name in ("r150", "r300"):
        extras[f"loadgen.reaction_p99_ms.{name}"] = out["info"][
            f"reaction_p99_ms.{name}"
        ]
        extras[f"loadgen.reaction_samples.{name}"] = float(
            out["info"][f"reaction_samples.{name}"]
        )
    out["metrics"] = layer_metrics(tracer, extras, setup_builds=SETUP_BUILDS)
    return out


def run_workload(name: str, opts: RunOptions, tracer: Tracer | None) -> dict:
    """Dispatch one workload by name."""
    w = WORKLOADS[name]
    if isinstance(w, StreamWorkload):
        return run_stream(w, opts, tracer)
    return run_mem(w, opts, tracer)
