"""Command-line experiment runner.

The paper's artifact drives everything through one binary
(``mpirun -np <X> ./astrea <output-file> <experiment-no> <args...>``); this
module reproduces that workflow with named subcommands::

    python -m repro info      --distance 7
    python -m repro census    --distance 7 --p 1e-4 --shots 100000
    python -m repro ler       --distance 5 --p 1e-3 --decoder astrea --shots 50000
    python -m repro sweep     --distance 7 --p-min 5e-4 --p-max 2e-3 --points 4
    python -m repro latency   --distance 7 --p 1e-3 --shots 20000
    python -m repro campaign  --distance 5 --p 1e-3 --shots 200000 \
                              --checkpoint-dir runs/d5 --resume
    python -m repro bandwidth --distance 9 --p 1.5e-3 --budget-min 500
    python -m repro stratified --distance 7 --p 1e-4 --trials 1000

Every command prints human-readable rows and, with ``--output FILE``,
appends machine-readable lines to a file (the artifact's convention).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .decoders import registry as decoder_registry
from .decoders.base import Decoder
from .experiments.hamming import hamming_weight_census
from .experiments.importance import estimate_ler_stratified
from .experiments.memory import run_memory_experiment
from .experiments.setup import DecodingSetup
from .hw.bandwidth import BandwidthModel

__all__ = ["main", "build_parser", "make_decoder", "DECODER_NAMES"]

#: Decoder names accepted by ``--decoder`` -- the registry decoders
#: carrying the ``"cli"`` capability, in registration order.
DECODER_NAMES = decoder_registry.decoder_names("cli")


def make_decoder(
    name: str,
    setup: DecodingSetup,
    *,
    weight_threshold: float = 7.0,
    budget_ns: float = 1000.0,
) -> Decoder:
    """Instantiate a decoder by CLI name against a built setup.

    Thin wrapper over :func:`repro.decoders.registry.make_decoder` with
    the CLI's uniform knobs; factories that do not declare a knob simply
    do not receive it.

    Args:
        name: One of :data:`DECODER_NAMES`.
        setup: The decoding stack to attach to.
        weight_threshold: Astrea-G's ``W_th``.
        budget_ns: Real-time budget for Astrea-G.

    Returns:
        A ready-to-use decoder.
    """
    return decoder_registry.make_decoder(
        name, setup, weight_threshold=weight_threshold, budget_ns=budget_ns
    )


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def _emit(args: argparse.Namespace, human: list[str], machine: list[str]) -> None:
    """Print rows; append machine rows to --output if given."""
    print("\n".join(human))
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            for line in machine:
                handle.write(line + "\n")


def cmd_info(args: argparse.Namespace) -> int:
    """Code resources and storage footprint (paper Tables 1 and 6)."""
    from .pipeline import default_artifact_store, stage_cache

    setup = DecodingSetup.build(args.distance, args.p)
    code = setup.experiment.code
    human = [
        f"distance             : {code.distance}",
        f"data qubits          : {code.num_data_qubits}",
        f"parity qubits        : {code.num_parity_qubits}",
        f"total qubits         : {code.num_qubits}",
        f"syndrome length      : {code.syndrome_vector_length()}",
        f"DEM fault mechanisms : {len(setup.dem)}",
        f"decoding-graph edges : {len(setup.graph.edges)}",
        f"GWT footprint        : {setup.gwt.storage_bytes()} bytes",
        "matching engines     : sparse table engine + graph-local "
        "sparse-blossom (O(E), d >= 15 capable); fallbacks tracked by "
        "reason: unsafe_pair / unsolvable / engine_error",
    ]
    cache = stage_cache().stats
    human.append(
        f"stage cache          : {cache.hits} hits, {cache.misses} misses, "
        f"{cache.evictions} evicted, {cache.size}/{cache.capacity} entries"
    )
    store = default_artifact_store()
    if store is not None:
        stats = store.stats
        human.append(
            f"artifact store       : {store.root} "
            f"({stats.disk_hits} disk hits, {stats.disk_misses} misses, "
            f"{stats.saves} saves, {stats.invalidated} invalidated)"
        )
    human.append("registered decoders  :")
    for name in decoder_registry.decoder_names():
        spec = decoder_registry.get_decoder_spec(name)
        human.append(
            f"  {name:<16} [{', '.join(spec.capabilities)}]"
            + (f"  {spec.description}" if spec.description else "")
        )
    from .backend import backend_info

    info = backend_info()
    human.append(
        f"array backend        : {info.name} (device: {info.device}, "
        f"native numpy: {info.native_numpy})"
    )
    human.append(
        "importable backends  : "
        + ", ".join(
            name if ok else f"{name} (not installed)"
            for name, ok in sorted(info.importable.items())
        )
    )
    machine = [
        f"{code.distance} {code.num_data_qubits} {code.num_parity_qubits} "
        f"{code.num_qubits} {code.syndrome_vector_length()} "
        f"{setup.gwt.storage_bytes()}"
    ]
    _emit(args, human, machine)
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    """Hamming-weight census (artifact experiment 6, paper Tables 2/5)."""
    setup = DecodingSetup.build(args.distance, args.p)
    census = hamming_weight_census(setup.experiment, args.shots, seed=args.seed)
    human = [f"d={args.distance} p={args.p} shots={args.shots}"]
    machine = []
    for weight in sorted(census.counts):
        count = census.counts[weight]
        human.append(f"HW {weight:3d}: {count:9d}  ({count / args.shots:.3e})")
        machine.append(f"{weight}, {count}")
    _emit(args, human, machine)
    return 0


def cmd_ler(args: argparse.Namespace) -> int:
    """Logical error rate of one decoder at one operating point."""
    setup = DecodingSetup.build(args.distance, args.p)
    decoder = make_decoder(
        args.decoder, setup, weight_threshold=args.weight_threshold
    )
    result = run_memory_experiment(
        setup.experiment, decoder, args.shots, seed=args.seed
    )
    low, high = result.confidence_interval
    human = [
        f"d={args.distance} p={args.p} decoder={args.decoder} shots={args.shots}",
        f"logical error rate : {result.logical_error_rate:.3e} "
        f"(95% CI [{low:.3e}, {high:.3e}])",
        f"errors/declined    : {result.errors}/{result.declined}",
        f"latency mean/max   : {result.mean_latency_ns:.1f}/"
        f"{result.max_latency_ns:.0f} ns",
    ]
    fallbacks = decoder.fallback_events
    if fallbacks:
        stats = getattr(decoder, "sparse_stats", None)
        breakdown = (
            " (" + ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(stats.fallback_events.items())
                if count
            ) + ")"
            if stats is not None and any(stats.fallback_events.values())
            else ""
        )
        human.append(
            f"[WARN] fallbacks   : {fallbacks} decode(s) degraded to the "
            f"dense reference path{breakdown}"
        )
    machine = [
        f"{args.distance} {args.p} {args.decoder} {args.shots} "
        f"{result.errors} {result.logical_error_rate:.6e} "
        f"{result.mean_latency_ns:.3f} {result.max_latency_ns:.3f}"
    ]
    _emit(args, human, machine)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """LER sweep over physical error rates (artifact experiment 1)."""
    if args.points < 2:
        raise SystemExit("--points must be >= 2")
    human = [
        f"d={args.distance} decoder={args.decoder} shots={args.shots}/point",
        f"{'p':>10} {'LER':>12} {'errors':>7}",
    ]
    machine = []
    for index in range(args.points):
        frac = index / (args.points - 1)
        p = args.p_min * (args.p_max / args.p_min) ** frac
        setup = DecodingSetup.build(args.distance, p)
        decoder = make_decoder(
            args.decoder, setup, weight_threshold=args.weight_threshold
        )
        result = run_memory_experiment(
            setup.experiment, decoder, args.shots, seed=args.seed + index
        )
        human.append(
            f"{p:>10.3e} {result.logical_error_rate:>12.3e} {result.errors:>7}"
        )
        machine.append(
            f"{args.distance} {p:.6e} {args.decoder} {args.shots} "
            f"{result.errors} {result.logical_error_rate:.6e}"
        )
    _emit(args, human, machine)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Supervised long campaign: checkpoint/resume, retries, timeouts."""
    from .experiments.resilient import run_memory_experiment_resilient
    from .pipeline import DecoderHandle
    from .service import RetryPolicy

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    setup = DecodingSetup.build(
        args.distance, args.p, store_root=args.artifact_dir
    )
    if args.artifact_dir:
        # Publish every persistable stage before workers launch so they
        # warm-start from the store instead of recompiling per process.
        setup.warm()
    decoder = DecoderHandle.create(
        setup.config,
        args.decoder,
        store_root=args.artifact_dir,
        weight_threshold=args.weight_threshold,
    )
    outcome = run_memory_experiment_resilient(
        setup.experiment,
        decoder,
        args.shots,
        seed=args.seed,
        workers=args.workers,
        chunks_per_worker=args.chunks_per_worker,
        block_shots=args.block_shots,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        policy=RetryPolicy(
            max_retries=args.max_retries, timeout=args.chunk_timeout
        ),
    )
    result, recovery = outcome.result, outcome.recovery
    low, high = result.confidence_interval
    human = [
        f"d={args.distance} p={args.p} decoder={args.decoder} "
        f"shots={args.shots} workers={args.workers}",
        f"logical error rate : {result.logical_error_rate:.3e} "
        f"(95% CI [{low:.3e}, {high:.3e}])",
        f"errors/declined    : {result.errors}/{result.declined}",
        f"chunks             : {recovery.chunks_total} total, "
        f"{recovery.chunks_resumed} resumed, "
        f"{recovery.dropped_chunks} dropped",
        f"recovery           : {recovery.crashes} crashes, "
        f"{recovery.hangs} hangs, {recovery.worker_errors} errors, "
        f"{recovery.retries} retries, "
        f"{recovery.serial_fallbacks} serial fallbacks, "
        f"{recovery.corrupted_checkpoints} corrupted checkpoints",
    ]
    machine = [
        f"{args.distance} {args.p} {args.decoder} {result.shots} "
        f"{result.errors} {result.logical_error_rate:.6e} "
        f"{recovery.chunks_resumed} {recovery.retries} "
        f"{recovery.dropped_chunks}"
    ]
    _emit(args, human, machine)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Streaming decode service under deterministic generated load."""
    import json

    from .pipeline.stages import PipelineConfig
    from .service import RetryPolicy
    from .service.loadgen import run_load
    from .service.server import ServiceConfig
    from .testing.faults import SERVICE_SOLVE_PHASE, FaultInjector

    injector = None
    if args.inject_crash or args.inject_hang:
        injector = FaultInjector(
            crashes={
                (SERVICE_SOLVE_PHASE, batch): 1 for batch in args.inject_crash
            },
            hangs={
                (SERVICE_SOLVE_PHASE, batch): 1 for batch in args.inject_hang
            },
            hang_seconds=max(5.0, 4.0 * args.deadline),
        )
    config = PipelineConfig(distance=args.distance, physical_error_rate=args.p)
    service = ServiceConfig(
        window=args.window,
        commit=args.commit,
        workers=args.workers,
        batch_window=args.batch_window,
        policy=RetryPolicy(
            max_retries=args.max_retries,
            backoff=args.retry_backoff,
            timeout=args.deadline,
        ),
        degrade_tier=(
            None if args.degrade_tier == "none" else args.degrade_tier
        ),
        queue_limit=args.queue_limit,
    )
    report = run_load(
        config,
        service,
        streams=args.streams,
        episodes=args.episodes,
        seed=args.seed,
        injector=injector,
        burst_streams=args.burst_streams,
    )
    recovery = report.service["service"]["recovery"]
    human = [
        f"d={args.distance} p={args.p} streams={args.streams} "
        f"episodes/stream={args.episodes} workers={args.workers}",
        f"rounds             : {report.rounds_fed} fed, "
        f"{report.rounds_committed} committed",
        f"throughput         : {report.rounds_per_second:.0f} rounds/s "
        f"(wall {report.wall_seconds:.2f} s)",
        f"solve latency      : p50 {report.solve_p50_ms:.2f} ms, "
        f"p99 {report.solve_p99_ms:.2f} ms",
        f"episodes           : {report.episodes_primary} primary "
        f"({report.logical_errors_primary} logical errors, "
        f"{report.reference_mismatches} reference mismatches), "
        f"{report.episodes_degraded} degraded "
        f"({report.logical_errors_degraded} logical errors)",
        f"recovery           : {recovery['crashes']} crashes, "
        f"{recovery['hangs']} hangs, {recovery['respawns']} respawns, "
        f"{recovery['retries']} retries, "
        f"{recovery['serial_fallbacks']} serial fallbacks",
        f"load shedding      : "
        f"{report.service['degradations']} degradations, "
        f"{report.service['promotions']} promotions, "
        f"{report.service['backpressure_events']} backpressure events",
    ]
    machine = [
        f"{args.distance} {args.p} {args.streams} {args.episodes} "
        f"{report.rounds_committed} {report.rounds_per_second:.1f} "
        f"{report.solve_p99_ms:.3f} {recovery['respawns']} "
        f"{report.service['degradations']} {report.reference_mismatches}"
    ]
    _emit(args, human, machine)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
    return 0 if report.reference_mismatches == 0 else 1


def cmd_latency(args: argparse.Namespace) -> int:
    """Latency profile of the real-time decoders (paper Figure 9)."""
    setup = DecodingSetup.build(args.distance, args.p)
    human = [f"d={args.distance} p={args.p} shots={args.shots}"]
    machine = []
    for name in ("astrea", "astrea-g"):
        decoder = make_decoder(name, setup)
        result = run_memory_experiment(
            setup.experiment, decoder, args.shots, seed=args.seed
        )
        human.append(
            f"{name:9s} mean {result.mean_latency_ns:7.2f} ns | "
            f"mean(HW>2) {result.mean_latency_nontrivial_ns:7.1f} ns | "
            f"max {result.max_latency_ns:6.0f} ns | declined {result.declined}"
        )
        machine.append(
            f"{args.distance} {args.p} {name} {result.mean_latency_ns:.4f} "
            f"{result.mean_latency_nontrivial_ns:.4f} {result.max_latency_ns:.1f}"
        )
    _emit(args, human, machine)
    return 0


def cmd_bandwidth(args: argparse.Namespace) -> int:
    """Decode-budget sweep (artifact experiment 12, paper Table 7)."""
    setup = DecodingSetup.build(args.distance, args.p)
    model = BandwidthModel(args.distance)
    budgets = list(range(args.budget_min, args.budget_max + 1, args.budget_step))
    human = [
        f"d={args.distance} p={args.p} shots={args.shots}",
        f"{'budget(ns)':>10} {'tx(ns)':>7} {'MBps':>8} {'LER':>12} {'timeouts':>8}",
    ]
    machine = []
    for budget in budgets:
        transmission = 1000 - budget
        decoder = make_decoder(
            "astrea-g",
            setup,
            weight_threshold=args.weight_threshold,
            budget_ns=float(budget),
        )
        result = run_memory_experiment(
            setup.experiment, decoder, args.shots, seed=args.seed
        )
        mbps = (
            float("inf")
            if transmission <= 0
            else model.bandwidth_for_transmission(transmission)
        )
        human.append(
            f"{budget:>10} {transmission:>7} {mbps:>8.0f} "
            f"{result.logical_error_rate:>12.3e} {result.timed_out:>8}"
        )
        machine.append(
            f"{args.distance} {args.p} {result.logical_error_rate:.6e} "
            f"{result.timed_out} {budget}"
        )
    _emit(args, human, machine)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Condensed headline-results report (see experiments.report)."""
    from .experiments.report import run_headline_report

    report = run_headline_report(
        distance=args.distance,
        physical_error_rate=args.p,
        shots=args.shots,
        seed=args.seed,
    )
    machine = [
        f"{args.distance} {args.p} {name} {run.errors} "
        f"{run.logical_error_rate:.6e}"
        for name, run in report.runs.items()
    ]
    _emit(args, report.lines, machine)
    return 0 if (report.astrea_matches_mwpm and report.realtime_ok) else 1


def cmd_compress(args: argparse.Namespace) -> int:
    """Syndrome-compression census (section 7.6)."""
    from .hw.compression import (
        RunLengthCompressor,
        SparseIndexCompressor,
        compression_census,
    )

    setup = DecodingSetup.build(args.distance, args.p)
    length = setup.experiment.num_detectors
    human = [f"d={args.distance} p={args.p} shots={args.shots} bits={length}"]
    machine = []
    for name, codec in (
        ("sparse-index", SparseIndexCompressor(length)),
        ("run-length", RunLengthCompressor(length)),
    ):
        report = compression_census(
            setup.experiment, codec, args.shots, seed=args.seed
        )
        human.append(
            f"{name:>13}: mean {report.mean_bits:7.1f} bits, "
            f"max {report.max_bits}, ratio {report.mean_ratio:.1f}x"
        )
        machine.append(
            f"{args.distance} {args.p} {name} {report.mean_bits:.3f} "
            f"{report.max_bits} {report.mean_ratio:.3f}"
        )
    _emit(args, human, machine)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    """Threshold estimation as the d-small/d-large LER crossing."""
    from .analysis.threshold import estimate_crossing, log_spaced

    estimate = estimate_crossing(
        args.d_small,
        args.d_large,
        lambda setup: make_decoder(args.decoder, setup),
        grid=log_spaced(args.p_min, args.p_max, args.points),
        shots=args.shots,
        seed=args.seed,
    )
    human = [
        f"decoder={args.decoder} d={args.d_small} vs d={args.d_large}",
        f"{'p':>10} {'LER small':>11} {'LER large':>11}",
    ]
    for p, s, l in zip(estimate.grid, estimate.ler_small, estimate.ler_large):
        human.append(f"{p:>10.3e} {s:>11.3e} {l:>11.3e}")
    human.append(
        f"threshold: {estimate.crossing:.3e}"
        if estimate.found
        else "threshold: not bracketed by the grid"
    )
    machine = [
        f"{args.d_small} {args.d_large} {args.decoder} "
        f"{estimate.crossing if estimate.found else 'nan'}"
    ]
    _emit(args, human, machine)
    return 0


def cmd_stratified(args: argparse.Namespace) -> int:
    """Appendix-A stratified LER estimate (Eq. 3)."""
    setup = DecodingSetup.build(args.distance, args.p)
    decoder = make_decoder(
        args.decoder, setup, weight_threshold=args.weight_threshold
    )
    estimate = estimate_ler_stratified(
        setup.dem,
        decoder,
        max_faults=args.max_faults,
        trials_per_stratum=args.trials,
        seed=args.seed,
    )
    human = [
        f"d={args.distance} p={args.p} decoder={args.decoder} "
        f"trials/stratum={args.trials}",
        f"stratified LER : {estimate.logical_error_rate:.3e}",
        f"mean faults    : {estimate.mean_faults:.3f}",
    ]
    for k in sorted(estimate.failure):
        human.append(
            f"  k={k:2d}  P_occ {estimate.occurrence[k]:.3e}  "
            f"P_fail {estimate.failure[k]:.3e}"
        )
    machine = [
        f"{args.distance} {args.p} {args.decoder} "
        f"{estimate.logical_error_rate:.6e}"
    ]
    _emit(args, human, machine)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _common(sub: argparse.ArgumentParser, *, shots: int = 10_000) -> None:
    sub.add_argument("--distance", "-d", type=int, default=5, help="code distance")
    sub.add_argument("--p", type=float, default=1e-3, help="physical error rate")
    sub.add_argument("--shots", type=int, default=shots, help="Monte-Carlo trials")
    sub.add_argument("--seed", type=int, default=2023, help="PRNG seed")
    sub.add_argument("--output", "-o", help="append machine-readable rows here")
    sub.add_argument(
        "--weight-threshold",
        type=float,
        default=7.0,
        help="Astrea-G weight threshold W_th",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Astrea (ISCA 2023) reproduction experiment runner",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    handlers: dict[str, Callable[[argparse.Namespace], int]] = {}

    def register(name, handler, help_text, **kwargs):
        sub = subparsers.add_parser(name, help=help_text)
        _common(sub, **kwargs)
        handlers[name] = handler
        return sub

    register("info", cmd_info, "code resources and storage (Tables 1/6)")
    register("census", cmd_census, "Hamming-weight census (Tables 2/5)", shots=100_000)
    ler = register("ler", cmd_ler, "logical error rate of one decoder")
    ler.add_argument("--decoder", choices=DECODER_NAMES, default="astrea")
    sweep = register("sweep", cmd_sweep, "LER sweep over p (Figures 12/14)")
    sweep.add_argument("--decoder", choices=DECODER_NAMES, default="astrea-g")
    sweep.add_argument("--p-min", type=float, default=5e-4)
    sweep.add_argument("--p-max", type=float, default=2e-3)
    sweep.add_argument("--points", type=int, default=4)
    campaign = register(
        "campaign",
        cmd_campaign,
        "supervised campaign with checkpoint/resume",
        shots=50_000,
    )
    campaign.add_argument("--decoder", choices=DECODER_NAMES, default="astrea")
    campaign.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    campaign.add_argument(
        "--chunks-per-worker",
        type=int,
        default=2,
        help="chunks per worker (finer checkpoints, cheaper retries)",
    )
    campaign.add_argument(
        "--block-shots",
        type=int,
        default=4096,
        help="shots per sampling block (fixes the RNG contract)",
    )
    campaign.add_argument(
        "--checkpoint-dir", help="directory for chunk checkpoints"
    )
    campaign.add_argument(
        "--artifact-dir",
        help="artifact-store root workers warm-start the decoding stack "
        "from (default: $REPRO_ARTIFACT_DIR when set)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip chunks already checkpointed by an identical campaign",
    )
    campaign.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="supervised retries per chunk before the serial fallback",
    )
    campaign.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="seconds before a running chunk is declared hung",
    )
    serve = register(
        "serve",
        cmd_serve,
        "streaming decode service under generated load",
    )
    serve.add_argument(
        "--streams", type=int, default=4, help="concurrent stream sessions"
    )
    serve.add_argument(
        "--episodes", type=int, default=8, help="episodes fed per stream"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="warm worker processes"
    )
    serve.add_argument(
        "--window", type=int, default=3, help="sliding-window span (layers)"
    )
    serve.add_argument(
        "--commit", type=int, default=1, help="layers committed per step"
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="seconds to wait for cross-stream batching",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        help="per-batch solve deadline in seconds",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="solve retries before the in-process serial fallback",
    )
    serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.02,
        help="base seconds of the exponential retry backoff",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="buffered uncommitted rounds per stream before backpressure",
    )
    serve.add_argument(
        "--degrade-tier",
        choices=(*decoder_registry.decoder_names("service-tier"), "none"),
        default="union-find",
        help="tier overloaded streams shed onto ('none' disables)",
    )
    serve.add_argument(
        "--burst-streams",
        type=int,
        default=0,
        help="streams driven with the tightest queue bound (overload)",
    )
    serve.add_argument(
        "--inject-crash",
        type=int,
        action="append",
        default=[],
        metavar="BATCH",
        help="hard-crash the worker solving this batch id (repeatable)",
    )
    serve.add_argument(
        "--inject-hang",
        type=int,
        action="append",
        default=[],
        metavar="BATCH",
        help="hang the worker solving this batch id (repeatable)",
    )
    serve.add_argument(
        "--json", help="write the full load report as JSON here"
    )
    register("latency", cmd_latency, "real-time latency profile (Figure 9)")
    bandwidth = register(
        "bandwidth", cmd_bandwidth, "decode-budget sweep (Table 7)", shots=5_000
    )
    bandwidth.add_argument("--budget-min", type=int, default=500)
    bandwidth.add_argument("--budget-max", type=int, default=1000)
    bandwidth.add_argument("--budget-step", type=int, default=100)
    stratified = register(
        "stratified", cmd_stratified, "Appendix-A stratified LER (Table 9)"
    )
    stratified.add_argument("--decoder", choices=DECODER_NAMES, default="mwpm")
    stratified.add_argument("--max-faults", type=int, default=8)
    stratified.add_argument("--trials", type=int, default=500)
    register(
        "report", cmd_report, "condensed headline-results report",
        shots=20_000,
    )
    register(
        "compress", cmd_compress, "syndrome-compression census (section 7.6)",
        shots=5_000,
    )
    threshold = register(
        "threshold", cmd_threshold, "threshold estimate (d-crossing)",
        shots=10_000,
    )
    threshold.add_argument("--decoder", choices=DECODER_NAMES, default="mwpm")
    threshold.add_argument("--d-small", type=int, default=3)
    threshold.add_argument("--d-large", type=int, default=5)
    threshold.add_argument("--p-min", type=float, default=2e-3)
    threshold.add_argument("--p-max", type=float, default=3e-2)
    threshold.add_argument("--points", type=int, default=5)

    parser.set_defaults(_handlers=handlers)
    return parser


#: Artifact experiment numbers (paper Appendix B.6) -> our subcommands.
#: The artifact runs ``./astrea <output-file> <experiment-no> <args...>``;
#: experiment 1 is the LER sweep, 6 the Hamming census, 12 the bandwidth
#: sweep.  ``python -m repro artifact <out> <no> [args...]`` accepts the
#: same shape.
ARTIFACT_EXPERIMENTS = {1: "sweep", 6: "census", 12: "bandwidth"}


def _translate_artifact(argv: Sequence[str]) -> list[str]:
    """Rewrite an artifact-style invocation into subcommand arguments."""
    if len(argv) < 3:
        raise SystemExit(
            "usage: repro artifact <output-file> <experiment-no> [distance] [p]"
        )
    output, number = argv[1], int(argv[2])
    if number not in ARTIFACT_EXPERIMENTS:
        raise SystemExit(
            f"unknown artifact experiment {number}; "
            f"supported: {sorted(ARTIFACT_EXPERIMENTS)}"
        )
    translated = [ARTIFACT_EXPERIMENTS[number], "--output", output]
    rest = list(argv[3:])
    if rest:
        translated += ["--distance", rest[0]]
    if len(rest) > 1 and ARTIFACT_EXPERIMENTS[number] != "sweep":
        translated += ["--p", rest[1]]
    return translated


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "artifact":
        argv = _translate_artifact(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args._handlers[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
