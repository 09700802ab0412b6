"""Fault-tolerant supervised execution of Monte-Carlo campaigns.

The paper's accuracy claims rest on very long Monte-Carlo campaigns --
up to 10^8+ shots per (d, p) point -- and PRs 1-3 made multi-hour sweeps
the norm.  :func:`repro.experiments.parallel.run_memory_experiment_parallel`
distributes such a campaign over worker processes but dies with it: one
crashed worker, one OOM kill, or one corrupted result file throws away
everything.  This module wraps the same two-phase pipeline (sampling
census, deduplicated decode) in a supervision layer that survives partial
failure:

* **Addressable chunks.**  Work units are contiguous ranges of the
  block-seeded sampling blocks (``seed + k`` for block ``k``, the PR-2
  RNG contract), so a retried or resumed chunk reproduces a bit-identical
  census no matter when, where, or how often it runs.
* **Checkpoint/resume.**  Completed sampling chunks persist to a
  checkpoint directory via atomic write-rename with content checksums and
  a campaign manifest; ``resume=True`` verifies and skips completed
  chunks, and a corrupted or stale checkpoint is discarded (and counted)
  rather than trusted.
* **Supervised workers.**  Each chunk attempt runs in a disposable
  process under a supervisor that detects crashes (exit code without a
  result), reclaims hangs (per-chunk timeout), and retries with bounded
  exponential backoff.  A chunk that exhausts its retries -- or a
  campaign whose parallel failures keep repeating -- degrades to
  in-process serial execution instead of aborting.
* **Verified results.**  Every recovery path is exercised by the
  deterministic fault-injection harness (:mod:`repro.testing.faults`):
  under injected crashes, hangs and checkpoint corruption a campaign
  completes with results bit-identical to a fault-free run.

Decode-side failures are supervised the same way; in-decoder anomalies
additionally degrade to the dense reference path inside
:class:`~repro.decoders.mwpm.MWPMDecoder` (see
:class:`~repro.decoders.base.DecoderFallbackWarning`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..circuits.memory import MemoryExperiment
from ..decoders.base import DecodeResult, Decoder
from ..pipeline.fingerprint import experiment_fingerprint
from ..pipeline.handle import DecoderHandle
from ..service.supervisor import (
    SERIAL_DEGRADATION_THRESHOLD,
    RecoveryStats,
    RetryPolicy,
    supervised_map,
)
from .io import CorruptResultError, read_json_record, write_json_record
from .memory import MemoryRunResult, tally_decode_results
from .parallel import (
    DEFAULT_BLOCK_SHOTS,
    SyndromeCensus,
    _decode_chunk,
    _partition,
    _sample_census_chunk,
    merge_censuses,
)

__all__ = [
    "CheckpointStore",
    "RecoveryStats",
    "ResilientRunResult",
    "RetryPolicy",
    "SERIAL_DEGRADATION_THRESHOLD",
    "experiment_fingerprint",
    "make_resilient_runner",
    "run_memory_experiment_resilient",
]

#: Record-type tags of the checkpoint files.
MANIFEST_KIND = "campaign-manifest"
CHUNK_KIND = "census-chunk"


# The fingerprint moved to the pipeline layer (it now also addresses the
# content-addressed artifact store), and the supervision loop plus
# RecoveryStats/RetryPolicy moved to :mod:`repro.service.supervisor`
# (the streaming decode service shares them); all are re-exported here
# for compatibility.


@dataclass
class ResilientRunResult:
    """Outcome of a supervised campaign.

    Attributes:
        result: The merged memory-experiment result; bit-identical to the
            unsupervised runner's for the same ``(shots, seed,
            block_shots)`` whenever no chunk was dropped.
        recovery: What the supervisor did to get there.
    """

    result: MemoryRunResult
    recovery: RecoveryStats


# ----------------------------------------------------------------------
# Census (de)serialisation
# ----------------------------------------------------------------------


def _census_to_payload(census: SyndromeCensus, num_detectors: int) -> dict:
    """Encode a census as a JSON-ready payload (bit-packed hex rows)."""
    if len(census.counts):
        packed = np.packbits(
            census.syndromes.astype(np.uint8, copy=False), axis=1
        )
        rows = [bytes(row).hex() for row in packed]
    else:
        rows = []
    return {
        "num_detectors": int(num_detectors),
        "rows": rows,
        "counts": [int(c) for c in census.counts],
        "flips": [int(f) for f in census.flips],
    }


def _census_from_payload(payload: dict, path: Path) -> SyndromeCensus:
    """Decode a checkpointed census payload, validating its shape."""
    try:
        num_detectors = int(payload["num_detectors"])
        rows = payload["rows"]
        counts = np.asarray(payload["counts"], dtype=np.int64)
        flips = np.asarray(payload["flips"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptResultError(
            f"{path}: census payload is missing or malformed ({exc})"
        ) from exc
    if not isinstance(rows, list) or any(
        not isinstance(row, str) for row in rows
    ):
        raise CorruptResultError(
            f"{path}: census rows must be a list of hex strings"
        )
    if counts.ndim != 1 or flips.ndim != 1:
        raise CorruptResultError(
            f"{path}: census counts/flips must be flat arrays "
            f"(got ndim {counts.ndim} and {flips.ndim})"
        )
    if len(rows) != len(counts) or len(rows) != len(flips):
        raise CorruptResultError(
            f"{path}: census arrays disagree in length "
            f"({len(rows)} rows, {len(counts)} counts, {len(flips)} flips)"
        )
    row_bytes = (num_detectors + 7) // 8
    if len(rows) == 0:
        syndromes = np.zeros((0, num_detectors), dtype=bool)
    else:
        try:
            raw = bytearray()
            for row in rows:
                decoded = bytes.fromhex(row)
                if len(decoded) != row_bytes:
                    raise ValueError(
                        f"packed row holds {len(decoded)} bytes, "
                        f"expected {row_bytes}"
                    )
                raw += decoded
        except ValueError as exc:
            raise CorruptResultError(
                f"{path}: packed census row is garbled ({exc})"
            ) from exc
        packed = np.frombuffer(bytes(raw), dtype=np.uint8).reshape(
            len(rows), row_bytes
        )
        syndromes = np.unpackbits(packed, axis=1)[:, :num_detectors].astype(
            bool
        )
    if (counts < 0).any() or (flips < 0).any() or (flips > counts).any():
        raise CorruptResultError(
            f"{path}: census counts are inconsistent (negative or "
            "flips > counts)"
        )
    return SyndromeCensus(syndromes=syndromes, counts=counts, flips=flips)


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------


class CheckpointStore:
    """On-disk campaign checkpoints: one manifest plus one file per chunk.

    All writes are atomic (temp file + rename) and checksummed via
    :func:`repro.experiments.io.write_json_record`, so a crash mid-write
    never leaves a half-written checkpoint that a resume could trust.

    Args:
        directory: Checkpoint directory (created on demand).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        """Path of the campaign manifest."""
        return self.directory / "manifest.json"

    def chunk_path(self, index: int) -> Path:
        """Path of chunk ``index``'s checkpoint file."""
        return self.directory / f"chunk-{index:05d}.json"

    def prepare(self, params: dict, *, resume: bool) -> None:
        """Create or validate the campaign manifest.

        Args:
            params: Campaign identity -- everything the census depends on
                (shots, seed, block shots, chunk count, detector count).
            resume: Whether an existing manifest may be continued.

        Raises:
            ValueError: When resuming against a manifest whose parameters
                do not match (the checkpoints belong to a different
                campaign).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if resume and self.manifest_path.exists():
            try:
                existing = read_json_record(
                    self.manifest_path, kind=MANIFEST_KIND
                )
            except CorruptResultError:
                # A garbled manifest invalidates every checkpoint.
                for path in self.directory.glob("chunk-*.json"):
                    path.unlink()
                write_json_record(
                    self.manifest_path, params, kind=MANIFEST_KIND
                )
                return
            if existing != params:
                mismatched = sorted(
                    key
                    for key in set(existing) | set(params)
                    if existing.get(key) != params.get(key)
                )
                raise ValueError(
                    "checkpoint directory belongs to a different campaign: "
                    f"{self.directory} disagrees on {mismatched}; pass a "
                    "fresh --checkpoint-dir or rerun with the original "
                    "parameters"
                )
            return
        write_json_record(self.manifest_path, params, kind=MANIFEST_KIND)

    def load_chunk(
        self,
        index: int,
        expected_blocks: list[tuple[int, int]],
        *,
        fingerprint: str | None = None,
    ) -> SyndromeCensus:
        """Load and verify chunk ``index``'s checkpointed census.

        Args:
            index: Chunk index.
            expected_blocks: The (seed, shots) sampling blocks the chunk
                must cover under the current campaign parameters.
            fingerprint: When given, the :func:`experiment_fingerprint`
                the checkpoint must have been sampled under.

        Returns:
            The verified census.

        Raises:
            FileNotFoundError: When the chunk was never checkpointed.
            CorruptResultError: When the file fails checksum or shape
                validation, records different sampling blocks, or was
                sampled under a different experiment fingerprint.
        """
        path = self.chunk_path(index)
        payload = read_json_record(path, kind=CHUNK_KIND)
        if not isinstance(payload, dict):
            raise CorruptResultError(f"{path}: chunk payload is not a dict")
        recorded = [tuple(block) for block in payload.get("blocks", [])]
        if recorded != [tuple(block) for block in expected_blocks]:
            raise CorruptResultError(
                f"{path}: checkpoint covers different sampling blocks than "
                "the current campaign"
            )
        if fingerprint is not None and payload.get("experiment") != fingerprint:
            raise CorruptResultError(
                f"{path}: checkpoint was sampled under a different "
                "experiment (circuit/noise fingerprint mismatch)"
            )
        census = _census_from_payload(payload.get("census", {}), path)
        expected_shots = sum(shots for _seed, shots in expected_blocks)
        if census.shots != expected_shots:
            raise CorruptResultError(
                f"{path}: checkpoint summarises {census.shots} shots, "
                f"expected {expected_shots}"
            )
        return census

    def save_chunk(
        self,
        index: int,
        blocks: list[tuple[int, int]],
        census: SyndromeCensus,
        num_detectors: int,
        *,
        fingerprint: str | None = None,
    ) -> None:
        """Atomically checkpoint a completed chunk census."""
        payload = {
            "chunk": int(index),
            "blocks": [[int(s), int(n)] for s, n in blocks],
            "census": _census_to_payload(census, num_detectors),
        }
        if fingerprint is not None:
            payload["experiment"] = fingerprint
        write_json_record(self.chunk_path(index), payload, kind=CHUNK_KIND)


def _decode_chunk_tracked(payload) -> tuple[list[DecodeResult], int]:
    """Worker entry for the decode phase: results plus fallback delta.

    Decoder-internal degradations accumulate on ``fallback_events`` of
    the worker's pickled decoder copy, which dies with the process; each
    chunk therefore reports its own before/after delta so the supervisor
    can aggregate degradations across workers (and across chunks of the
    shared in-process decoder when ``workers=1``).
    """
    decoder, syndromes = payload
    if isinstance(decoder, DecoderHandle):
        # Materialise once (memoised per process) so the fallback counter
        # read below observes the same object that decodes.
        decoder = decoder.resolve()
        payload = (decoder, syndromes)
    before = decoder.fallback_events
    results = _decode_chunk(payload)
    after = decoder.fallback_events
    return results, after - before


# ----------------------------------------------------------------------
# The supervised campaign runner
# ----------------------------------------------------------------------


def run_memory_experiment_resilient(
    experiment: MemoryExperiment,
    decoder: Decoder | DecoderHandle,
    shots: int,
    *,
    seed: int = 0,
    workers: int = 2,
    chunks_per_worker: int = 1,
    block_shots: int = DEFAULT_BLOCK_SHOTS,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    policy: RetryPolicy = RetryPolicy(),
    fault_injector=None,
    allow_partial: bool = False,
) -> ResilientRunResult:
    """Run a memory experiment under supervision with checkpoint/resume.

    The sampling and decoding pipeline is the parallel runner's -- the
    same block-seeded blocks, chunk partition, census merge and
    deduplicated decode -- so for a given ``(shots, seed, block_shots)``
    the result is bit-identical to
    :func:`~repro.experiments.parallel.run_memory_experiment_parallel`
    (and independent of the worker/chunk split), no matter how many
    crashes, hangs, retries, resumes or corrupted checkpoints happened on
    the way.

    Args:
        experiment: The memory-experiment bundle (pickled to workers).
        decoder: The decoder under test (pickled to workers), or a
            :class:`~repro.pipeline.handle.DecoderHandle` recipe that each
            worker materialises itself -- warm-starting from the handle's
            artifact store, with bit-identical results (retried chunks
            included).
        shots: Total Monte-Carlo trials across all blocks.
        seed: Base seed; sampling block ``k`` runs with ``seed + k``.
        workers: Worker processes (1 supervises in-process: retries still
            apply, crash/hang isolation does not).
        chunks_per_worker: Chunks per worker (more chunks mean finer
            checkpoints and cheaper retries).
        block_shots: Shots per sampling block (fixes the sample multiset
            independently of the worker/chunk split).
        checkpoint_dir: Directory for the campaign manifest and per-chunk
            checkpoints; None disables checkpointing.
        resume: Skip chunks already checkpointed by a previous run with
            identical campaign parameters (requires ``checkpoint_dir``).
        policy: The :class:`~repro.service.supervisor.RetryPolicy` (the
            same object the streaming decode service is configured with):
            supervised retries per chunk before degrading to the
            in-process serial fallback, their exponential backoff, and
            the per-chunk hang timeout.
        fault_injector: Optional deterministic
            :class:`~repro.testing.faults.FaultInjector` (used by tests,
            the resilience bench and the CI smoke job).
        allow_partial: Tolerate chunks that fail even the serial fallback
            by dropping them (surfaced via ``dropped_chunks``) instead of
            raising.

    Returns:
        The :class:`ResilientRunResult` bundling the merged
        :class:`~repro.experiments.memory.MemoryRunResult` with the
        supervisor's :class:`RecoveryStats`.

    Raises:
        ValueError: On invalid arguments, or on resuming against a
            checkpoint directory of a different campaign.
        RuntimeError: When a chunk fails terminally and ``allow_partial``
            is False.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if block_shots < 1:
        raise ValueError("block_shots must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    stats = RecoveryStats()
    if shots == 0:
        return ResilientRunResult(
            result=MemoryRunResult(decoder_name=decoder.name, shots=0, errors=0),
            recovery=stats,
        )

    blocks = []
    remaining = shots
    k = 0
    while remaining > 0:
        size = min(block_shots, remaining)
        blocks.append((seed + k, size))
        remaining -= size
        k += 1
    num_chunks = max(1, workers * chunks_per_worker)
    chunk_blocks = [
        blocks[start:stop]
        for start, stop in _partition(len(blocks), num_chunks)
        if stop > start
    ]
    stats.chunks_total = len(chunk_blocks)
    num_detectors = experiment.num_detectors

    store: CheckpointStore | None = None
    censuses: list[SyndromeCensus | None] = [None] * len(chunk_blocks)
    fingerprint = experiment_fingerprint(experiment)
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        noise = experiment.noise
        params = {
            # Sampling-schedule identity.
            "shots": int(shots),
            "seed": int(seed),
            "block_shots": int(block_shots),
            "num_chunks": len(chunk_blocks),
            "num_detectors": int(num_detectors),
            # Experiment identity: the census also depends on what was
            # sampled, not just how the shots were scheduled.  A resume at
            # a different p/basis/rounds/noise model must be rejected, not
            # silently reuse censuses sampled under the wrong circuit.
            "distance": int(experiment.code.distance),
            "basis": experiment.basis,
            "rounds": int(experiment.rounds),
            "noise": {
                "data_depolarization": noise.data_depolarization,
                "gate2_depolarization": noise.gate2_depolarization,
                "gate1_depolarization": noise.gate1_depolarization,
                "measurement_flip": noise.measurement_flip,
                "reset_flip": noise.reset_flip,
            },
            "experiment": fingerprint,
        }
        store.prepare(params, resume=resume)
        if resume:
            for index, chunk in enumerate(chunk_blocks):
                try:
                    censuses[index] = store.load_chunk(
                        index, chunk, fingerprint=fingerprint
                    )
                except FileNotFoundError:
                    continue
                except CorruptResultError:
                    stats.corrupted_checkpoints += 1
                    store.chunk_path(index).unlink(missing_ok=True)
                    continue
            stats.chunks_resumed = sum(
                1 for census in censuses if census is not None
            )

    def checkpoint(index: int, census: SyndromeCensus) -> None:
        if store is not None:
            store.save_chunk(
                index,
                chunk_blocks[index],
                census,
                num_detectors,
                fingerprint=fingerprint,
            )

    sample_payloads = [
        (index, (experiment, chunk))
        for index, chunk in enumerate(chunk_blocks)
        if censuses[index] is None
    ]
    if sample_payloads:
        sampled = supervised_map(
            _sample_census_chunk,
            sample_payloads,
            phase="sample",
            workers=workers,
            policy=policy,
            injector=fault_injector,
            stats=stats,
            allow_drop=allow_partial,
            on_success=checkpoint,
        )
        for index, census in sampled.items():
            censuses[index] = census
    census = merge_censuses(censuses)

    unique = census.syndromes
    decode_payloads = [
        (index, (decoder, unique[start:stop]))
        for index, (start, stop) in enumerate(_partition(len(unique), num_chunks))
        if stop > start
    ]
    decoded = supervised_map(
        _decode_chunk_tracked,
        decode_payloads,
        phase="decode",
        workers=workers,
        policy=policy,
        injector=fault_injector,
        stats=stats,
        allow_drop=False,
    )
    results: list[DecodeResult] = [
        r
        for index in sorted(decoded)
        for r in decoded[index][0]
    ]

    effective_shots = census.shots
    tally = tally_decode_results(unique, census.counts, census.flips, results)
    stats.dropped_chunks = max(stats.dropped_chunks, census.dropped)
    stats.decoder_fallbacks = sum(
        delta for _chunk_results, delta in decoded.values()
    )
    result = MemoryRunResult(
        decoder_name=decoder.name,
        shots=effective_shots,
        errors=tally.errors,
        declined=tally.declined,
        timed_out=tally.timed_out,
        mean_latency_ns=(
            tally.latency_sum / effective_shots if effective_shots else 0.0
        ),
        max_latency_ns=tally.latency_max,
        mean_latency_nontrivial_ns=(
            tally.nontrivial_latency_sum / tally.nontrivial_shots
            if tally.nontrivial_shots
            else 0.0
        ),
        nontrivial_shots=tally.nontrivial_shots,
        unique_syndromes=len(unique),
        dropped_chunks=census.dropped,
    )
    return ResilientRunResult(result=result, recovery=stats)


def make_resilient_runner(
    checkpoint_root: str | Path | None = None,
    *,
    workers: int = 2,
    chunks_per_worker: int = 1,
    block_shots: int = DEFAULT_BLOCK_SHOTS,
    resume: bool = False,
    policy: RetryPolicy = RetryPolicy(),
    fault_injector=None,
    allow_partial: bool = False,
    recovery_log: list[RecoveryStats] | None = None,
) -> Callable[..., MemoryRunResult]:
    """Adapt the supervised runner to the sweep drivers' ``runner`` seam.

    The returned callable has :func:`run_memory_experiment`'s calling
    convention (``runner(experiment, decoder, shots, seed=...)``), so it
    drops into :func:`~repro.experiments.sweep.ler_vs_physical_error` and
    :func:`~repro.experiments.sweep.ler_vs_distance` unchanged.  Each
    sweep point checkpoints into its own subdirectory of
    ``checkpoint_root`` keyed by the point's full identity -- distance,
    basis and a prefix of the :func:`experiment_fingerprint` (which pins
    the physical error rate, rounds and noise model) plus the seed -- so
    two sweeps sharing a root and base seed (e.g. the same distance over
    two different ``p`` lists) land in distinct directories, and a killed
    multi-point campaign resumes per point.

    Args:
        checkpoint_root: Root directory for per-point checkpoint
            subdirectories (None disables checkpointing).
        workers: Worker processes per point.
        chunks_per_worker: Chunks per worker.
        block_shots: Shots per sampling block.
        resume: Skip chunks already checkpointed for a point.
        policy: Per-chunk retry/backoff/timeout policy.
        fault_injector: Optional deterministic fault injector.
        allow_partial: Drop terminally failed chunks instead of raising.
        recovery_log: When given, each point's :class:`RecoveryStats` is
            appended here (the sweep API only carries the result).

    Returns:
        The runner callable yielding plain
        :class:`~repro.experiments.memory.MemoryRunResult` values.
    """

    def run(
        experiment: MemoryExperiment,
        decoder: Decoder,
        shots: int,
        *,
        seed: int = 0,
        **_ignored,
    ) -> MemoryRunResult:
        if checkpoint_root is not None:
            point_key = (
                f"d{experiment.code.distance}-{experiment.basis}-"
                f"{experiment_fingerprint(experiment)[:12]}-"
                f"seed-{seed:08d}"
            )
            checkpoint_dir = Path(checkpoint_root) / point_key
        else:
            checkpoint_dir = None
        outcome = run_memory_experiment_resilient(
            experiment,
            decoder,
            shots,
            seed=seed,
            workers=workers,
            chunks_per_worker=chunks_per_worker,
            block_shots=block_shots,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            policy=policy,
            fault_injector=fault_injector,
            allow_partial=allow_partial,
        )
        if recovery_log is not None:
            recovery_log.append(outcome.recovery)
        return outcome.result

    return run
