"""Tests for the supervised (fault-tolerant) experiment runner.

The contract under test: for a given ``(shots, seed, block_shots)`` the
supervised runner's result is bit-identical to the unsupervised parallel
runner's -- through crashes, hangs, worker errors, retries, corrupted
checkpoints, and kill-and-resume.  Latency fields are wall-clock in most
decoders, so these tests use ``MWPMDecoder(measure_time=False)``, whose
result (latencies included) is a deterministic function of the samples.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.decoders.base import DecodeResult, Decoder, DecoderFallbackWarning
from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.io import CorruptResultError
from repro.experiments.parallel import (
    SyndromeCensus,
    merge_censuses,
    run_memory_experiment_parallel,
)
from repro.experiments.resilient import (
    CheckpointStore,
    experiment_fingerprint,
    make_resilient_runner,
    run_memory_experiment_resilient,
)
from repro.experiments.sweep import ler_vs_distance
from repro.service import RetryPolicy
from repro.testing.faults import FaultInjector, InjectedWorkerError, corrupt_file

SHOTS = 3000
SEED = 7
BLOCK = 512


class _CountingDecoder(Decoder):
    """Picklable decoder that marks every decode as a fallback event.

    Stands in for a sparse-engine degradation: ``fallback_events``
    accumulates on whichever process copy runs ``decode_batch``, so a
    parallel campaign only sees the counts its workers report back.
    """

    name = "counting"

    def __init__(self) -> None:
        self.fallback_events = 0

    def decode_active(self, active):
        self.fallback_events += 1
        return DecodeResult(prediction=False)


@pytest.fixture(scope="module")
def decoder(setup_d3):
    return MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)


@pytest.fixture(scope="module")
def baseline(setup_d3, decoder):
    """The unsupervised parallel result every supervised run must equal."""
    return run_memory_experiment_parallel(
        setup_d3.experiment, decoder, SHOTS, seed=SEED, workers=2,
        block_shots=BLOCK,
    )


def _run(setup, decoder, **kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("block_shots", BLOCK)
    return run_memory_experiment_resilient(
        setup.experiment, decoder, SHOTS, **kwargs
    )


class TestFaultFree:
    def test_parallel_matches_baseline(self, setup_d3, decoder, baseline):
        outcome = _run(setup_d3, decoder, workers=2)
        assert outcome.result == baseline
        assert outcome.recovery.retries == 0

    def test_in_process_matches_baseline(self, setup_d3, decoder, baseline):
        outcome = _run(setup_d3, decoder, workers=1)
        assert outcome.result == baseline

    def test_chunk_split_invariance(self, setup_d3, decoder, baseline):
        outcome = _run(setup_d3, decoder, workers=2, chunks_per_worker=3)
        assert outcome.result == baseline

    def test_zero_shots(self, setup_d3, decoder):
        outcome = run_memory_experiment_resilient(
            setup_d3.experiment, decoder, 0
        )
        assert outcome.result.shots == 0

    def test_argument_validation(self, setup_d3, decoder):
        with pytest.raises(ValueError):
            run_memory_experiment_resilient(
                setup_d3.experiment, decoder, -1
            )
        with pytest.raises(ValueError):
            run_memory_experiment_resilient(
                setup_d3.experiment, decoder, 10, workers=0
            )
        with pytest.raises(ValueError, match="resume"):
            run_memory_experiment_resilient(
                setup_d3.experiment, decoder, 10, resume=True
            )


class TestInjectedFaults:
    def test_worker_crash_recovers_bit_identical(
        self, setup_d3, decoder, baseline
    ):
        injector = FaultInjector(crashes={("sample", 0): 1, ("decode", 1): 1})
        outcome = _run(
            setup_d3, decoder, workers=2, fault_injector=injector,
        )
        assert outcome.result == baseline
        assert outcome.recovery.crashes == 2
        assert outcome.recovery.retries == 2

    def test_worker_hang_reclaimed_bit_identical(
        self, setup_d3, decoder, baseline
    ):
        injector = FaultInjector(hangs={("sample", 1): 1}, hang_seconds=60.0)
        outcome = _run(
            setup_d3, decoder, workers=2, fault_injector=injector,
            policy=RetryPolicy(timeout=1.0),
        )
        assert outcome.result == baseline
        assert outcome.recovery.hangs == 1

    def test_worker_error_retried_bit_identical(
        self, setup_d3, decoder, baseline
    ):
        injector = FaultInjector(errors={("sample", 0): 2})
        outcome = _run(
            setup_d3, decoder, workers=2, fault_injector=injector,
        )
        assert outcome.result == baseline
        assert outcome.recovery.worker_errors == 2

    def test_in_process_retry(self, setup_d3, decoder, baseline):
        injector = FaultInjector(errors={("sample", 0): 2, ("decode", 0): 1})
        outcome = _run(
            setup_d3, decoder, workers=1, fault_injector=injector,
        )
        assert outcome.result == baseline
        assert outcome.recovery.worker_errors == 3
        assert outcome.recovery.retries == 3

    def test_serial_fallback_after_exhausted_retries(
        self, setup_d3, decoder, baseline
    ):
        # Crash every parallel attempt (0..max_retries); the serial
        # fallback's first attempt is past the armed window and succeeds.
        injector = FaultInjector(crashes={("sample", 0): 2})
        outcome = _run(
            setup_d3, decoder, workers=2, fault_injector=injector,
            policy=RetryPolicy(max_retries=1),
        )
        assert outcome.result == baseline
        assert outcome.recovery.serial_fallbacks == 1

    def test_terminal_failure_raises_without_allow_partial(
        self, setup_d3, decoder
    ):
        injector = FaultInjector(errors={("sample", 0): 99})
        with pytest.raises(RuntimeError, match="chunk 0"):
            _run(
                setup_d3, decoder, workers=1, fault_injector=injector,
                policy=RetryPolicy(max_retries=1),
            )

    def test_allow_partial_drops_and_reports(self, setup_d3, decoder, baseline):
        injector = FaultInjector(errors={("sample", 0): 99})
        outcome = _run(
            setup_d3, decoder, workers=1, chunks_per_worker=4,
            fault_injector=injector, policy=RetryPolicy(max_retries=0),
            allow_partial=True,
        )
        assert outcome.recovery.dropped_chunks == 1
        assert outcome.result.dropped_chunks == 1
        assert 0 < outcome.result.shots < baseline.shots


class TestCheckpointResume:
    def test_checkpoints_written_and_resumed(
        self, setup_d3, decoder, baseline, tmp_path
    ):
        first = _run(
            setup_d3, decoder, workers=2, chunks_per_worker=2,
            checkpoint_dir=tmp_path,
        )
        assert first.result == baseline
        files = sorted(p.name for p in tmp_path.glob("chunk-*.json"))
        assert files == [f"chunk-{i:05d}.json" for i in range(4)]
        second = _run(
            setup_d3, decoder, workers=2, chunks_per_worker=2,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert second.result == baseline
        assert second.recovery.chunks_resumed == 4

    @pytest.mark.parametrize("mode", ["truncate", "garble", "stale-checksum"])
    def test_corrupted_checkpoint_discarded_and_rerun(
        self, setup_d3, decoder, baseline, tmp_path, mode
    ):
        _run(
            setup_d3, decoder, workers=1, chunks_per_worker=4,
            checkpoint_dir=tmp_path,
        )
        corrupt_file(tmp_path / "chunk-00002.json", mode)
        outcome = _run(
            setup_d3, decoder, workers=1, chunks_per_worker=4,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert outcome.result == baseline
        assert outcome.recovery.corrupted_checkpoints == 1
        assert outcome.recovery.chunks_resumed == 3

    def test_resume_rejects_different_campaign(
        self, setup_d3, decoder, tmp_path
    ):
        run_memory_experiment_resilient(
            setup_d3.experiment, decoder, 1024, seed=SEED,
            block_shots=BLOCK, workers=1, checkpoint_dir=tmp_path,
        )
        with pytest.raises(ValueError, match="different campaign"):
            run_memory_experiment_resilient(
                setup_d3.experiment, decoder, 2048, seed=SEED,
                block_shots=BLOCK, workers=1, checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_resume_rejects_different_noise_rate(
        self, setup_d3, decoder, tmp_path
    ):
        """Same (shots, seed, blocks) but different p is a different campaign."""
        from repro.experiments.setup import DecodingSetup

        run_memory_experiment_resilient(
            setup_d3.experiment, decoder, 1024, seed=SEED,
            block_shots=BLOCK, workers=1, checkpoint_dir=tmp_path,
        )
        other = DecodingSetup.build(3, 3e-3)
        other_decoder = MWPMDecoder(other.ideal_gwt, measure_time=False)
        with pytest.raises(ValueError, match="different campaign"):
            run_memory_experiment_resilient(
                other.experiment, other_decoder, 1024, seed=SEED,
                block_shots=BLOCK, workers=1, checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_fingerprint_pins_experiment_identity(self, setup_d3):
        from repro.experiments.setup import DecodingSetup

        same = DecodingSetup.build(3, 1e-3)
        other_p = DecodingSetup.build(3, 3e-3)
        other_basis = DecodingSetup.build(3, 1e-3, basis="x")
        reference = experiment_fingerprint(setup_d3.experiment)
        assert experiment_fingerprint(same.experiment) == reference
        assert experiment_fingerprint(other_p.experiment) != reference
        assert experiment_fingerprint(other_basis.experiment) != reference

    def test_checkpoint_rejects_wrong_fingerprint(self, tmp_path):
        import numpy as np

        census = SyndromeCensus(
            syndromes=np.zeros((1, 4), dtype=bool),
            counts=np.array([100], dtype=np.int64),
            flips=np.array([0], dtype=np.int64),
        )
        store = CheckpointStore(tmp_path)
        blocks = [(5, 100)]
        store.save_chunk(0, blocks, census, 4, fingerprint="aaa")
        loaded = store.load_chunk(0, blocks, fingerprint="aaa")
        assert loaded.shots == 100
        with pytest.raises(CorruptResultError, match="fingerprint"):
            store.load_chunk(0, blocks, fingerprint="bbb")
        # A legacy chunk without a recorded fingerprint is likewise stale
        # when the campaign expects one.
        store.save_chunk(1, blocks, census, 4)
        with pytest.raises(CorruptResultError, match="fingerprint"):
            store.load_chunk(1, blocks, fingerprint="aaa")

    @pytest.mark.parametrize(
        "census_payload",
        [
            {"num_detectors": 4, "rows": 7, "counts": [100], "flips": [0]},
            {"num_detectors": 4, "rows": [3], "counts": [100], "flips": [0]},
            {"num_detectors": 4, "rows": ["00"], "counts": 100, "flips": 0},
        ],
    )
    def test_malformed_census_fields_are_corrupt_not_crash(
        self, tmp_path, census_payload
    ):
        """Valid-JSON, valid-checksum garbage must raise CorruptResultError."""
        from repro.experiments.io import write_json_record
        from repro.experiments.resilient import CHUNK_KIND

        payload = {
            "chunk": 0,
            "blocks": [[5, 100]],
            "census": census_payload,
        }
        store = CheckpointStore(tmp_path)
        write_json_record(store.chunk_path(0), payload, kind=CHUNK_KIND)
        with pytest.raises(CorruptResultError):
            store.load_chunk(0, [(5, 100)])

    def test_checkpoint_round_trip_preserves_census(self, tmp_path):
        import numpy as np

        census = SyndromeCensus(
            syndromes=np.array(
                [[0] * 11, [1] + [0] * 10, [0] * 9 + [1, 1]], dtype=bool
            ),
            counts=np.array([90, 7, 3], dtype=np.int64),
            flips=np.array([0, 2, 3], dtype=np.int64),
        )
        store = CheckpointStore(tmp_path)
        blocks = [(5, 50), (6, 50)]
        store.save_chunk(0, blocks, census, 11)
        loaded = store.load_chunk(0, blocks)
        assert np.array_equal(loaded.syndromes, census.syndromes)
        assert np.array_equal(loaded.counts, census.counts)
        assert np.array_equal(loaded.flips, census.flips)

    def test_checkpoint_rejects_wrong_blocks(self, tmp_path):
        import numpy as np

        census = SyndromeCensus(
            syndromes=np.zeros((1, 4), dtype=bool),
            counts=np.array([100], dtype=np.int64),
            flips=np.array([0], dtype=np.int64),
        )
        store = CheckpointStore(tmp_path)
        store.save_chunk(0, [(5, 100)], census, 4)
        with pytest.raises(CorruptResultError, match="different sampling"):
            store.load_chunk(0, [(9, 100)])


class TestKilledMidCampaign:
    def test_resume_after_sigkill_is_bit_identical(
        self, setup_d3, decoder, baseline, tmp_path
    ):
        """A campaign SIGKILLed mid-run resumes to the identical result.

        The child campaign hangs forever on its last chunk (injected hang,
        no chunk timeout), so it checkpoints the other chunks and then
        sits; once checkpoints appear the parent kills the whole process
        tree mid-campaign and re-runs with ``resume=True``.
        """
        script = f"""
import sys
sys.path.insert(0, {repr(os.path.join(os.path.dirname(__file__), os.pardir, "src"))})
from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.setup import DecodingSetup
from repro.experiments.resilient import run_memory_experiment_resilient
from repro.service import RetryPolicy
from repro.testing.faults import FaultInjector

setup = DecodingSetup.build(3, 1e-3)
decoder = MWPMDecoder(setup.ideal_gwt, measure_time=False)
injector = FaultInjector(hangs={{("sample", 3): 99}}, hang_seconds=600.0)
run_memory_experiment_resilient(
    setup.experiment, decoder, {SHOTS}, seed={SEED}, block_shots={BLOCK},
    workers=2, chunks_per_worker=2, checkpoint_dir={repr(str(tmp_path))},
    fault_injector=injector, policy=RetryPolicy(max_retries=0),
)
"""
        child = subprocess.Popen(
            [sys.executable, "-c", script], start_new_session=True
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                done = len(list(tmp_path.glob("chunk-*.json")))
                if done >= 3:
                    break
                if child.poll() is not None:
                    pytest.fail(
                        "child campaign exited before it could be killed "
                        f"(rc={child.returncode})"
                    )
                time.sleep(0.05)
            else:
                pytest.fail("child campaign produced no checkpoints in time")
        finally:
            try:
                os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)

        resumed = _run(
            setup_d3, decoder, workers=2, chunks_per_worker=2,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.result == baseline
        assert resumed.recovery.chunks_resumed >= 3


class TestMergeToleratesNone:
    def test_merge_censuses_counts_dropped(self):
        import numpy as np

        part = SyndromeCensus(
            syndromes=np.zeros((1, 4), dtype=bool),
            counts=np.array([10], dtype=np.int64),
            flips=np.array([0], dtype=np.int64),
        )
        merged = merge_censuses([part, None, part, None])
        assert merged.dropped == 2
        assert merged.shots == 20

    def test_merge_censuses_all_failed(self):
        with pytest.raises(ValueError, match="all 2"):
            merge_censuses([None, None])

    def test_merge_results_counts_dropped(self):
        from repro.experiments.memory import MemoryRunResult
        from repro.experiments.parallel import merge_results

        part = MemoryRunResult(decoder_name="x", shots=100, errors=1)
        merged = merge_results([part, None, part])
        assert merged.dropped_chunks == 1
        assert merged.shots == 200
        assert merged.errors == 2

    def test_merge_results_all_failed(self):
        from repro.experiments.parallel import merge_results

        with pytest.raises(ValueError, match="all 3"):
            merge_results([None, None, None])


class TestSweepRunnerSeam:
    def test_resilient_runner_drops_into_sweep(
        self, setup_d3, decoder, tmp_path
    ):
        log = []
        runner = make_resilient_runner(
            tmp_path, workers=1, block_shots=BLOCK, recovery_log=log
        )
        points = ler_vs_distance(
            [3],
            1e-3,
            lambda setup: MWPMDecoder(setup.ideal_gwt, measure_time=False),
            2000,
            seed=11,
            runner=runner,
        )
        # The block-seeded contract: the sweep point must equal the
        # unsupervised parallel runner at the same (shots, seed, blocks).
        reference = run_memory_experiment_parallel(
            setup_d3.experiment, decoder, 2000, seed=11, workers=1,
            block_shots=BLOCK,
        )
        assert points[0].result == reference
        assert len(log) == 1 and log[0].chunks_total >= 1
        # Point directories are keyed by the full point identity
        # (distance, basis, experiment fingerprint, seed).
        dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(dirs) == 1
        assert dirs[0].name.startswith("d3-z-")
        assert dirs[0].name.endswith("seed-00000011")
        assert (dirs[0] / "manifest.json").exists()

    def test_runner_isolates_points_by_identity(self, tmp_path):
        """Same root + same seed + different p must not share checkpoints."""
        from repro.experiments.setup import DecodingSetup

        results = {}
        for p in (1e-3, 3e-3):
            setup = DecodingSetup.build(3, p)
            decoder = MWPMDecoder(setup.ideal_gwt, measure_time=False)
            runner = make_resilient_runner(
                tmp_path, workers=1, block_shots=BLOCK, resume=True
            )
            results[p] = runner(
                setup.experiment, decoder, 1024, seed=SEED
            )
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert len(dirs) == 2
        # Each point resumed only its own checkpoints: re-running the
        # first p reproduces its result bit-identically.
        setup = DecodingSetup.build(3, 1e-3)
        decoder = MWPMDecoder(setup.ideal_gwt, measure_time=False)
        runner = make_resilient_runner(
            tmp_path, workers=1, block_shots=BLOCK, resume=True
        )
        again = runner(setup.experiment, decoder, 1024, seed=SEED)
        assert again == results[1e-3]


class TestDecoderFallbackReporting:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fallbacks_counted_across_worker_processes(
        self, setup_d3, workers
    ):
        """Degradations in forked decode workers reach RecoveryStats.

        The worker's decoder copy (and its ``fallback_events`` counter)
        dies with the process; the supervisor must aggregate the deltas
        the workers report, not read its own pristine decoder copy.
        """
        decoder = _CountingDecoder()
        outcome = run_memory_experiment_resilient(
            setup_d3.experiment, decoder, SHOTS, seed=SEED,
            block_shots=BLOCK, workers=workers, chunks_per_worker=2,
        )
        assert outcome.result.unique_syndromes > 0
        assert (
            outcome.recovery.decoder_fallbacks
            == outcome.result.unique_syndromes
        )

    @pytest.mark.parametrize("name", ["mwpm", "cascade", "clique"])
    def test_wrapped_mwpm_degradations_reach_recovery_stats(self, name):
        """A cascade or Clique reports its inner MWPM's degradations.

        At d = 5, p = 5e-3 on the quantized table this census holds a
        syndrome the sparse engine cannot certify, so MWPM re-decodes it
        densely; the wrappers must surface that count, not hide it.
        """
        from repro.decoders.registry import make_decoder
        from repro.experiments.setup import DecodingSetup

        setup = DecodingSetup.build(5, 5e-3)
        decoder = make_decoder(name, setup, quantized=True)
        with pytest.warns(DecoderFallbackWarning):
            outcome = run_memory_experiment_resilient(
                setup.experiment, decoder, 20_000, seed=3, workers=1
            )
        assert outcome.recovery.decoder_fallbacks >= 1


class TestFaultInjectorSemantics:
    def test_armed_window_is_first_n_attempts(self):
        injector = FaultInjector(errors={("sample", 0): 2})
        with pytest.raises(InjectedWorkerError):
            injector.maybe_fault("sample", 0, 0, in_worker=False)
        with pytest.raises(InjectedWorkerError):
            injector.maybe_fault("sample", 0, 1, in_worker=False)
        injector.maybe_fault("sample", 0, 2, in_worker=False)
        injector.maybe_fault("decode", 0, 0, in_worker=False)
        injector.maybe_fault("sample", 1, 0, in_worker=False)
