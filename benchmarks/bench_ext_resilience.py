"""Extension bench: supervision overhead and fault-recovery cost.

The supervised runner (``repro.experiments.resilient``) wraps the parallel
Monte-Carlo pipeline in per-chunk process supervision, checkpointing and
retry.  That safety must be close to free when nothing goes wrong --
otherwise nobody runs long campaigns under it and the resilience is
theoretical.  This bench measures, at d = 5, p = 1e-3:

1. **Overhead** -- wall-clock of the supervised runner vs the unsupervised
   runner on an identical in-process campaign (``workers=1``, where both
   runners execute the same chunks in the same process and the only
   difference is the supervision machinery).  Gate: < 5% overhead,
   asserted only at full trial scale (REPRO_TRIALS >= 1).  The
   multiprocess comparison is also reported, but informationally: with
   ``workers`` processes time-sliced over however many cores the machine
   happens to have, its A/B delta measures the OS scheduler, not the
   supervisor.
2. **Checkpoint cost** -- the same supervised campaign writing verified
   chunk checkpoints, and the cost of resuming it (all chunks verified
   and skipped, only the decode phase re-runs).
3. **Recovery cost** -- the campaign with two injected worker crashes and
   one injected hang, which must still produce the bit-identical result.

Every configuration is checked bit-identical to the unsupervised baseline
(deterministic: block-seeded sampling + ``measure_time=False``), and a
JSON record is appended to ``benchmarks/results/ext_resilience.json``.
"""

import json
import os
import time

from repro.experiments.parallel import run_memory_experiment_parallel
from repro.experiments.resilient import run_memory_experiment_resilient
from repro.experiments.setup import DecodingSetup
from repro.service import RetryPolicy
from repro.testing.faults import FaultInjector

from _util import RESULTS_DIR, build_decoder, emit, seed, trials

DISTANCE = 5
P = 1e-3
WORKERS = 2

#: Supervision overhead gate vs the unsupervised runner (full scale only).
OVERHEAD_GATE = 0.05


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; report the best (min) wall-clock.

    The overhead gate compares two ~1 s campaigns, where single-run noise
    on a shared machine exceeds the 5% threshold; min-of-N isolates the
    intrinsic cost from transient load.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_ext_resilience(tmp_path):
    setup = DecodingSetup.build(DISTANCE, P)
    shots = trials(300_000)
    # Keep >= 8 blocks (so all 4 chunks exist) at any REPRO_TRIALS scale.
    block_shots = max(64, shots // 8)
    base_seed = seed(90)
    kwargs = dict(
        seed=base_seed, workers=WORKERS, chunks_per_worker=2,
        block_shots=block_shots,
    )
    # In-process variant: same chunk partition and samples (the census
    # depends only on shots/seed/block_shots), no process scheduling.
    serial_kwargs = dict(kwargs, workers=1, chunks_per_worker=2 * WORKERS)

    # A fresh decoder per timed configuration: the sparse engine's cluster
    # cache grows as it decodes, and pickling a warmed cache to workers
    # would penalise whichever configuration runs later.
    def fresh_decoder():
        return build_decoder("mwpm", setup)

    # Untimed warm-up: fork-pool spawn, import and allocator effects land
    # here, not on whichever timed configuration happens to run first.
    run_memory_experiment_parallel(
        setup.experiment, fresh_decoder(), shots, **kwargs
    )

    # Gated pair -- paired A/B rounds.  Each round times the two runners
    # back-to-back and contributes one overhead *ratio*; the gate takes
    # the min ratio over rounds.  Background load on a shared machine
    # inflates both halves of a round roughly alike and cancels in the
    # ratio, where unpaired min-of-N times would not cancel load that
    # spans all of one runner's repeats.  Both sides run in-process, so
    # the surviving delta is the supervision machinery alone.
    t_base = t_sup = ratio = float("inf")
    baseline = supervised = None
    for _ in range(5):
        baseline, round_base = _timed(
            lambda: run_memory_experiment_parallel(
                setup.experiment, fresh_decoder(), shots, **serial_kwargs
            )
        )
        supervised, round_sup = _timed(
            lambda: run_memory_experiment_resilient(
                setup.experiment, fresh_decoder(), shots, **serial_kwargs
            )
        )
        if round_sup / round_base < ratio:
            ratio = round_sup / round_base
            t_base, t_sup = round_base, round_sup
    assert supervised.result == baseline

    # Multiprocess pair (informational): scheduler-dependent on small
    # machines, so reported but never gated.
    mp_base, t_mp_base = _timed(
        lambda: run_memory_experiment_parallel(
            setup.experiment, fresh_decoder(), shots, **kwargs
        )
    )
    assert mp_base == baseline
    mp_sup, t_mp_sup = _timed(
        lambda: run_memory_experiment_resilient(
            setup.experiment, fresh_decoder(), shots, **kwargs
        )
    )
    assert mp_sup.result == baseline

    ckpt_dir = tmp_path / "ckpt"
    checkpointed, t_ckpt = _timed(
        lambda: run_memory_experiment_resilient(
            setup.experiment, fresh_decoder(), shots,
            checkpoint_dir=ckpt_dir, **kwargs,
        )
    )
    assert checkpointed.result == baseline
    resumed, t_resume = _timed(
        lambda: run_memory_experiment_resilient(
            setup.experiment, fresh_decoder(), shots,
            checkpoint_dir=ckpt_dir, resume=True, **kwargs,
        )
    )
    assert resumed.result == baseline
    assert resumed.recovery.chunks_resumed == resumed.recovery.chunks_total

    injector = FaultInjector(
        crashes={("sample", 0): 1, ("decode", 1): 1},
        hangs={("sample", 2): 1},
        hang_seconds=60.0,
    )
    recovered, t_fault = _timed(
        lambda: run_memory_experiment_resilient(
            setup.experiment, fresh_decoder(), shots,
            fault_injector=injector, policy=RetryPolicy(timeout=2.0),
            **kwargs,
        )
    )
    assert recovered.result == baseline
    assert recovered.recovery.crashes == 2
    assert recovered.recovery.hangs == 1

    overhead = ratio - 1.0 if t_base > 0 else 0.0
    mp_overhead = (t_mp_sup - t_mp_base) / t_mp_base if t_mp_base > 0 else 0.0
    lines = [
        f"d={DISTANCE} p={P} shots={shots} workers={WORKERS} "
        f"block_shots={block_shots} cpus={os.cpu_count()}",
        f"{'configuration':<28} {'wall(s)':>8} {'vs base':>8}",
        f"{'unsupervised (in-process)':<28} {t_base:>8.2f} {'1.00x':>8}",
        f"{'supervised (in-process)':<28} {t_sup:>8.2f} "
        f"{t_sup / t_base:>7.2f}x",
        f"{'unsupervised parallel':<28} {t_mp_base:>8.2f} "
        f"{t_mp_base / t_base:>7.2f}x",
        f"{'supervised parallel':<28} {t_mp_sup:>8.2f} "
        f"{t_mp_sup / t_base:>7.2f}x",
        f"{'supervised + checkpoints':<28} {t_ckpt:>8.2f} "
        f"{t_ckpt / t_base:>7.2f}x",
        f"{'resume (all chunks cached)':<28} {t_resume:>8.2f} "
        f"{t_resume / t_base:>7.2f}x",
        f"{'2 crashes + 1 hang':<28} {t_fault:>8.2f} "
        f"{t_fault / t_base:>7.2f}x",
        f"supervision overhead: {overhead * 100:+.1f}% in-process (gate < "
        f"{OVERHEAD_GATE * 100:.0f}% at full scale), "
        f"{mp_overhead * 100:+.1f}% multiprocess (informational)",
        f"recovery stats under faults: {recovered.recovery.as_dict()}",
        "all supervised results bit-identical to the unsupervised baseline",
    ]
    emit("ext_resilience", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "bench": "ext_resilience",
        "distance": DISTANCE,
        "p": P,
        "shots": shots,
        "workers": WORKERS,
        "cpus": os.cpu_count(),
        "seconds": {
            "baseline": t_base,
            "supervised": t_sup,
            "baseline_parallel": t_mp_base,
            "supervised_parallel": t_mp_sup,
            "checkpointed": t_ckpt,
            "resumed": t_resume,
            "faulted": t_fault,
        },
        "overhead_fraction": overhead,
        "overhead_fraction_parallel": mp_overhead,
        "recovery": recovered.recovery.as_dict(),
        "bit_identical": True,
    }
    with open(RESULTS_DIR / "ext_resilience.json", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    full_scale = float(os.environ.get("REPRO_TRIALS", "1.0")) >= 1.0
    if full_scale:
        assert overhead < OVERHEAD_GATE, (
            f"supervision overhead {overhead * 100:.1f}% exceeds the "
            f"{OVERHEAD_GATE * 100:.0f}% gate"
        )
