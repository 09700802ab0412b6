"""Extension bench: decoder cascade vs always-terminal MWPM.

The :class:`repro.decoders.cascade.CascadeDecoder` runs each syndrome
through an ordered tier ladder: a vectorized closed-form front tier
absorbs the structurally local bulk of the census, the residual
escalates to the sparse cluster engine, and the engine's own anomaly path escalates
to the terminal rung of the ladder -- the dense exact-MWPM reference
tier (``EscalationPolicy(next_tier="dense")``).  Because every rung is
exact on the rows it accepts, the cascade is bit-identical to running
the terminal tier on every row -- the speedup is free of accuracy loss
by construction, and this bench asserts exactly that on every sampled
row at every trial scale.

The bench builds the cascade exactly as the end-to-end benchmark does
(``make_decoder("cascade", setup)``), decodes identical sampled batches
at d in {5, 7}, p = 1e-3 through three configurations -- the full
cascade, the sparse mid tier alone, and the always-terminal dense tier
-- and writes a JSON record to
``benchmarks/results/ext_cascade_d<d>.json``.  The perf gate is >= 2x
cascade-over-always-terminal mean decode throughput at d = 7 (asserted
only at full trial scale, where timing noise is negligible) with zero
prediction mismatches against either reference.  The cascade-over-
sparse-mid ratio is recorded unguarded: the sparse engine is itself a
tiered solver (closed forms -> vectorized search -> blossom), so the
front tier's marginal win over it is structurally small -- the ladder's
headline value is keeping the dense terminal off the hot path.
"""

import json
import time

import pytest

from repro.decoders.mwpm import MWPMDecoder
from repro.experiments.setup import DecodingSetup
from repro.sim.pauli_frame import PauliFrameSimulator

from _util import RESULTS_DIR, build_decoder, emit, seed, trials

P = 1e-3

#: Cascade-over-always-terminal speedup gate at d = 7 (full scale only).
SPEEDUP_GATE = 2.0

#: Timed rounds averaged for the cascade / sparse-mid passes.
ROUNDS = 3


def _shots_per_sec(decode, num_shots: int, rounds: int = 1) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        decode()
    elapsed = (time.perf_counter() - start) / rounds
    return num_shots / elapsed if elapsed > 0 else float("inf")


@pytest.mark.parametrize("distance", [5, 7])
def test_ext_cascade(distance, benchmark):
    setup = DecodingSetup.build(distance, P)
    shots = trials(20_000)
    sim = PauliFrameSimulator(setup.experiment.circuit, seed=seed(90 + distance))
    detectors = sim.sample(shots).detectors

    cascade = build_decoder("cascade", setup)
    sparse_mid = build_decoder("mwpm", setup)
    # The ladder's terminal rung on every row: the dense exact-MWPM
    # reference path, i.e. what the sparse engine's anomaly escalation
    # (EscalationPolicy next_tier="dense") falls back to.
    terminal = MWPMDecoder(
        setup.ideal_gwt, use_sparse=False, measure_time=False
    )

    # Zero-accuracy-loss gate before any timing: the cascade must
    # reproduce the terminal tier's prediction and weight on EVERY row,
    # at every trial scale (this is the structural-routing contract, not
    # a statistical property).  The sparse mid tier is held to the same
    # identity.
    cascade_check = cascade.decode_batch(detectors)
    mid_check = sparse_mid.decode_batch(detectors)
    terminal_check = terminal.decode_batch(detectors)
    mismatches = sum(
        1
        for c, t in zip(cascade_check, terminal_check)
        if c.prediction != t.prediction or abs(c.weight - t.weight) > 1e-6
    )
    mid_mismatches = sum(
        1
        for m, t in zip(mid_check, terminal_check)
        if m.prediction != t.prediction or abs(m.weight - t.weight) > 1e-6
    )
    assert mismatches == 0
    assert mid_mismatches == 0

    front = cascade.stats.tiers["closed-form"]
    local_fraction = front.solved / front.routed if front.routed else 0.0
    record = {
        "bench": "ext_cascade",
        "distance": distance,
        "p": P,
        "shots": shots,
        "prediction_mismatches": mismatches,
        "cascade_local_fraction": local_fraction,
        "cascade_escalation_rate": cascade.escalation_rate,
        "throughput_shots_per_sec": {},
    }

    def run():
        throughput = record["throughput_shots_per_sec"]
        throughput["always_terminal"] = _shots_per_sec(
            lambda: terminal.decode_batch(detectors), shots
        )
        throughput["sparse_mid"] = _shots_per_sec(
            lambda: sparse_mid.decode_batch(detectors), shots, rounds=ROUNDS
        )
        throughput["cascade"] = _shots_per_sec(
            lambda: cascade.decode_batch(detectors), shots, rounds=ROUNDS
        )
        return throughput

    throughput = benchmark.pedantic(run, rounds=1, iterations=1)
    record["cascade_speedup"] = (
        throughput["cascade"] / throughput["always_terminal"]
    )
    record["cascade_vs_sparse_mid"] = (
        throughput["cascade"] / throughput["sparse_mid"]
    )
    record["tier_stats"] = cascade.stats.as_dict()

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / f"ext_cascade_d{distance}.json"
    json_path.write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        f"d={distance}, p={P}, shots={shots}",
        f"always terminal     : "
        f"{throughput['always_terminal']:12.0f} shots/s",
        f"sparse mid tier     : {throughput['sparse_mid']:12.0f} shots/s",
        f"cascade             : {throughput['cascade']:12.0f} shots/s",
        f"cascade speedup     : {record['cascade_speedup']:.1f}x "
        f"over always-terminal "
        f"({record['cascade_vs_sparse_mid']:.2f}x over sparse mid)",
        f"front-tier solved   : {local_fraction:.2%} of routed rows",
        f"escalation rate     : {cascade.escalation_rate:.2%}",
        f"prediction mismatch : {mismatches} (mid: {mid_mismatches})",
    ]
    emit(f"ext_cascade_d{distance}", lines)

    assert throughput["cascade"] > 0
    # The >= 2x acceptance gate -- only meaningful at full trial counts
    # (tiny smoke batches are dominated by fixed per-call overheads).
    if distance == 7 and shots >= 20_000:
        assert record["cascade_speedup"] >= SPEEDUP_GATE
