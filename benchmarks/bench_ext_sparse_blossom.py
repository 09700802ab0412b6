"""Extension bench: graph-local sparse-blossom engine equivalence smoke.

Two independent MWPM stacks are built at d = 7: the full-precision
table stack (``dense_weights=True``, ideal all-pairs weight table, the
accuracy-experiment configuration) and the graph-only stack
(``dense_weights=False``, adjacency-only decoding graph, every syndrome
solved by the sparse-blossom engine's region growth on the graph).  Both
derive from the same detector error model, so exact MWPM must produce
identical matching weights (to float tolerance -- the table holds the
same Dijkstra distances the engine discovers during growth) and
identical logical predictions on every sampled shot.

This is the CI smoke for the sparse-blossom core: it proves the
table-free path is not an approximation, then records its throughput
twice: cold (a fresh engine grows each detector's region on first use)
and warm (a second pass over the same shots, with every growth row and
cluster solution already cached, so it grows nothing).
The companion d = 15 construction smoke lives in
``bench_table9_large_distance.py::test_table9_d15_graph_only`` (no
all-pairs table is ever materialised there).
"""

import json
import time

import numpy as np

from repro.experiments.setup import DecodingSetup
from repro.sim.pauli_frame import PauliFrameSimulator

from _util import RESULTS_DIR, build_decoder, emit, seed, trials

P = 1e-3
DISTANCE = 7


def test_ext_sparse_blossom_equivalence(benchmark):
    table_setup = DecodingSetup.build(DISTANCE, P)
    graph_setup = DecodingSetup.build(DISTANCE, P, dense_weights=False)
    table = build_decoder("mwpm", table_setup)
    graph_only = build_decoder("mwpm", graph_setup)

    shots = trials(4_000)
    sim = PauliFrameSimulator(
        table_setup.experiment.circuit, seed=seed(90 + DISTANCE)
    )
    sampled = sim.sample(shots)
    detectors = sampled.detectors

    record = {
        "bench": "ext_sparse_blossom",
        "distance": DISTANCE,
        "p": P,
        "shots": shots,
    }

    def timed_decode():
        start = time.perf_counter()
        got = graph_only.decode_batch(detectors)
        elapsed = time.perf_counter() - start
        return got, shots / elapsed if elapsed > 0 else float("inf")

    def run():
        expected = table.decode_batch(detectors)
        got, cold = timed_decode()
        settled_cold = graph_only.sparse_stats.nodes_settled
        warm_got, warm = timed_decode()
        assert [(r.prediction, r.weight) for r in warm_got] == [
            (r.prediction, r.weight) for r in got
        ]
        record["throughput_shots_per_sec"] = {
            "mwpm_graph_only_cold": cold,
            "mwpm_graph_only_warm": warm,
        }
        record["nodes_settled_warm"] = (
            graph_only.sparse_stats.nodes_settled - settled_cold
        )
        weight_gap = 0.0
        for e, g in zip(expected, got):
            assert e.prediction == g.prediction
            weight_gap = max(weight_gap, abs(e.weight - g.weight))
        assert weight_gap <= 1e-6
        record["max_weight_gap"] = weight_gap
        return got

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    actual = sampled.observables[:, 0].astype(bool)
    predicted = np.array([r.prediction for r in got], dtype=bool)
    record["logical_errors"] = int(np.count_nonzero(actual != predicted))
    stats = graph_only.sparse_stats
    record["engine_stats"] = stats.as_dict()
    assert stats.total_fallbacks == 0

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / f"ext_sparse_blossom_d{DISTANCE}.json"
    json_path.write_text(json.dumps(record, indent=2) + "\n")
    throughput = record["throughput_shots_per_sec"]
    emit(
        f"ext_sparse_blossom_d{DISTANCE}",
        [
            f"d={DISTANCE}, p={P}, shots={shots}",
            "graph-only MWPM    :"
            f" {throughput['mwpm_graph_only_cold']:10.0f} shots/s cold"
            " (mwpm_graph_only_cold)",
            "graph-only MWPM    :"
            f" {throughput['mwpm_graph_only_warm']:10.0f} shots/s warm"
            f" (mwpm_graph_only_warm, {record['nodes_settled_warm']}"
            " nodes settled)",
            f"max weight gap     : {record['max_weight_gap']:.2e}"
            " (vs full-precision table stack)",
            "predictions        : identical on every shot",
            f"logical errors     : {record['logical_errors']}/{shots}",
            f"blossom clusters   : {stats.blossom_clusters}"
            f" (of {stats.clusters} clusters,"
            f" {stats.nodes_settled} nodes settled)",
        ],
    )
