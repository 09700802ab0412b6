"""Sparse exact-MWPM engine: cluster decomposition + memoized matching.

The dense software MWPM baseline solves one blossom instance over *all*
active detectors per syndrome.  At the low physical error rates the paper
evaluates (p ~ 1e-3), syndromes are sparse and their defects form small,
well-separated clusters -- the same locality that Sparse Blossom
(Higgott & Gidney 2023) and PyMatching exploit.  This module provides an
engine that is *bit-exact* with the dense solve while being much faster:

1. **Decomposition.**  Active detectors are grouped into connected
   components of the precomputed *close* adjacency
   (:class:`repro.graphs.decoding_graph.NeighborStructure`): detectors
   ``a, b`` are close when ``W[a, b] < W[a, a] + W[b, b]``, i.e. matching
   them directly beats sending both to the boundary.  For every
   *separable* pair (``W[a, b] == W[a, a] + W[b, b]`` with consistent
   parity) an exchange argument shows any dense optimum can be rewired,
   at equal weight and parity, so that no matched pair crosses a cluster
   border: per-cluster optima compose into a global optimum.  A syndrome
   containing an *unsafe* pair (``W[a, b] > W[a, a] + W[b, b]``, a
   quantization artifact that breaks the argument) is routed whole to the
   graph-local :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
   when one is attached -- which re-derives true (unquantized) weights
   during growth, so no decomposition proof is needed -- and otherwise
   raises :class:`SparseEngineError` so the decoder can degrade to its
   dense reference path.

2. **Closed forms.**  A singleton cluster matches its detector to the
   boundary (weight ``W[d, d]``); a close pair matches directly (weight
   ``W[a, b]``); clusters of up to 10 matching nodes run through the
   vectorized exhaustive-search tensors of :mod:`repro.matching.search`;
   larger clusters go to the attached graph engine when present, else to
   the blossom solver.

3. **Memoization.**  Cluster matchings are cached in a canonical-key LRU
   (key = the cluster's sorted detector indices, as raw bytes).  Because
   low-p syndromes decompose into few distinct small clusters, sub-syndrome
   hit rates far exceed whole-syndrome hit rates.  Clusters of one or two
   defects are *not* cached -- their closed forms (a couple of array
   lookups) are cheaper than the cache machinery itself.

4. **Batching.**  :meth:`SparseMatchingEngine.solve_batch` processes a
   whole ``(shots, detectors)`` matrix Hamming-weight-bucketed: weight-1
   and weight-2 syndromes are closed-form solved with pure array
   arithmetic.  Larger buckets label their connected components for the
   whole bucket at once (boolean matrix-power closure over the gathered
   close submatrices) and then flatten every row's components into one
   *segment stream* (a stable lexsort by component label): singleton and
   pair segments evaluate their closed forms vectorized across the whole
   bucket, >= 3-defect segments deduplicate into one grouped kernel
   solve, and per-row weights/parities come back via ``reduceat`` over
   the stream -- which accumulates segments in exactly the scalar path's
   smallest-member component order, keeping float sums bit-identical.
   Per-row Python survives only to assemble the output pair lists.

Statistics (cluster counts, cache hits/misses, fallback breakdown) are
tracked in :class:`SparseStats` and surfaced by the experiment reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..backend import from_device
from ..graphs.decoding_graph import BOUNDARY, NeighborStructure
from ..graphs.weights import GlobalWeightTable
from .blossom import min_weight_perfect_matching
from .boundary import MatchingProblem, matching_to_detectors
from .search import MAX_SEARCH_NODES, batched_search, vectorized_search

__all__ = [
    "SparseMatchingEngine",
    "SparseEngineError",
    "SparseStats",
    "default_tolerance",
]

#: Widest Hamming-weight bucket the vectorized component labelling
#: handles (uint8 matrix powers hold path counts up to 255); wider rows
#: fall back to the per-row graph traversal.
_MAX_LABEL_WEIGHT = 128


class SparseEngineError(RuntimeError):
    """The sparse matching engine cannot solve a syndrome exactly.

    Raised when no exact sparse route exists -- e.g. the weight table
    contains non-finite entries, a syndrome references a detector outside
    the table, or an unsafe pair occurs with no graph engine attached.
    :class:`repro.decoders.mwpm.MWPMDecoder` catches this and degrades to
    its dense reference path with a
    :class:`~repro.decoders.base.DecoderFallbackWarning` instead of
    aborting the experiment.
    """


def default_tolerance(gwt: GlobalWeightTable) -> float:
    """Separation-test tolerance appropriate for a weight table.

    Quantized tables (``lsb`` set) hold exact multiples of the lsb, so the
    boundary-folding bound is tested exactly; unquantized tables carry the
    float round-off of the all-pairs Dijkstra, absorbed by a tiny slack.
    """
    return 0.0 if gwt.lsb is not None else 1e-9


def _fallback_counter() -> dict[str, int]:
    """Fresh per-reason fallback counter (all reasons present, zeroed)."""
    return {"unsafe_pair": 0, "unsolvable": 0, "engine_error": 0}


@dataclass
class SparseStats:
    """Counters accumulated by a sparse matching engine.

    Shared by the table-driven :class:`SparseMatchingEngine` and the
    graph-local :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
    (growth-specific counters stay zero on the table engine).

    Attributes:
        syndromes: Non-empty syndromes solved.
        fallback_events: Events the engine could not handle on its normal
            decomposition path, by reason: ``"unsafe_pair"`` (syndrome
            contained an unsafe pair -- routed to the graph engine when
            attached, raised otherwise), ``"unsolvable"`` (non-finite
            weights or out-of-range detector indices; always raised) and
            ``"engine_error"`` (unexpected internal failure, recorded by
            the decoder when it degrades).
        clusters: Clusters solved across all decomposed syndromes.
        cache_hits: Cluster-cache hits.
        cache_misses: Cluster-cache misses.
        blossom_clusters: Cache misses that exceeded the exhaustive-search
            node limit and ran the blossom solver.
        nodes_settled: Graph vertices settled by the region-growth
            Dijkstra runs actually performed, i.e. growth-row cache
            misses (graph engine only; a warm engine adds none).
        collisions: Region collisions that merged clusters during growth
            (graph engine only).
    """

    syndromes: int = 0
    fallback_events: dict[str, int] = field(default_factory=_fallback_counter)
    clusters: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    blossom_clusters: int = 0
    nodes_settled: int = 0
    collisions: int = 0

    @property
    def hit_rate(self) -> float:
        """Cluster-cache hit rate (0 when nothing was looked up)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_fallbacks(self) -> int:
        """Sum of the per-reason fallback counters."""
        return sum(self.fallback_events.values())

    @property
    def fallback_rate(self) -> float:
        """Fraction of syndromes that left the normal decomposition path."""
        return self.total_fallbacks / self.syndromes if self.syndromes else 0.0

    def as_dict(self) -> dict:
        """Counters plus derived rates, JSON-ready."""
        return {
            "syndromes": self.syndromes,
            "fallback_events": dict(self.fallback_events),
            "clusters": self.clusters,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "blossom_clusters": self.blossom_clusters,
            "nodes_settled": self.nodes_settled,
            "collisions": self.collisions,
            "hit_rate": self.hit_rate,
            "fallback_rate": self.fallback_rate,
        }


@dataclass(slots=True)
class _ClusterSolution:
    """Memoized solution of one cluster."""

    pairs: list[tuple[int, int]]
    weight: float
    prediction: bool


class SparseMatchingEngine:
    """Exact MWPM via cluster decomposition, closed forms and memoization.

    Args:
        gwt: Global Weight Table of the code/noise configuration.
        tolerance: Separation-test slack; defaults via
            :func:`default_tolerance` (0 for quantized tables, 1e-9 for
            float tables).
        cache_size: Maximum number of memoized cluster solutions (LRU
            eviction; 0 disables caching).
        structure: A pre-built :class:`NeighborStructure` for ``gwt`` at
            ``tolerance`` (e.g. from the pipeline's artifact store).  The
            caller guarantees it matches; None computes it here.
        graph_engine: An optional
            :class:`~repro.matching.sparse_blossom.SparseBlossomEngine`
            over the decoding graph this table derives from.  Unsafe-pair
            syndromes and clusters too large for the search kernels route
            to it.  Exactness requires ``gwt`` to be the graph's *ideal*
            (unquantized) all-pairs table -- the graph engine re-derives
            true weights, which only coincide with unquantized table
            entries.
    """

    def __init__(
        self,
        gwt: GlobalWeightTable,
        *,
        tolerance: float | None = None,
        cache_size: int = 65536,
        structure: NeighborStructure | None = None,
        graph_engine=None,
    ) -> None:
        self.gwt = gwt
        self.tolerance = (
            default_tolerance(gwt) if tolerance is None else tolerance
        )
        if structure is not None and structure.radii.shape[0] != gwt.weights.shape[0]:
            raise ValueError(
                f"pre-built neighbor structure covers "
                f"{structure.radii.shape[0]} detectors but the weight "
                f"table has {gwt.weights.shape[0]}"
            )
        self.structure = (
            structure
            if structure is not None
            else NeighborStructure.from_weights(
                gwt.weights, gwt.parities, tolerance=self.tolerance
            )
        )
        self.graph_engine = graph_engine
        self.cache_size = cache_size
        self.stats = SparseStats()
        self._cache: OrderedDict[bytes, _ClusterSolution] = OrderedDict()
        # Flat copies of the hot lookups (diagonals as 1-D arrays) so the
        # closed forms touch contiguous memory.
        self._radii = self.structure.radii
        self._diag_parities = np.diag(gwt.parities).copy()
        self._num_detectors = int(gwt.weights.shape[0])
        # Checked once; a poisoned table makes every decomposition claim
        # meaningless, so solves must refuse.
        self._weights_finite = bool(np.isfinite(gwt.weights).all())

    def _check_solvable(self, dets: np.ndarray) -> None:
        """Refuse syndromes the engine cannot decode exactly.

        Raises:
            SparseEngineError: When the weight table holds non-finite
                entries or a detector index falls outside the table.
        """
        if not self._weights_finite:
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(
                "weight table contains non-finite (NaN/inf) entries"
            )
        if dets.size and (
            int(dets[-1]) >= self._num_detectors or int(dets[0]) < 0
        ):
            offender = (
                int(dets[-1])
                if int(dets[-1]) >= self._num_detectors
                else int(dets[0])
            )
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(
                f"detector index {offender} "
                f"outside the {self._num_detectors}-detector weight table"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(
        self, active: list[int] | np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Exact minimum-weight matching of one syndrome.

        Args:
            active: Indices of the non-zero syndrome bits (any order).

        Returns:
            Tuple ``(pairs, weight, prediction)``: detector-index pairs
            (:data:`BOUNDARY` second for boundary matches), the matching's
            total weight, and the implied logical-observable flip.

        Raises:
            SparseEngineError: When no exact sparse route exists (see
                :class:`SparseStats.fallback_events` for the breakdown).
        """
        dets = np.asarray(active, dtype=np.intp)
        if dets.size == 0:
            return [], 0.0, False
        dets = np.sort(dets)
        self._check_solvable(dets)
        self.stats.syndromes += 1
        if dets.size == 1:
            self.stats.clusters += 1
            solution = self._singleton(int(dets[0]))
            return list(solution.pairs), solution.weight, solution.prediction
        cols = dets[:, None]
        if self.structure.unsafe[cols, dets].any():
            return self._route_unsafe(dets)
        return self._solve_decomposed(dets, self.structure.close[cols, dets])

    def solve_batch(
        self, syndromes: np.ndarray
    ) -> list[tuple[list[tuple[int, int]], float, bool]]:
        """Exact minimum-weight matchings of a (shots, detectors) matrix.

        Row results are identical to per-row :meth:`solve`, but work is
        Hamming-weight-bucketed: weight-1 and weight-2 syndromes reduce to
        closed forms evaluated with pure array arithmetic, and each larger
        bucket's component labelling and singleton/pair closed forms are
        evaluated for whole groups of identically-decomposing rows at
        once.  The cluster cache is consulted only for clusters of three
        or more defects, exactly as in the scalar path.
        """
        syndromes = np.asarray(syndromes).astype(bool, copy=False)
        if syndromes.ndim != 2:
            raise ValueError("solve_batch expects a (shots, detectors) matrix")
        if not self._weights_finite:
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(
                "weight table contains non-finite (NaN/inf) entries"
            )
        num = syndromes.shape[0]
        out: list[tuple[list[tuple[int, int]], float, bool] | None] = [None] * num
        hw = syndromes.sum(axis=1)
        stats = self.stats
        structure = self.structure
        radii = self._radii
        diag_parities = self._diag_parities
        # One global nonzero: every bucket's active-index matrix is then a
        # strided gather from this flat column stream instead of a fresh
        # (B, detectors) fancy-index copy + scan per bucket.
        all_cols = np.nonzero(syndromes)[1]
        row_start = np.zeros(num + 1, dtype=np.intp)
        np.cumsum(hw, out=row_start[1:])
        # Deferred >= 3-defect clusters, deduplicated by canonical key; the
        # composition plan of each decomposed row references them by key.
        deferred_index: dict[bytes, int] = {}
        deferred: list[np.ndarray] = []
        plans: list[tuple[int, list[_ClusterSolution | bytes]]] = []
        # Per-bucket segment streams awaiting deferred-cluster resolution.
        pending: list[tuple] = []
        for w in np.unique(hw):
            w = int(w)
            rows = np.nonzero(hw == w)[0]
            if w == 0:
                for i in rows.tolist():
                    out[i] = ([], 0.0, False)
                continue
            active = all_cols[row_start[rows][:, None] + np.arange(w)]
            stats.syndromes += len(rows)
            if w == 1:
                stats.clusters += len(rows)
                dets = active[:, 0]
                ws = radii[dets].tolist()
                ps = diag_parities[dets].tolist()
                dets_list = dets.tolist()
                for j, i in enumerate(rows.tolist()):
                    out[i] = ([(dets_list[j], BOUNDARY)], ws[j], ps[j])
                continue
            if w == 2:
                a, b = active[:, 0], active[:, 1]
                unsafe = structure.unsafe[a, b]
                if unsafe.any():
                    for j in np.nonzero(unsafe)[0]:
                        out[rows[j]] = self._route_unsafe(active[j])
                sep = structure.separable[a, b]
                stats.clusters += 2 * int(sep.sum()) + int(
                    (~sep & ~unsafe).sum()
                )
                direct_w = self.gwt.weights[a, b].tolist()
                direct_p = self.gwt.parities[a, b].tolist()
                both_w = (radii[a] + radii[b]).tolist()
                both_p = (diag_parities[a] ^ diag_parities[b]).tolist()
                sep_list = sep.tolist()
                unsafe_list = unsafe.tolist()
                a_list = a.tolist()
                b_list = b.tolist()
                for j, i in enumerate(rows.tolist()):
                    if unsafe_list[j]:
                        continue  # routed above
                    ai, bi = a_list[j], b_list[j]
                    if sep_list[j]:
                        # Two separable singletons: both to the boundary.
                        out[i] = (
                            [(ai, BOUNDARY), (bi, BOUNDARY)],
                            both_w[j],
                            both_p[j],
                        )
                    else:
                        out[i] = ([(ai, bi)], direct_w[j], direct_p[j])
                continue
            gathered_close = structure.close[
                active[:, :, None], active[:, None, :]
            ]
            unsafe_rows = structure.unsafe[
                active[:, :, None], active[:, None, :]
            ].any(axis=(1, 2))
            if unsafe_rows.any():
                for j in np.nonzero(unsafe_rows)[0]:
                    out[rows[j]] = self._route_unsafe(active[j])
                keep = np.nonzero(~unsafe_rows)[0]
                rows = rows[keep]
                active = active[keep]
                gathered_close = gathered_close[keep]
                if rows.size == 0:
                    continue
            if w > _MAX_LABEL_WEIGHT:
                for j, i in enumerate(rows):
                    entries = self._plan_row(
                        active[j],
                        _components_local(gathered_close[j]),
                        deferred_index,
                        deferred,
                    )
                    plans.append((int(i), entries))
                continue
            # Segment stream: flatten every row's components into one
            # label-sorted sequence.  Within a row, labels ascend with the
            # component's smallest member (labels *are* smallest member
            # positions), and the stable sort keeps positions -- hence
            # detector indices -- ascending within each component, so the
            # stream order is exactly the scalar path's visit order.
            labels = _component_labels(gathered_close)
            B = rows.size
            flat_rows = np.repeat(np.arange(B), w)
            order = np.lexsort((labels.ravel(), flat_rows))
            srt_rows = flat_rows[order]
            srt_labels = labels.ravel()[order]
            srt_dets = active.ravel()[order]
            newseg = np.empty(B * w, dtype=bool)
            newseg[0] = True
            newseg[1:] = (srt_rows[1:] != srt_rows[:-1]) | (
                srt_labels[1:] != srt_labels[:-1]
            )
            seg_starts = np.nonzero(newseg)[0]
            seg_sizes = np.diff(np.append(seg_starts, B * w))
            seg_rows = srt_rows[seg_starts]
            nseg = seg_starts.size
            stats.clusters += nseg
            seg_weights = np.zeros(nseg, dtype=np.float64)
            seg_preds = np.zeros(nseg, dtype=bool)
            # Closed-form segments store their single pair as a bare tuple;
            # >= 3-defect segments store a *list* of pairs (the assembly
            # loop dispatches on the type).
            seg_pairs: list = [None] * nseg
            ones = seg_sizes == 1
            d1 = srt_dets[seg_starts[ones]]
            seg_weights[ones] = radii[d1]
            seg_preds[ones] = diag_parities[d1]
            for s, d in zip(np.nonzero(ones)[0].tolist(), d1.tolist()):
                seg_pairs[s] = (d, BOUNDARY)
            twos = seg_sizes == 2
            a2 = srt_dets[seg_starts[twos]]
            b2 = srt_dets[seg_starts[twos] + 1]
            seg_weights[twos] = self.gwt.weights[a2, b2]
            seg_preds[twos] = self.gwt.parities[a2, b2]
            for s, pair in zip(
                np.nonzero(twos)[0].tolist(), zip(a2.tolist(), b2.tolist())
            ):
                seg_pairs[s] = pair
            # >= 3-defect segments consult the cache, then the in-batch
            # dedup index; unresolved ones are referenced by key and
            # filled in after the grouped solve.
            big_refs: list[tuple[int, bytes]] = []
            bigs = seg_sizes > 2
            big_rows = np.zeros(B, dtype=bool)
            if bigs.any():
                big_rows[seg_rows[bigs]] = True
                starts_list = seg_starts.tolist()
                sizes_list = seg_sizes.tolist()
                for s in np.nonzero(bigs)[0].tolist():
                    start = starts_list[s]
                    cluster = srt_dets[start : start + sizes_list[s]]
                    key = b"C" + cluster.tobytes()
                    cached = self._cache.get(key)
                    if cached is not None:
                        stats.cache_hits += 1
                        self._cache.move_to_end(key)
                        seg_weights[s] = cached.weight
                        seg_preds[s] = cached.prediction
                        seg_pairs[s] = cached.pairs
                        continue
                    if key in deferred_index:
                        stats.cache_hits += 1
                    else:
                        stats.cache_misses += 1
                        deferred_index[key] = len(deferred)
                        deferred.append(cluster)
                    big_refs.append((s, key))
            row_first = np.nonzero(
                np.r_[True, seg_rows[1:] != seg_rows[:-1]]
            )[0]
            pending.append(
                (
                    rows,
                    seg_weights,
                    seg_preds,
                    seg_pairs,
                    row_first,
                    big_refs,
                    big_rows,
                )
            )
        resolved: dict[bytes, _ClusterSolution] = {}
        if deferred:
            solutions = self._solve_clusters_grouped(deferred)
            for key, index in deferred_index.items():
                solution = solutions[index]
                resolved[key] = solution
                if self.cache_size > 0:
                    self._cache[key] = solution
                    if len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        for (
            rws,
            seg_weights,
            seg_preds,
            seg_pairs,
            row_first,
            big_refs,
            big_rows,
        ) in pending:
            for s, key in big_refs:
                solution = resolved[key]
                seg_weights[s] = solution.weight
                seg_preds[s] = solution.prediction
                seg_pairs[s] = solution.pairs
            # Accumulate each row's segments with np.bincount, whose C
            # kernel is a single sequential in-order loop: each row's
            # contributions add left to right, so the float-summation
            # order (and hence every rounding step) matches the scalar
            # path bit for bit; reduceat's internal pairing does not.
            nseg = len(seg_pairs)
            counts = np.diff(np.append(row_first, nseg))
            seg_rows = np.repeat(np.arange(len(rws)), counts)
            row_w = np.bincount(
                seg_rows, weights=seg_weights, minlength=len(rws)
            )
            row_p = (
                np.bincount(seg_rows, weights=seg_preds, minlength=len(rws))
                .astype(np.intp)
                & 1
            ).astype(bool)
            wl = row_w.tolist()
            pl = row_p.tolist()
            bounds = row_first.tolist()
            bounds.append(nseg)
            big_list = big_rows.tolist()
            for j, i in enumerate(rws.tolist()):
                if big_list[j]:
                    prs: list[tuple[int, int]] = []
                    for s in range(bounds[j], bounds[j + 1]):
                        entry = seg_pairs[s]
                        if type(entry) is tuple:
                            prs.append(entry)
                        else:
                            prs.extend(entry)
                    prs.sort()
                else:
                    # Only closed-form segments: one pair per segment, and
                    # pair firsts ascend with the segments' smallest
                    # members, so the list is already sorted.
                    prs = seg_pairs[bounds[j] : bounds[j + 1]]
                out[i] = (prs, wl[j], pl[j])
        for i, entries in plans:
            pairs: list[tuple[int, int]] = []
            weight = 0.0
            prediction = False
            for entry in entries:
                solution = resolved[entry] if isinstance(entry, bytes) else entry
                pairs.extend(solution.pairs)
                weight += solution.weight
                prediction ^= solution.prediction
            out[i] = (sorted(pairs), weight, prediction)
        return out

    def clear_cache(self) -> None:
        """Drop all memoized cluster solutions (stats are kept)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Unsafe-pair routing
    # ------------------------------------------------------------------

    def _route_unsafe(
        self, dets: np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Route a syndrome containing an unsafe pair.

        Unsafe pairs are quantization artifacts: the table locally
        violates the boundary-folding bound, so no decomposition proof
        applies.  The graph engine re-derives true weights during growth
        and is exact by construction, so the whole syndrome goes there;
        without one the engine refuses and the decoder degrades to its
        dense reference path.
        """
        self.stats.fallback_events["unsafe_pair"] += 1
        if self.graph_engine is not None:
            return self.graph_engine.solve(dets)
        raise SparseEngineError(
            "syndrome contains an unsafe pair (weight-quantization "
            "artifact) and no graph engine is attached to solve it exactly"
        )

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------

    def _solve_decomposed(
        self, dets: np.ndarray, close_sub: np.ndarray
    ) -> tuple[list[tuple[int, int]], float, bool]:
        """Solve an unsafe-free syndrome cluster by cluster.

        Args:
            dets: Sorted active detector indices.
            close_sub: Their ``(w, w)`` close-adjacency submatrix.

        Clusters are visited ordered by smallest detector so that float
        weight accumulation is deterministic for a given syndrome.
        """
        pairs: list[tuple[int, int]] = []
        weight = 0.0
        prediction = False
        clusters = 0
        for members in _components_local(close_sub):
            clusters += 1
            if len(members) == 1:
                solution = self._singleton(int(dets[members[0]]))
            elif len(members) == 2:
                solution = self._close_pair(
                    int(dets[members[0]]), int(dets[members[1]])
                )
            else:
                cluster = dets[members]
                solution = self._memoized(
                    b"C" + cluster.tobytes(), cluster, self._compute_cluster
                )
            pairs.extend(solution.pairs)
            weight += solution.weight
            prediction ^= solution.prediction
        self.stats.clusters += clusters
        return sorted(pairs), weight, prediction

    def _plan_row(
        self,
        dets: np.ndarray,
        components: list,
        deferred_index: dict[bytes, int],
        deferred: list[np.ndarray],
    ) -> list[_ClusterSolution | bytes]:
        """Batch-path composition plan of one decomposed row.

        Singleton and pair components resolve to closed-form solutions
        immediately; >= 3-defect clusters resolve through the cache or are
        queued (deduplicated) for the grouped solve, represented by their
        canonical key.
        """
        entries: list[_ClusterSolution | bytes] = []
        for members in components:
            self.stats.clusters += 1
            if len(members) == 1:
                entries.append(self._singleton(int(dets[members[0]])))
            elif len(members) == 2:
                entries.append(
                    self._close_pair(
                        int(dets[members[0]]), int(dets[members[1]])
                    )
                )
            else:
                cluster = dets[np.asarray(members)]
                key = b"C" + cluster.tobytes()
                cached = self._cache.get(key)
                if cached is not None:
                    self.stats.cache_hits += 1
                    self._cache.move_to_end(key)
                    entries.append(cached)
                elif key in deferred_index:
                    # Another row in this batch already queued the
                    # identical cluster: share its solve.
                    self.stats.cache_hits += 1
                    entries.append(key)
                else:
                    self.stats.cache_misses += 1
                    deferred_index[key] = len(deferred)
                    deferred.append(cluster)
                    entries.append(key)
        return entries

    # ------------------------------------------------------------------
    # Cluster solving
    # ------------------------------------------------------------------

    def _memoized(self, key, dets, compute) -> _ClusterSolution:
        """LRU-cached solve keyed by the cluster's canonical bytes."""
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.stats.cache_misses += 1
        solution = compute(dets)
        if self.cache_size > 0:
            self._cache[key] = solution
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return solution

    def _singleton(self, d: int) -> _ClusterSolution:
        """Closed form: a lone defect matches the boundary."""
        return _ClusterSolution(
            pairs=[(d, BOUNDARY)],
            weight=float(self._radii[d]),
            prediction=bool(self._diag_parities[d]),
        )

    def _close_pair(self, a: int, b: int) -> _ClusterSolution:
        """Closed form: a close pair matches directly (beats the boundary)."""
        return _ClusterSolution(
            pairs=[(a, b)],
            weight=float(self.gwt.weights[a, b]),
            prediction=bool(self.gwt.parities[a, b]),
        )

    def _solve_clusters_grouped(
        self, clusters: list[np.ndarray]
    ) -> list[_ClusterSolution]:
        """Solve many >= 3-defect clusters, grouped by size for the kernels.

        Same-size clusters share one :func:`batched_search` call (their
        matching problems are built with one GWT gather and their local ->
        detector translation is vectorized, mirroring the Astrea batch
        pipeline); clusters too large for the index tensors go to the graph
        engine in one :meth:`SparseBlossomEngine.solve_many` call or,
        without a graph engine, run :meth:`_compute_cluster`'s blossom
        path individually.  Results are element-wise identical to
        :meth:`_compute_cluster`.
        """
        solutions: list[_ClusterSolution | None] = [None] * len(clusters)
        by_size: dict[int, list[int]] = {}
        for index, cluster in enumerate(clusters):
            by_size.setdefault(cluster.size, []).append(index)
        oversized: list[int] = []
        for size, indices in by_size.items():
            if size + (size % 2) > MAX_SEARCH_NODES:
                if self.graph_engine is not None:
                    oversized.extend(indices)
                else:
                    for index in indices:
                        solutions[index] = self._compute_cluster(
                            clusters[index]
                        )
                continue
            active = np.stack([clusters[index] for index in indices])
            batch = MatchingProblem.from_syndrome_batch(self.gwt, active)
            pair_tensor, weights, predictions = (
                from_device(r)
                for r in batched_search(batch.weights, batch.parities)
            )
            lookup = batch.active
            if batch.has_virtual:
                pad = np.full((len(indices), 1), BOUNDARY, dtype=lookup.dtype)
                lookup = np.concatenate([lookup, pad], axis=1)
            rows = np.arange(len(indices))[:, None]
            da = lookup[rows, pair_tensor[:, :, 0]]
            db = lookup[rows, pair_tensor[:, :, 1]]
            lo = np.minimum(da, db)
            hi = np.maximum(da, db)
            virtual = lo == BOUNDARY
            first = np.where(virtual, hi, lo)
            second = np.where(virtual, lo, hi)
            # Each detector appears in at most one pair, so sorting on the
            # first element alone reproduces matching_to_detectors' order.
            order = np.argsort(first, axis=1)
            first = np.take_along_axis(first, order, axis=1)
            second = np.take_along_axis(second, order, axis=1)
            first_list = first.tolist()
            second_list = second.tolist()
            weight_list = weights.tolist()
            pred_list = predictions.tolist()
            for j, index in enumerate(indices):
                solutions[index] = _ClusterSolution(
                    pairs=list(zip(first_list[j], second_list[j])),
                    weight=float(weight_list[j]),
                    prediction=bool(pred_list[j]),
                )
        if oversized:
            solved = self.graph_engine.solve_many(
                [clusters[index] for index in oversized]
            )
            for index, (pairs, weight, prediction) in zip(oversized, solved):
                solutions[index] = _ClusterSolution(
                    pairs=pairs, weight=weight, prediction=prediction
                )
        return solutions

    def _compute_cluster(self, dets: np.ndarray) -> _ClusterSolution:
        """Exact matching of a >= 3-defect cluster.

        Clusters within the exhaustive-search node limit run the
        vectorized search kernels (the fast path, scalar tie-breaking
        order); larger clusters route to the attached graph engine when
        present -- the "cannot close-form" escape to graph-local growth --
        and otherwise run the blossom solver on the table submatrix.
        """
        if dets.size + (dets.size % 2) > MAX_SEARCH_NODES and (
            self.graph_engine is not None
        ):
            pairs, weight, prediction = self.graph_engine.solve(dets)
            return _ClusterSolution(
                pairs=pairs, weight=weight, prediction=prediction
            )
        problem = MatchingProblem.from_syndrome(self.gwt, [int(d) for d in dets])
        if problem.num_nodes <= MAX_SEARCH_NODES:
            local_pairs, weight, _ = vectorized_search(problem.weights)
        else:
            self.stats.blossom_clusters += 1
            local_pairs = min_weight_perfect_matching(problem.weights)
            weight = problem.total_weight(local_pairs)
        return _ClusterSolution(
            pairs=matching_to_detectors(
                local_pairs, problem.active, problem.has_virtual
            ),
            weight=float(weight),
            prediction=problem.prediction(local_pairs),
        )


def _component_labels(close: np.ndarray) -> np.ndarray:
    """Component labels of a whole bucket of close-adjacency submatrices.

    Args:
        close: ``(B, w, w)`` bool close-adjacency tensor.

    Returns:
        ``(B, w)`` integer labels; each position's label is the smallest
        position index in its connected component, computed for the whole
        bucket at once via boolean matrix-power transitive closure
        (``log2(w)`` squarings of uint8 matmuls -- no per-row Python).
    """
    B, w = close.shape[0], close.shape[1]
    reach = (close | np.eye(w, dtype=bool)).astype(np.uint8)
    hops = 1
    while hops < w:
        reach = (reach @ reach > 0).astype(np.uint8)
        hops *= 2
    # First nonzero per row = smallest reachable index = component label.
    return np.argmax(reach, axis=2)


def _components_local(close_sub: np.ndarray) -> list[list[int]]:
    """Connected components of a small close-adjacency submatrix.

    Returns components as sorted local-index lists, ordered by smallest
    member, using a single ``nonzero`` over the submatrix (per-node array
    scans dominate the per-syndrome cost otherwise).
    """
    n = close_sub.shape[0]
    src, dst = np.nonzero(close_sub)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for x, y in zip(src.tolist(), dst.tolist()):
        adjacency[x].append(y)
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = [start]
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    members.append(nbr)
                    stack.append(nbr)
        members.sort()
        components.append(members)
    return components
