"""Graph-local exact MWPM: region growth on the decoding graph.

The table-driven sparse engine (:mod:`repro.matching.sparse`) reads every
pairwise defect weight from a precomputed all-pairs table -- O(N^2) memory
and an O(N^2 log N) build that makes d >= 15 experiments infeasible.  This
module provides the alternative Sparse Blossom (Higgott & Gidney 2023)
made practical: pairwise defect weights are *discovered during growth* on
the primitive decoding-graph adjacency, so no all-pairs table is ever
built and what growth is kept stays under a fixed byte budget.

The engine is exact, boundary matching included, via three steps:

1. **Radii.**  One Dijkstra from the virtual boundary vertex yields every
   detector's matching radius ``r_i`` (its boundary weight) and boundary
   parity -- the diagonal of the Global Weight Table, computed in
   O(E log V) total instead of per-pair.

2. **Region growth.**  Every detector's shortest-path region is a
   function of the detector alone, so it is grown once: one bounded
   Dijkstra over the boundary-free adjacency (the through-boundary route
   is folded analytically, never traversed) out to the syndrome-free
   budget ``r_i + max(r) + tolerance``, which covers the pair cap
   ``r_i + r_j`` against every detector ``j``.  The resulting *growth
   row* -- distances plus the logical parity of every shortest path,
   derived once from the predecessor tree -- is kept in a byte-bounded
   LRU (:data:`ROW_CACHE_BYTES`), filled lazily on first use.  Two
   defects whose regions reach each other -- ``d(i, j) <= r_i + r_j``,
   i.e. matching them directly can beat (or tie) routing both to the
   boundary -- merge into one cluster; defects in different clusters are
   provably separable, so per-cluster optima compose into a global
   optimum by the same exchange argument the table engine uses.

3. **Cluster solving.**  Within a cluster, exact pair weights are the
   grown distances with the boundary fold applied analytically:
   ``W[i, j] = min(d(i, j), r_i + r_j)``, with the matched path's logical
   parity read from the growth row.  The resulting local matching
   problem -- identical in form to the table engine's -- runs through
   the same exhaustive-search kernels (clusters of up to
   :data:`~repro.matching.search.MAX_SEARCH_NODES` nodes, preserving the
   scalar tie-breaking order) or the blossom solver, and solutions are
   memoized in the same canonical-key LRU.

Alternating trees and blossoms never materialise explicitly: the growth
phase only *partitions* defects, and the (small) per-cluster matching is
delegated to the exact kernels, which is where odd cycles are resolved.
This trades the O(1)-amortised region bookkeeping of full Sparse Blossom
for a much simpler invariant, while keeping its defining properties:
graph-local discovery, no all-pairs table, O(E) construction; the row
cache holds at most :data:`ROW_CACHE_BYTES` of growth.

Tie-breaking contract: weights are compared with an absolute
``tolerance`` (1e-9 by default, absorbing float shortest-path round-off,
matching the table engine's ideal-table tolerance).  Pairs whose direct
path exactly ties the through-boundary route are merged into one cluster
-- the conservative choice: a tie is never separated, so tied optima are
resolved by the matching kernel's deterministic scalar order, not by the
decomposition.  Shortest-path ties follow :func:`scipy.sparse.csgraph.
dijkstra`'s deterministic predecessor choice -- the same routine (and
hence the same tie order) the all-pairs table builder uses.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..backend import from_device
from ..graphs.decoding_graph import BOUNDARY, DecodingGraph
from .blossom import min_weight_perfect_matching
from .boundary import matching_to_detectors
from .search import MAX_SEARCH_NODES, vectorized_search
from .sparse import (
    SparseEngineError,
    SparseStats,
    _ClusterSolution,
    _components_local,
)

__all__ = ["ROW_CACHE_BYTES", "SparseBlossomEngine"]

#: Byte budget of one engine's growth-row cache.  A row costs 9 bytes per
#: detector (float64 distance + bool parity), so a graph of ``n``
#: detectors keeps ``min(n, ROW_CACHE_BYTES // (9 * n))`` rows: d = 15
#: (1,792 detectors, ~29 MB) fits whole, larger graphs evict by LRU.
ROW_CACHE_BYTES = 32 * 2**20

#: Widest cluster the flat enumeration kernel handles ((m - 1)!! = 10395
#: candidate matchings at 12 nodes -- the sweet spot where one fancy
#: gather still beats the blossom solver); wider clusters run blossom.
_FLAT_SEARCH_LIMIT = 12


@lru_cache(maxsize=None)
def _flat_matchings(m: int) -> np.ndarray:
    """All perfect matchings of ``m`` nodes as one (M, m/2, 2) tensor.

    Unlike :func:`repro.matching.search.matchings_tensor` (capped at the
    Astrea hardware model's 10 nodes and ordered to reproduce the scalar
    search's hierarchical tie-breaking), this enumeration exists purely to
    *minimize exactly*: cluster weights here are unquantized floats, where
    exact ties are measure-zero, so a flat ``argmin`` in enumeration order
    is deterministic and any minimum is an exact solution.  Built bottom-up
    with array remapping so the tensors assemble in milliseconds.
    """
    if m == 2:
        return np.array([[[0, 1]]], dtype=np.intp)
    sub = _flat_matchings(m - 2)
    blocks = []
    for idx in range(1, m):
        rest = np.array(
            list(range(1, idx)) + list(range(idx + 1, m)), dtype=np.intp
        )
        head = np.broadcast_to(
            np.array([0, idx], dtype=np.intp), (sub.shape[0], 1, 2)
        )
        blocks.append(np.concatenate([head, rest[sub]], axis=1))
    tensor = np.concatenate(blocks, axis=0)
    tensor.setflags(write=False)
    return tensor


@lru_cache(maxsize=None)
def _flat_indices(m: int) -> np.ndarray:
    """The matchings tensor as flat (row-major) weight-matrix offsets."""
    tensor = _flat_matchings(m)
    flat = tensor[:, :, 0] * m + tensor[:, :, 1]
    flat.setflags(write=False)
    return flat


def _flat_search(
    weights: np.ndarray,
) -> tuple[list[tuple[int, int]], float]:
    """Exact min-weight perfect matching by flat exhaustive enumeration."""
    m = weights.shape[0]
    totals = np.ascontiguousarray(weights).ravel()[_flat_indices(m)].sum(axis=1)
    best = int(np.argmin(totals))
    return (
        [tuple(pair) for pair in _flat_matchings(m)[best].tolist()],
        float(totals[best]),
    )


class SparseBlossomEngine:
    """Exact MWPM on decoding-graph adjacency, no all-pairs table.

    Args:
        graph: The decoding graph (all-pairs tables not required; build
            with ``DecodingGraph.from_dem(dem, all_pairs=False)`` to keep
            construction O(E)).
        tolerance: Absolute slack for weight comparisons during growth
            and boundary folding (ties within the tolerance are merged,
            never separated).
        cache_size: Maximum number of memoized cluster solutions (LRU
            eviction; 0 disables caching).  Growth rows are cached
            separately, bounded by :data:`ROW_CACHE_BYTES`.
    """

    def __init__(
        self,
        graph: DecodingGraph,
        *,
        tolerance: float = 1e-9,
        cache_size: int = 65536,
    ) -> None:
        self.graph = graph
        self.tolerance = float(tolerance)
        self.cache_size = cache_size
        self.stats = SparseStats()
        n = self._num_detectors = int(graph.num_detectors)
        indptr, indices, weights, parities = graph.csr_adjacency()
        # Boundary-free adjacency (node n dropped): growth never expands
        # through the boundary; through-boundary routes are folded
        # analytically as r_i + r_j.
        src = np.repeat(np.arange(n + 1), np.diff(indptr))
        keep = (src < n) & (indices < n)
        self._csgraph = csr_matrix(
            (weights[keep], (src[keep], indices[keep])), shape=(n, n)
        )
        # Sorted keys ``u * n + v`` of the edges that flip the logical
        # observable (the adjacency is row-major and sorted within rows),
        # closed by a sentinel so every lookup lands on a valid slot.
        self._flip_keys = np.append(
            (src * n + indices)[keep & parities], np.iinfo(np.int64).max
        )
        radii, boundary_parities = graph.boundary_distances()
        self._radii = radii
        self._bparity = boundary_parities
        self._radii_finite = bool(np.isfinite(radii).all())
        # Detector i grows to r_i + max(r) + tolerance, which covers its
        # pair cap r_i + r_j against every j: one row per detector serves
        # every syndrome.
        self._reach = float(radii.max(initial=0.0)) + self.tolerance
        self._row_capacity = min(n, ROW_CACHE_BYTES // max(9 * n, 1))
        self._cache: OrderedDict[bytes, _ClusterSolution] = OrderedDict()
        # Growth-row cache, allocated on first use (see _pair_rows).
        self._row_dist: np.ndarray | None = None

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
        # The cached growth rows cover both the cluster criterion
        # (d <= r_i + r_j) and every in-cluster pair weight and parity.
        pairwise, parity = self._pair_rows(dets)
        radii = self._radii[dets]
        caps = radii[:, None] + radii[None, :]
        close = pairwise <= caps + self.tolerance
        np.fill_diagonal(close, False)
        components = _components_local(close)
        self.stats.collisions += dets.size - len(components)
        pairs: list[tuple[int, int]] = []
        weight = 0.0
        prediction = False
        for member_positions in components:
            self.stats.clusters += 1
            if len(member_positions) == 1:
                solution = self._singleton(int(dets[member_positions[0]]))
            else:
                solution = self._memoized(
                    dets, member_positions, pairwise, caps, parity
                )
            pairs.extend(solution.pairs)
            weight += solution.weight
            prediction ^= solution.prediction
        return sorted(pairs), weight, prediction

    def solve_many(
        self, clusters: list[np.ndarray]
    ) -> list[tuple[list[tuple[int, int]], float, bool]]:
        """:meth:`solve` on each of many independent syndromes.

        The table engine routes a whole batch of oversized clusters here
        at once; growth is shared through the row cache.
        """
        return [self.solve(active) for active in clusters]

    def solve_batch(
        self, syndromes: np.ndarray
    ) -> list[tuple[list[tuple[int, int]], float, bool]]:
        """Row-wise :meth:`solve` of a (shots, detectors) matrix.

        Growth is per-detector and cached; the batch entry point exists
        for API parity with the table engine and extracts all active
        indices with one ``np.nonzero``.  Device arrays from the active
        array backend are accepted (the seam crossing happens here).
        """
        syndromes = np.asarray(from_device(syndromes)).astype(bool, copy=False)
        if syndromes.ndim != 2:
            raise ValueError("solve_batch expects a (shots, detectors) matrix")
        num = syndromes.shape[0]
        if num == 0:
            return []
        rows, cols = np.nonzero(syndromes)
        splits = np.searchsorted(rows, np.arange(1, num))
        return [self.solve(chunk) for chunk in np.split(cols, splits)]

    def clear_cache(self) -> None:
        """Drop all memoized cluster solutions and growth rows (stats are
        kept)."""
        self._cache.clear()
        self._row_dist = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_solvable(self, dets: np.ndarray) -> None:
        """Refuse syndromes the engine cannot decode exactly.

        Raises:
            SparseEngineError: When some detector has no (finite) path to
                the boundary -- region budgets would be unbounded -- or a
                detector index falls outside the graph.
        """
        if not self._radii_finite:
            self.stats.fallback_events["unsolvable"] += 1
            raise SparseEngineError(
                "decoding graph has detectors with no boundary path "
                "(non-finite matching radius)"
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
                f"outside the {self._num_detectors}-detector decoding graph"
            )

    # ------------------------------------------------------------------
    # Growth rows
    # ------------------------------------------------------------------

    def _grow(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Growth rows of ``sources``: bounded distances and path parities.

        Each row is its own bounded Dijkstra from its source alone, to
        the source's budget ``r_i + max(r) + tolerance``, so a row never
        depends on the syndrome that grew it.  Path parities come from
        the predecessor trees by pointer jumping: a node's parity is its
        tree edge's flip XOR its predecessor's, and each vectorized pass
        doubles the resolved path length, so O(log depth) passes over all
        rows at once replace a walk per pair.
        """
        n = self._num_detectors
        dist = np.empty((sources.size, n), dtype=np.float64)
        pred = np.empty((sources.size, n), dtype=np.intp)
        for row, source in enumerate(sources.tolist()):
            dist[row], pred[row] = dijkstra(
                self._csgraph,
                directed=True,
                indices=source,
                return_predecessors=True,
                limit=float(self._radii[source]) + self._reach,
            )
        self.stats.nodes_settled += int(np.isfinite(dist).sum())
        # Flat indices: tree edges u -> v of every row, each with its flip;
        # sources and unreached nodes anchor to themselves with parity 0.
        child = np.flatnonzero(pred >= 0)
        col = child % n
        parent = pred.ravel()[child]
        keys = parent * n + col
        parity = np.zeros(dist.size, dtype=bool)
        parity[child] = (
            self._flip_keys[np.searchsorted(self._flip_keys, keys)] == keys
        )
        anchor = np.arange(dist.size)
        anchor[child] = child - col + parent
        while True:
            jumped = anchor[anchor]
            if np.array_equal(jumped, anchor):
                return dist, parity.reshape(dist.shape)
            parity ^= parity[anchor]
            anchor = jumped

    def _pair_rows(self, dets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grown distances and path parities among the distinct ``dets``.

        Entry ``[a, b]`` is read from ``dets[a]``'s growth row.  Rows are
        served from the LRU cache and only missing ones are grown; a
        syndrome wider than the whole cache is grown uncached.
        """
        if dets.size > self._row_capacity:
            dist, parity = self._grow(dets)
            return dist[:, dets], parity[:, dets]
        if self._row_dist is None:
            shape = (self._row_capacity, self._num_detectors)
            self._row_dist = np.empty(shape, dtype=np.float64)
            self._row_parity = np.empty(shape, dtype=bool)
            self._row_owner = np.empty(self._row_capacity, dtype=np.intp)
            self._row_used = np.empty(self._row_capacity, dtype=np.int64)
            self._row_slot = np.full(self._num_detectors, -1, dtype=np.intp)
            self._rows_held = 0
            self._row_tick = 0
        # Marking this syndrome's rows most recently used first means
        # inserting its missing rows never evicts one of its own.
        self._row_tick += 1
        slots = self._row_slot[dets]
        self._row_used[slots[slots >= 0]] = self._row_tick
        missing = dets[slots < 0]
        if missing.size:
            dist, parity = self._grow(missing)
            take = min(self._row_capacity - self._rows_held, missing.size)
            new = np.arange(self._rows_held, self._rows_held + take)
            self._rows_held += take
            self._row_used[new] = self._row_tick
            evict = missing.size - take
            if evict:
                old = np.argpartition(self._row_used, evict - 1)[:evict]
                self._row_slot[self._row_owner[old]] = -1
                self._row_used[old] = self._row_tick
                new = np.concatenate([new, old])
            self._row_slot[missing] = new
            self._row_owner[new] = missing
            self._row_dist[new] = dist
            self._row_parity[new] = parity
            slots = self._row_slot[dets]
        grid = np.ix_(slots, dets)
        return self._row_dist[grid], self._row_parity[grid]

    # ------------------------------------------------------------------
    # Cluster solving
    # ------------------------------------------------------------------

    def _memoized(
        self,
        dets: np.ndarray,
        member_positions: list[int],
        pairwise: np.ndarray,
        caps: np.ndarray,
        parity: np.ndarray,
    ) -> _ClusterSolution:
        """LRU-cached cluster solve, keyed by the sorted member bytes.

        A cluster's membership depends on the whole syndrome, but its
        *solution* depends only on its members (grown distances, caps and
        path parities are intrinsic to the member detectors), so
        solutions are reusable across syndromes.
        """
        members = dets[np.asarray(member_positions)]
        key = members.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.stats.cache_misses += 1
        solution = self._solve_cluster(
            members, member_positions, pairwise, caps, parity
        )
        if self.cache_size > 0:
            self._cache[key] = solution
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return solution

    def _solve_cluster(
        self,
        members: np.ndarray,
        member_positions: list[int],
        pairwise: np.ndarray,
        caps: np.ndarray,
        parity: np.ndarray,
    ) -> _ClusterSolution:
        """Exact matching of a multi-defect cluster (search or blossom).

        Pair weights fold the grown direct distance against the analytic
        through-boundary route, ``W[i, j] = min(d(i, j), r_i + r_j)``,
        with the winning path's parity (the direct path wins exact ties,
        keeping the choice deterministic); diagonals carry the boundary
        radii/parities, exactly the Global Weight Table convention the
        matching kernels expect.
        """
        k = len(member_positions)
        active = [int(d) for d in members]
        pos = np.asarray(member_positions)
        sub = np.ix_(pos, pos)
        sub_d = pairwise[sub]
        sub_cap = caps[sub]
        # min() folds both cases at once: an unreachable (or over-budget)
        # direct route leaves the through-boundary cap, and an exact tie
        # keeps the cap's value while the parity check below still hands
        # the tie to the direct path.
        base_w = np.minimum(sub_d, sub_cap)
        direct_wins = sub_d <= sub_cap + self.tolerance
        # The a -> b and b -> a growths traverse the same route in
        # opposite orders, which can round differently; mirroring the
        # upper triangle keeps the matrix exactly symmetric with the
        # smaller position as the defining source (whose row also
        # supplies the path parity).
        upper = np.triu_indices(k, 1)
        lower = (upper[1], upper[0])
        base_w[lower] = base_w[upper]
        direct_wins[lower] = direct_wins[upper]
        radii = self._radii[members]
        np.fill_diagonal(base_w, radii)
        if k % 2 == 0:
            weights = base_w
            has_virtual = False
        else:
            m = k + 1
            weights = np.zeros((m, m), dtype=np.float64)
            weights[:k, :k] = base_w
            weights[:k, m - 1] = radii
            weights[m - 1, :k] = radii
            has_virtual = True
        if weights.shape[0] <= MAX_SEARCH_NODES:
            local_pairs, weight, _ = vectorized_search(weights)
        elif weights.shape[0] <= _FLAT_SEARCH_LIMIT:
            local_pairs, weight = _flat_search(weights)
        else:
            self.stats.blossom_clusters += 1
            local_pairs = min_weight_perfect_matching(weights)
            weight = float(sum(weights[a, b] for a, b in local_pairs))
        bparity = self._bparity
        sub_parity = parity[sub]
        prediction = False
        for a, b in local_pairs:
            if has_virtual and (a == k or b == k):
                prediction ^= bool(bparity[active[a if b == k else b]])
                continue
            lo, hi = (a, b) if a < b else (b, a)
            if bool(direct_wins[lo, hi]):
                prediction ^= bool(sub_parity[lo, hi])
            else:
                prediction ^= bool(bparity[active[lo]]) ^ bool(
                    bparity[active[hi]]
                )
        return _ClusterSolution(
            pairs=matching_to_detectors(local_pairs, active, has_virtual),
            weight=float(weight),
            prediction=prediction,
        )

    def _singleton(self, d: int) -> _ClusterSolution:
        """Closed form: a lone defect matches the boundary."""
        return _ClusterSolution(
            pairs=[(d, BOUNDARY)],
            weight=float(self._radii[d]),
            prediction=bool(self._bparity[d]),
        )
