"""Decoder cascade: one routing/escalation subsystem.

The paper's architecture is itself a cascade -- a Clique pre-decoder
handles trivial syndromes, Astrea's search handles the bulk, and exact
software MWPM backstops the rest (sections 2.3.4, 5.6) -- and this repo
used to reproduce that shape three separate times: ``CliqueDecoder``'s
hardwired MWPM fallback, ``MWPMDecoder``'s anomaly-recovery rerun, and
the streaming service's backpressure degradation ladder.  This module is
the one place that logic now lives:

* :class:`Cascade` routes each row of a syndrome batch through an
  ordered list of :class:`CascadeTier`\\ s, escalating only the rows a
  tier declines or leaves unsolved, and counting
  routed/declined/solved/escalated plus p50/p99 solve latency per tier
  in a shared :class:`CascadeStats`.
* :class:`CascadeDecoder` is the registry-native decoder built on it:
  a closed-form front tier that is *bit-identical* to the sparse exact
  engine on the rows it accepts, backstopped by full
  :class:`~repro.decoders.mwpm.MWPMDecoder`.
* :class:`EscalationPolicy` is the counting/warning half of MWPM's
  sparse-to-dense anomaly recovery.
* :class:`TierLadder` is the shed/promote hysteresis the streaming
  service runs its degradation ladder on.

Exactness of the front tier: the sparse engine decomposes a syndrome
into close-connected components and solves singletons and mutual close
pairs by closed forms.  A row in which every active defect has at most
one active *close* neighbor (and no active *unsafe* pair) decomposes
entirely into such components, so the closed forms reproduce the exact
MWPM answer -- prediction, matching and weight.  Everything else
escalates whole to the terminal tier, which is the reference, so the
cascade's final answers are bit-identical to always running the
terminal tier.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graphs.decoding_graph import BOUNDARY, NeighborStructure
from ..matching.sparse import default_tolerance
from ..stats import LatencyRecorder
from .base import DecodeResult, Decoder, DecoderFallbackWarning, validate_syndrome_batch

__all__ = [
    "Cascade",
    "CascadeDecoder",
    "CascadeStats",
    "CascadeTier",
    "ClosedFormTier",
    "DecoderTier",
    "EscalationPolicy",
    "PredecodeTier",
    "TierLadder",
    "TierOutcome",
    "TierStats",
    "TrivialTier",
]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


def _tier_latency() -> LatencyRecorder:
    return LatencyRecorder(max_samples=4096)


@dataclass
class TierStats:
    """Counters of one cascade tier.

    For a non-terminal tier ``routed == declined + solved + escalated``
    once a batch completes: every row handed to the tier was either
    declined by routing (not attempted), solved, or attempted and
    escalated.

    Attributes:
        routed: Rows handed to this tier.
        solved: Rows this tier finalized.
        declined: Rows the tier's routing passed down without
            attempting.
        escalated: Rows the tier attempted but passed down.
        latency: Amortized per-row attempt wall-clock (seconds).
    """

    routed: int = 0
    solved: int = 0
    declined: int = 0
    escalated: int = 0
    latency: LatencyRecorder = field(default_factory=_tier_latency)

    def as_dict(self) -> dict:
        """Counters as a JSON-ready dict."""
        return {
            "routed": self.routed,
            "solved": self.solved,
            "declined": self.declined,
            "escalated": self.escalated,
            "latency": self.latency.as_dict(),
        }


class CascadeStats:
    """Shared per-tier counters of one cascade (insertion-ordered)."""

    def __init__(self) -> None:
        self.tiers: dict[str, TierStats] = {}

    def tier(self, name: str) -> TierStats:
        """The (auto-created) stats bucket of one tier."""
        return self.tiers.setdefault(name, TierStats())

    @property
    def escalation_rate(self) -> float:
        """Fraction of first-tier rows that reached the last tier."""
        names = list(self.tiers)
        if not names or not self.tiers[names[0]].routed:
            return 0.0
        return self.tiers[names[-1]].routed / self.tiers[names[0]].routed

    def as_dict(self) -> dict:
        """Per-tier counters as a JSON-ready dict."""
        return {name: stats.as_dict() for name, stats in self.tiers.items()}


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------


@dataclass
class TierOutcome:
    """What one tier did with the rows it attempted.

    Attributes:
        results: One entry per attempted row; ``None`` escalates the row
            to the next tier.
        residual: Optional replacement syndrome rows (aligned with the
            attempted batch) for escalated rows -- a pre-decoder that
            consumed some defects hands down only the leftovers.
        partial: Optional per-row ``(prediction, matching)`` local
            contributions of escalated rows, merged (XOR / concatenate)
            into whatever tier finally solves the row.
    """

    results: list[DecodeResult | None]
    residual: np.ndarray | None = None
    partial: list[tuple[bool, list[tuple[int, int]]] | None] | None = None


class CascadeTier:
    """One rung of a :class:`Cascade`.

    Subclasses override :meth:`attempt` (and usually :meth:`route`).
    Class attributes:

    * ``name``: stats key of the tier.
    * ``escalation_times_out``: escalating a row marks its final result
      ``timed_out`` (the Clique contract: missing the real-time path).
    """

    name = "tier"
    escalation_times_out = False

    def route(self, syndromes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Bool mask of the rows this tier should attempt."""
        return np.ones(syndromes.shape[0], dtype=bool)

    def attempt(self, syndromes: np.ndarray) -> TierOutcome:
        """Decode the routed rows; ``None`` results escalate."""
        raise NotImplementedError


class TrivialTier(CascadeTier):
    """Accepts only empty syndromes (the graph-only cascade's front)."""

    name = "trivial"

    def route(self, syndromes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return weights == 0

    def attempt(self, syndromes: np.ndarray) -> TierOutcome:
        return TierOutcome(
            [
                DecodeResult(prediction=False) if not any_ else None
                for any_ in syndromes.any(axis=1).tolist()
            ]
        )


class ClosedFormTier(CascadeTier):
    """Exact closed-form tier over the sparse engine's decomposition.

    Accepts exactly the rows whose active defects all have close-degree
    <= 1 within the row and which contain no active unsafe pair; those
    rows decompose into singleton and mutual-close-pair components whose
    closed forms *are* the exact MWPM answer (see the module docstring).
    Every other row escalates whole.

    Args:
        structure: Neighbor structure of ``gwt`` (full ``close`` /
            ``unsafe`` matrices; the capped kNN lists are not used).
        gwt: The weight table the closed forms read.
    """

    name = "closed-form"

    def __init__(self, structure: NeighborStructure, gwt) -> None:
        self._radii = structure.radii
        self._diag_par = np.diag(gwt.parities).copy()
        self._pair_w = gwt.weights
        self._pair_par = gwt.parities
        # Non-finite tables cannot be certified by closed forms; decline
        # everything so the terminal tier reproduces its exact anomaly
        # semantics (raise / dense degrade) unchanged.
        self._finite = bool(np.isfinite(gwt.weights).all())
        n = int(structure.num_detectors)
        self._close = np.ascontiguousarray(structure.close, dtype=bool)
        self._unsafe = np.ascontiguousarray(structure.unsafe, dtype=bool)
        self.syndrome_length = n

    def route(self, syndromes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.full(syndromes.shape[0], self._finite, dtype=bool)

    def _classify(self, syndromes: np.ndarray):
        """Per-defect close degree/partner and the per-row accept mask.

        Enumerates the active defect *pairs* of each row instead of
        gathering every close neighbor: the close matrix is nearly dense
        at useful distances (a padded neighbor gather touches O(n) cells
        per defect), while a weight-``w`` row only has ``w * (w - 1) / 2``
        pairs and the census weight is small.  Rows are bucketed by
        Hamming weight so each bucket is one rectangular gather plus two
        tiny matmuls.
        """
        num = syndromes.shape[0]
        rows, cols = np.nonzero(syndromes)
        ok = np.ones(num, dtype=bool)
        if rows.size == 0:
            return rows, cols, None, None, ok
        row_weights = np.bincount(rows, minlength=num)
        deg = np.zeros(rows.size, dtype=np.int64)
        partner = np.zeros(rows.size, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(row_weights)))
        for w in np.unique(row_weights[row_weights > 1]):
            bucket = np.nonzero(row_weights == w)[0]
            # Flat positions of each bucket row's defects; cols are
            # ascending within a row, so ``mat`` rows are sorted too.
            pos = starts[bucket][:, None] + np.arange(w)[None, :]
            mat = cols[pos]
            iu, ju = np.triu_indices(int(w), 1)
            close_ab = self._close[mat[:, iu], mat[:, ju]]
            if self._unsafe.any():
                bad = self._unsafe[mat[:, iu], mat[:, ju]].any(axis=1)
            else:
                bad = np.zeros(bucket.size, dtype=bool)
            # Pair->endpoint incidence and "other endpoint position"
            # matrices turn the per-pair close flags into per-defect
            # degrees and (for degree 1) the partner's position.
            npairs = iu.size
            inc = np.zeros((npairs, w), dtype=np.int64)
            other = np.zeros((npairs, w), dtype=np.int64)
            pr = np.arange(npairs)
            inc[pr, iu] = 1
            inc[pr, ju] = 1
            other[pr, iu] = ju
            other[pr, ju] = iu
            close_i = close_ab.astype(np.int64)
            bdeg = close_i @ inc
            # Position sums only mean "the partner" at degree 1; clip so
            # the gather stays in bounds on (rejected) higher degrees.
            bpartner = np.take_along_axis(
                mat, np.minimum(close_i @ other, int(w) - 1), axis=1
            )
            ok[bucket] = ~bad & (bdeg <= 1).all(axis=1)
            deg[pos] = bdeg
            partner[pos] = bpartner
        return rows, cols, deg, partner, ok

    def attempt(self, syndromes: np.ndarray) -> TierOutcome:
        num = syndromes.shape[0]
        rows, cols, deg, partner, ok = self._classify(syndromes)
        if rows.size == 0:
            return TierOutcome(
                [DecodeResult(prediction=False) for _ in range(num)]
            )
        counts = np.bincount(rows, minlength=num)
        # Closed forms over the accepted rows: each degree-0 defect pays
        # its matching radius to the boundary, each mutual close pair is
        # matched directly (counted once, at its lower endpoint).
        sel = ok[rows]
        pair = sel & (deg == 1) & (cols < partner)
        bnd = sel & (deg == 0)
        pred = np.zeros(num, dtype=bool)
        np.logical_xor.at(
            pred, rows[pair], self._pair_par[cols[pair], partner[pair]]
        )
        np.logical_xor.at(pred, rows[bnd], self._diag_par[cols[bnd]])
        # Matching and weight streams, lex-sorted so each row's
        # components run in smallest-member-ascending order -- the same
        # accumulation order as the sparse engine, so the float weight
        # sums are bit-identical.
        m_rows = np.concatenate((rows[pair], rows[bnd]))
        m_lo = np.concatenate((cols[pair], cols[bnd]))
        m_hi = np.concatenate(
            (
                partner[pair],
                np.full(int(bnd.sum()), BOUNDARY, dtype=np.int64),
            )
        )
        m_w = np.concatenate(
            (self._pair_w[cols[pair], partner[pair]], self._radii[cols[bnd]])
        )
        order = np.lexsort((m_hi, m_lo, m_rows))
        m_rows = m_rows[order]
        pairs = list(zip(m_lo[order].tolist(), m_hi[order].tolist()))
        weight = np.bincount(m_rows, weights=m_w[order], minlength=num)
        moff = np.concatenate(
            ([0], np.cumsum(np.bincount(m_rows, minlength=num)))
        ).tolist()
        results: list[DecodeResult | None] = [
            (
                (
                    DecodeResult(
                        prediction=p, matching=pairs[a:b], weight=wt
                    )
                    if o
                    else None
                )
                if c
                else DecodeResult(prediction=False)
            )
            for c, o, p, wt, a, b in zip(
                counts.tolist(),
                ok.tolist(),
                pred.tolist(),
                weight.tolist(),
                moff[:-1],
                moff[1:],
            )
        ]
        return TierOutcome(results)


class PredecodeTier(CascadeTier):
    """Clique-style greedy local pre-decoder as a cascade tier.

    One vectorized pairing round over every defect of every routed row
    at once.  That is exact, not an approximation: a mutual degree-1
    pair has no other active neighbors by definition, and a degree-0
    boundary defect touches nobody, so consuming them never unlocks
    further local pairings -- a fixed-point loop would terminate after
    one productive pass.  Fully-consumed rows are final (one pre-decoder
    cycle, 4 ns); rows with leftovers escalate carrying their local
    prediction/matching as a partial plus the residual defects, and are
    flagged ``timed_out`` (the fallback path misses the real-time
    budget).
    """

    name = "clique"
    escalation_times_out = True

    def __init__(self, graph) -> None:
        self.syndrome_length = int(graph.num_detectors)
        # Neighbour map over primitive edges (boundary excluded).
        neighbors: dict[int, set[int]] = {}
        edge_parity: dict[tuple[int, int], bool] = {}
        boundary_parity: dict[int, bool] = {}
        for edge in graph.edges:
            if edge.v == BOUNDARY:
                # Keep the most probable boundary edge's parity.
                if edge.u not in boundary_parity:
                    boundary_parity[edge.u] = edge.flips_observable
                continue
            neighbors.setdefault(edge.u, set()).add(edge.v)
            neighbors.setdefault(edge.v, set()).add(edge.u)
            key = (min(edge.u, edge.v), max(edge.u, edge.v))
            if key not in edge_parity:
                edge_parity[key] = edge.flips_observable
        # Padded neighbor matrix (vertices x max-degree) with aligned
        # edge parities, plus direct boundary-edge presence/parity.
        n = self.syndrome_length
        max_deg = max((len(s) for s in neighbors.values()), default=0)
        self._nb_pad = np.zeros((max(n, 1), max(max_deg, 1)), dtype=np.int64)
        self._nb_mask = np.zeros_like(self._nb_pad, dtype=bool)
        self._nb_par = np.zeros_like(self._nb_pad, dtype=bool)
        for v, nbs in neighbors.items():
            for j, u in enumerate(sorted(nbs)):
                self._nb_pad[v, j] = u
                self._nb_mask[v, j] = True
                self._nb_par[v, j] = edge_parity[(min(u, v), max(u, v))]
        self._has_bnd = np.zeros(max(n, 1), dtype=bool)
        self._bnd_par = np.zeros(max(n, 1), dtype=bool)
        for v, parity in boundary_parity.items():
            self._has_bnd[v] = True
            self._bnd_par[v] = parity

    def attempt(self, syndromes: np.ndarray) -> TierOutcome:
        num, n = syndromes.shape
        rows, cols = np.nonzero(syndromes)
        if rows.size == 0:
            return TierOutcome(
                [DecodeResult(prediction=False) for _ in range(num)]
            )
        counts = np.bincount(rows, minlength=num)
        # Active-neighbor degree of every defect via one padded gather.
        nbs = self._nb_pad[cols]
        act = self._nb_mask[cols] & syndromes[rows[:, None], nbs]
        deg = act.sum(axis=1)
        one = deg == 1
        # The lone active neighbor of each degree-1 defect, and the
        # parity of the primitive edge towards it.
        j = np.argmax(act, axis=1)
        lanes = np.arange(rows.size)
        partner = nbs[lanes, j]
        edge_par = self._nb_par[cols, j]
        # A pair is consumed iff both endpoints have degree 1; adjacency
        # is symmetric, so the partner's lone neighbor is this defect.
        # Locate the partner's lane by binary search over the
        # (row, vertex) keys, which np.nonzero already emits sorted.
        keys = rows * n + cols
        pidx = np.searchsorted(keys, rows * n + partner)
        pdeg = deg[np.minimum(pidx, keys.size - 1)]
        paired = one & (pdeg == 1)
        bmatch = (deg == 0) & self._has_bnd[cols]
        resid = ~(paired | bmatch)
        # Per-row prediction: each pair's parity counted once (at its
        # lower endpoint) plus every boundary match's parity.
        pair_once = paired & (cols < partner)
        pred = np.zeros(num, dtype=bool)
        np.logical_xor.at(pred, rows[pair_once], edge_par[pair_once])
        np.logical_xor.at(pred, rows[bmatch], self._bnd_par[cols[bmatch]])
        # Locally consumed matches, grouped per row in sorted order.
        m_rows = np.concatenate((rows[pair_once], rows[bmatch]))
        m_lo = np.concatenate((cols[pair_once], cols[bmatch]))
        m_hi = np.concatenate(
            (
                partner[pair_once],
                np.full(int(bmatch.sum()), BOUNDARY, dtype=np.int64),
            )
        )
        order = np.lexsort((m_hi, m_lo, m_rows))
        m_rows = m_rows[order]
        pairs = list(zip(m_lo[order].tolist(), m_hi[order].tolist()))
        moff = np.concatenate(
            ([0], np.cumsum(np.bincount(m_rows, minlength=num)))
        ).tolist()
        row_resid = np.zeros(num, dtype=bool)
        row_resid[rows[resid]] = True
        residual = None
        partial: list[tuple[bool, list[tuple[int, int]]] | None] | None = None
        if row_resid.any():
            residual = np.zeros((num, n), dtype=bool)
            residual[rows[resid], cols[resid]] = True
            partial = [None] * num
        results: list[DecodeResult | None] = []
        pred_l = pred.tolist()
        resid_l = row_resid.tolist()
        cnt_l = counts.tolist()
        for i in range(num):
            if not cnt_l[i]:
                results.append(DecodeResult(prediction=False))
            elif not resid_l[i]:
                results.append(
                    DecodeResult(
                        prediction=pred_l[i],
                        matching=pairs[moff[i] : moff[i + 1]],
                        cycles=1,
                        latency_ns=4.0,  # one in-fridge pre-decoder cycle
                    )
                )
            else:
                results.append(None)
                partial[i] = (pred_l[i], pairs[moff[i] : moff[i + 1]])
        return TierOutcome(results, residual=residual, partial=partial)


class DecoderTier(CascadeTier):
    """Wraps any :class:`~repro.decoders.base.Decoder` as a tier."""

    def __init__(self, decoder, *, name: str | None = None) -> None:
        self.decoder = decoder
        self.name = name or getattr(decoder, "name", type(decoder).__name__)

    def attempt(self, syndromes: np.ndarray) -> TierOutcome:
        return TierOutcome(list(self.decoder.decode_batch(syndromes)))


# ----------------------------------------------------------------------
# The cascade core
# ----------------------------------------------------------------------


class Cascade:
    """Ordered tiers plus the row-routing/escalation/merge loop.

    Args:
        tiers: Tier list, cheapest first; the last tier is *terminal*
            and must solve every row that reaches it (its routing gate
            is not consulted).
        stats: Shared :class:`CascadeStats` (created when None).
    """

    def __init__(
        self, tiers: Sequence[CascadeTier], stats: CascadeStats | None = None
    ) -> None:
        if not tiers:
            raise ValueError("a cascade needs at least one tier")
        self.tiers = list(tiers)
        self.stats = stats if stats is not None else CascadeStats()
        for tier in self.tiers:  # fix the stats ordering at build time
            self.stats.tier(tier.name)

    def run(
        self, syndromes: np.ndarray
    ) -> tuple[list[DecodeResult], list[str]]:
        """Route every row to a final result.

        Returns:
            ``(results, tier_names)`` -- per-row decode results and the
            name of the tier that finalized each row.
        """
        num = syndromes.shape[0]
        results: list[DecodeResult | None] = [None] * num
        tier_of = [""] * num
        # Escalation state accumulated across tiers, per original row.
        part_pred = np.zeros(num, dtype=bool)
        part_pairs: dict[int, list[tuple[int, int]]] = {}
        timed = np.zeros(num, dtype=bool)
        pending = np.arange(num)
        current = syndromes
        for t, tier in enumerate(self.tiers):
            if pending.size == 0:
                break
            terminal = t == len(self.tiers) - 1
            stats = self.stats.tier(tier.name)
            stats.routed += int(pending.size)
            weights = current.sum(axis=1)
            if terminal:
                mask = np.ones(pending.size, dtype=bool)
            else:
                mask = np.asarray(tier.route(current, weights), dtype=bool)
            stats.declined += int(pending.size - mask.sum())
            keep = ~mask  # declined rows continue to the next tier as-is
            replaced: dict[int, np.ndarray] = {}
            attempted = np.flatnonzero(mask)
            if attempted.size:
                start = time.perf_counter()
                outcome = tier.attempt(current[attempted])
                elapsed = time.perf_counter() - start
                stats.latency.record_many(
                    elapsed / attempted.size, int(attempted.size)
                )
                if len(outcome.results) != attempted.size:
                    raise RuntimeError(
                        f"tier {tier.name!r} returned "
                        f"{len(outcome.results)} results for "
                        f"{attempted.size} rows"
                    )
                # Fast path: no escalation state to merge means a solved
                # row's result is final as-is, so the only per-row work is
                # slotting it home.
                if (
                    outcome.partial is None
                    and outcome.residual is None
                    and not tier.escalation_times_out
                    and not part_pairs
                    and not part_pred.any()
                    and not timed.any()
                ):
                    rlist = outcome.results
                    none_mask = np.fromiter(
                        (r is None for r in rlist),
                        dtype=bool,
                        count=attempted.size,
                    )
                    nones = int(none_mask.sum())
                    if nones:
                        if terminal:
                            raise RuntimeError(
                                f"terminal tier {tier.name!r} declined a "
                                "row it must solve"
                            )
                        stats.escalated += nones
                        keep[attempted[none_mask]] = True
                        solved_ks = np.flatnonzero(~none_mask)
                    else:
                        solved_ks = np.arange(attempted.size)
                    stats.solved += int(solved_ks.size)
                    name = tier.name
                    for k, orig in zip(
                        solved_ks.tolist(),
                        pending[attempted[solved_ks]].tolist(),
                    ):
                        results[orig] = rlist[k]
                        tier_of[orig] = name
                    lanes = np.flatnonzero(keep)
                    if lanes.size == 0:
                        pending = pending[:0]
                        break
                    pending = pending[lanes]
                    current = current[lanes]
                    continue
                for k, lane in enumerate(attempted.tolist()):
                    res = outcome.results[k]
                    orig = int(pending[lane])
                    if res is None:
                        if terminal:
                            raise RuntimeError(
                                f"terminal tier {tier.name!r} declined a "
                                "row it must solve"
                            )
                        stats.escalated += 1
                        keep[lane] = True
                        if outcome.partial is not None:
                            part = outcome.partial[k]
                            if part is not None:
                                ppred, ppairs = part
                                part_pred[orig] ^= ppred
                                part_pairs.setdefault(orig, []).extend(ppairs)
                        if outcome.residual is not None:
                            replaced[lane] = outcome.residual[k]
                        if tier.escalation_times_out:
                            timed[orig] = True
                        continue
                    stats.solved += 1
                    if part_pred[orig] or orig in part_pairs or timed[orig]:
                        res = DecodeResult(
                            prediction=bool(part_pred[orig]) ^ res.prediction,
                            matching=sorted(
                                part_pairs.get(orig, []) + res.matching
                            ),
                            weight=res.weight,
                            cycles=res.cycles,
                            latency_ns=res.latency_ns,
                            decoded=res.decoded,
                            timed_out=bool(timed[orig]) or res.timed_out,
                        )
                    results[orig] = res
                    tier_of[orig] = tier.name
            lanes = np.flatnonzero(keep)
            if lanes.size == 0:
                pending = pending[:0]
                break
            next_current = current[lanes]  # fancy indexing copies
            if replaced:
                pos = {int(lane): i for i, lane in enumerate(lanes.tolist())}
                for lane, row in replaced.items():
                    next_current[pos[lane]] = row
            pending = pending[lanes]
            current = next_current
        if pending.size:
            raise RuntimeError(
                f"{pending.size} row(s) escaped the cascade unsolved"
            )
        return results, tier_of  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Escalation policy (MWPM anomaly recovery) and the service ladder
# ----------------------------------------------------------------------


class EscalationPolicy:
    """Counting/warning policy for single-decoder tier escalation.

    :class:`~repro.decoders.mwpm.MWPMDecoder` runs its sparse engine as
    tier zero; engine anomalies (``SparseEngineError``, unexpected
    failures, non-finite weights) escalate through this policy to the
    dense reference tier when one exists.

    Args:
        owner: Decoder name used in the emitted warning.
        tier: Name of the tier being escalated *from*.
        next_tier: Name of the tier escalated *to*; None means there is
            no next tier -- the event is counted and :meth:`escalate`
            returns False so the caller re-raises.
    """

    def __init__(
        self, owner: str, *, tier: str = "sparse", next_tier: str | None = None
    ) -> None:
        self.owner = owner
        self.tier = tier
        self.next_tier = next_tier
        #: Escalations observed (the decoder's ``fallback_events``).
        self.escalations = 0

    def escalate(self, reason: str, detail: str) -> bool:
        """Count one escalation; True when a next tier absorbs it.

        Emits a :class:`~repro.decoders.base.DecoderFallbackWarning`
        when the escalation is absorbed (the caller then runs the next
        tier); with no next tier the caller must re-raise.
        """
        self.escalations += 1
        if self.next_tier is None:
            return False
        warnings.warn(
            DecoderFallbackWarning(self.owner, reason, detail), stacklevel=4
        )
        return True


class TierLadder:
    """Shed/promote hysteresis over an ordered list of tier names.

    The streaming service's degradation ladder: under backpressure a
    stream sheds one rung down (cheaper tier); once its queue drains to
    half the limit it promotes one rung back up.  Kept separate from
    :class:`Cascade` because the service routes *streams*, not rows --
    but both consume the same ordered tier list and the same stats
    schema.
    """

    def __init__(self, tiers: Sequence[str]) -> None:
        if not tiers:
            raise ValueError("a tier ladder needs at least one tier")
        self.tiers = tuple(tiers)
        self.level = 0

    @property
    def current(self) -> str:
        """The active tier name."""
        return self.tiers[self.level]

    @property
    def degraded(self) -> bool:
        """Whether the ladder sits below its primary tier."""
        return self.level > 0

    def shed(self) -> str | None:
        """Drop one rung; the new tier, or None when already at bottom."""
        if self.level + 1 >= len(self.tiers):
            return None
        self.level += 1
        return self.current

    def consider_promote(self, queue_depth: int, queue_limit: int) -> str | None:
        """Climb one rung when the queue drained to half its limit.

        Returns:
            The new tier name, or None when no promotion happened.
        """
        if self.level and queue_depth <= queue_limit // 2:
            self.level -= 1
            return self.current
        return None


# ----------------------------------------------------------------------
# The registry-native cascade decoder
# ----------------------------------------------------------------------


class CascadeDecoder(Decoder):
    """Closed-form front tier backstopped by exact MWPM.

    Final predictions/matchings/weights are bit-identical to running
    the terminal tier alone on every syndrome (see the module
    docstring); the front tier only removes work from it.

    Args:
        gwt: Weight table, or None for the graph-only configuration
            (``graph`` required; the front tier then accepts only empty
            rows).
        graph: Optional decoding graph arming the terminal MWPM's
            graph-local engine (exact with the ideal table only).
        structure: Pre-built neighbor structure for ``gwt`` (computed
            when None).
        terminal: Override the terminal decoder (defaults to a fresh
            :class:`~repro.decoders.mwpm.MWPMDecoder`).
    """

    name = "Cascade"

    def __init__(
        self,
        gwt=None,
        *,
        graph=None,
        structure: NeighborStructure | None = None,
        terminal=None,
    ) -> None:
        from .mwpm import MWPMDecoder  # avoid a module-import cycle

        if terminal is None:
            terminal = MWPMDecoder(
                gwt, graph=graph, measure_time=False, structure=structure
            )
        self.gwt = gwt
        self.terminal = terminal
        if gwt is not None:
            if structure is None:
                structure = NeighborStructure.from_weights(
                    gwt.weights,
                    gwt.parities,
                    tolerance=default_tolerance(gwt),
                )
            front: CascadeTier = ClosedFormTier(structure, gwt)
            self.syndrome_length = int(gwt.weights.shape[0])
        else:
            front = TrivialTier()
            self.syndrome_length = int(terminal.syndrome_length)
        self._front = front
        self._cascade = Cascade([front, DecoderTier(terminal, name="mwpm")])
        self.stats = self._cascade.stats
        #: Finalizing tier name of each row of the last decode_batch.
        self.last_tiers: list[str] = []

    @property
    def escalation_rate(self) -> float:
        """Fraction of routed rows that reached the terminal tier."""
        return self.stats.escalation_rate

    @property
    def fallback_events(self) -> int:
        """The terminal decoder's degraded decodes."""
        return self.terminal.fallback_events

    def decode_active(self, active: list[int]) -> DecodeResult:
        syndrome = np.zeros((1, self.syndrome_length), dtype=bool)
        if len(active):
            syndrome[0, list(active)] = True
        results, tiers = self._cascade.run(syndrome)
        self.last_tiers = tiers
        return results[0]

    def decode_batch(self, syndromes: np.ndarray) -> list[DecodeResult]:
        syndromes = validate_syndrome_batch(syndromes, self.syndrome_length)
        results, tiers = self._cascade.run(syndromes)
        self.last_tiers = tiers
        return results
