"""Clique-style hierarchical decoder (paper sections 2.3.4 and 5.6).

The Clique decoder is a hierarchical design: a tiny in-fridge pre-decoder
handles the *common case* -- isolated errors whose defects can be paired
locally without ambiguity -- and everything else falls back to a software
MWPM decoder.  The paper highlights two weaknesses that this reproduction
preserves:

* the fallback path is not real-time (it is the software MWPM decoder, so
  hard syndromes dominate the critical path), and
* greedy local pairing is not globally optimal, costing up to ~3.8x in
  logical error rate versus MWPM (Table 4).

The pre-decoder model: a defect is *locally explainable* when it has
exactly one adjacent defect on the primitive decoding graph (mutually) --
those two are paired -- or no adjacent defects but a direct boundary edge
-- it is matched to the boundary.  If every defect is consumed this way the
syndrome was decoded entirely by the pre-decoder; otherwise the remaining
defects are re-decoded with MWPM and the shot is flagged as having missed
the real-time path.

This is exactly a two-tier :class:`~repro.decoders.cascade.Cascade`
(:class:`~repro.decoders.cascade.PredecodeTier` over a terminal MWPM
tier), and since PR 10 it is built as one: routing, partial-result
merging and per-tier telemetry live in the cascade subsystem rather
than in a private fallback loop here.
"""

from __future__ import annotations

import numpy as np

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.weights import GlobalWeightTable
from .base import DecodeResult, Decoder, validate_syndrome_batch
from .cascade import Cascade, DecoderTier, PredecodeTier
from .mwpm import MWPMDecoder

__all__ = ["CliqueDecoder"]


class CliqueDecoder(Decoder):
    """Greedy local pre-decoder with software-MWPM fallback.

    Args:
        graph: Primitive decoding graph (defines locality).
        gwt: Global Weight Table for the MWPM fallback.
        structure: Pre-built neighbor structure for ``gwt``, forwarded to
            the MWPM fallback's sparse engine.
    """

    name = "Clique+MWPM"

    def __init__(
        self,
        graph: DecodingGraph,
        gwt: GlobalWeightTable,
        *,
        structure=None,
    ) -> None:
        self.graph = graph
        self.syndrome_length = int(graph.num_detectors)
        self.fallback = MWPMDecoder(gwt, measure_time=True, structure=structure)
        #: Whether the last decode stayed entirely in the pre-decoder.
        self.last_was_local = True
        self._predecode = PredecodeTier(graph)
        self._cascade = Cascade(
            [self._predecode, DecoderTier(self.fallback, name="mwpm")]
        )
        #: Per-tier routed/solved/escalated/latency counters.
        self.stats = self._cascade.stats

    @property
    def fallback_events(self) -> int:
        """The MWPM fallback's degraded decodes."""
        return self.fallback.fallback_events

    def decode_active(self, active: list[int]) -> DecodeResult:
        """Decode locally where unambiguous; fall back to MWPM otherwise."""
        syndrome = np.zeros((1, self.syndrome_length), dtype=bool)
        if len(active):
            syndrome[0, list(active)] = True
        results, tiers = self._cascade.run(syndrome)
        self.last_was_local = tiers[0] == self._predecode.name
        return results[0]

    def decode_batch(self, syndromes: np.ndarray) -> list[DecodeResult]:
        """Decode a (shots, detectors) syndrome matrix in bulk.

        The pre-decoder tier runs one vectorized pairing round over
        every defect of every shot at once (exact -- see
        :class:`~repro.decoders.cascade.PredecodeTier`), and all
        hard-to-decode shots escalate their residual defects to one
        batched terminal-MWPM solve.  Results are identical to per-row
        :meth:`decode`, including the ``last_was_local`` flag of the
        final row.
        """
        syndromes = validate_syndrome_batch(syndromes, self.syndrome_length)
        results, tiers = self._cascade.run(syndromes)
        self.last_was_local = not tiers or tiers[-1] == self._predecode.name
        return results
