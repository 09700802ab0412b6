"""The decoder zoo (see docs/decoders.md for the selection guide)."""

from .astrea import AstreaDecoder, HW6Decoder, exhaustive_search
from .astrea_g import AstreaGDecoder, PipelineSnapshot, weight_threshold_for
from .base import BOUNDARY, DecodeResult, Decoder
from .cascade import (
    Cascade,
    CascadeDecoder,
    CascadeStats,
    CascadeTier,
    ClosedFormTier,
    DecoderTier,
    EscalationPolicy,
    PredecodeTier,
    TierLadder,
    TierOutcome,
    TierStats,
    TrivialTier,
)
from .clique import CliqueDecoder
from .correction import (
    PhysicalCorrection,
    matching_to_correction,
    primitive_edge_parities,
)
from .lilliput import LilliputDecoder, lut_size_bytes
from .mwpm import MWPMDecoder
from .single_round import SingleRoundDecoder
from .union_find import UnionFindDecoder
from .verify import VerificationReport, verify_decode_result
from .windowed import SlidingWindowDecoder

__all__ = [
    "AstreaDecoder",
    "AstreaGDecoder",
    "BOUNDARY",
    "Cascade",
    "CascadeDecoder",
    "CascadeStats",
    "CascadeTier",
    "CliqueDecoder",
    "ClosedFormTier",
    "DecodeResult",
    "Decoder",
    "DecoderTier",
    "EscalationPolicy",
    "HW6Decoder",
    "LilliputDecoder",
    "MWPMDecoder",
    "PhysicalCorrection",
    "PipelineSnapshot",
    "PredecodeTier",
    "SingleRoundDecoder",
    "SlidingWindowDecoder",
    "TierLadder",
    "TierOutcome",
    "TierStats",
    "TrivialTier",
    "UnionFindDecoder",
    "VerificationReport",
    "exhaustive_search",
    "lut_size_bytes",
    "matching_to_correction",
    "primitive_edge_parities",
    "verify_decode_result",
    "weight_threshold_for",
]
