"""Common decoder interface.

Every decoder in this repository -- the software MWPM baseline, Astrea,
Astrea-G and the prior-work comparators -- consumes a syndrome (the
detector bits of one logical cycle) and produces a :class:`DecodeResult`:
a predicted logical-observable flip, the matching it derived, and a latency
estimate (modeled hardware cycles for the hardware designs, measured
wall-clock for software decoders).

A *logical error* occurs when the prediction disagrees with the actual
observable flip sampled alongside the syndrome; the experiment harness in
:mod:`repro.experiments.memory` does that accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..backend import from_device

__all__ = [
    "DecodeResult",
    "Decoder",
    "DecoderFallbackWarning",
    "BOUNDARY",
    "matching_to_detectors",
    "validate_syndrome",
    "validate_syndrome_batch",
]

from ..graphs.decoding_graph import BOUNDARY
from ..matching.boundary import matching_to_detectors


class DecoderFallbackWarning(UserWarning):
    """A decoder degraded to its reference path instead of aborting.

    Emitted (via :func:`warnings.warn`) when an accelerated decode path
    hits an internal inconsistency -- e.g. a sparse-engine anomaly or a
    non-finite matching weight -- and the decoder recovers by re-decoding
    the syndrome on its dense/reference path.  The warning carries the
    decoder name and a machine-readable reason so supervised experiment
    runs can log and count degradations.

    Attributes:
        decoder: Name of the decoder that degraded.
        reason: Short machine-readable reason code.
        detail: Human-readable description of the anomaly.
    """

    def __init__(self, decoder: str, reason: str, detail: str) -> None:
        self.decoder = decoder
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"{decoder}: {reason}: {detail}; degraded to the reference path"
        )


def _binary_failure(values: np.ndarray) -> str | None:
    """Describe the first non-binary entry of ``values`` (None when clean)."""
    if values.dtype == bool:
        return None
    if values.dtype.kind not in "biuf":
        return f"unsupported syndrome dtype {values.dtype}"
    bad = ~((values == 0) | (values == 1))
    if bad.any():
        index = np.argwhere(bad)[0]
        return (
            f"non-binary value {values[tuple(index)]!r} at index "
            f"{tuple(int(i) for i in index)}"
        )
    return None


def validate_syndrome(
    syndrome: np.ndarray, expected_length: int | None = None
) -> np.ndarray:
    """Validate one syndrome vector and normalise it to ``bool``.

    Args:
        syndrome: 1-D array-like of 0/1 (or boolean) detector bits.
        expected_length: When given, the required number of detector bits.

    Returns:
        The syndrome as a 1-D boolean array.

    Raises:
        ValueError: On a non-1-D input, a length mismatch, a non-numeric
            dtype, or any value other than 0/1 (including NaN).
    """
    # Accept device arrays from the active array backend; decoders are
    # host-side consumers, so the seam crossing happens here, once.
    arr = np.asarray(from_device(syndrome))
    if arr.ndim != 1:
        raise ValueError(
            f"decode expects a 1-D syndrome vector, got shape {arr.shape}"
        )
    if expected_length is not None and arr.shape[0] != expected_length:
        raise ValueError(
            f"syndrome has {arr.shape[0]} detector bits, expected "
            f"{expected_length}"
        )
    failure = _binary_failure(arr)
    if failure is not None:
        raise ValueError(f"invalid syndrome: {failure}")
    return arr.astype(bool, copy=False)


def validate_syndrome_batch(
    syndromes: np.ndarray, expected_length: int | None = None
) -> np.ndarray:
    """Validate a syndrome matrix and normalise it to ``bool``.

    Args:
        syndromes: 2-D array-like, one syndrome per row.
        expected_length: When given, the required number of detector bits.

    Returns:
        The syndromes as a ``(shots, detectors)`` boolean matrix.

    Raises:
        ValueError: On a non-2-D input, a row-length mismatch, a
            non-numeric dtype, or any value other than 0/1 (including NaN).
    """
    arr = np.asarray(from_device(syndromes))
    if arr.ndim != 2:
        raise ValueError(
            "decode_batch expects a (shots, detectors) matrix, got shape "
            f"{arr.shape}"
        )
    if expected_length is not None and arr.shape[1] != expected_length:
        raise ValueError(
            f"syndromes have {arr.shape[1]} detector bits, expected "
            f"{expected_length}"
        )
    failure = _binary_failure(arr)
    if failure is not None:
        raise ValueError(f"invalid syndrome batch: {failure}")
    return arr.astype(bool, copy=False)


@dataclass(slots=True)
class DecodeResult:
    """Outcome of decoding one syndrome.

    Attributes:
        prediction: Predicted logical-observable flip.
        matching: Matched pairs in *detector index* terms; a pair's second
            element is :data:`BOUNDARY` for a boundary match.
        weight: Aggregate weight of the matching.
        cycles: Modeled hardware cycles consumed (0 for software decoders).
        latency_ns: Latency estimate -- modeled from cycles for hardware
            decoders, measured wall-clock for software decoders.
        decoded: False when the decoder declined the syndrome (e.g. Astrea
            beyond Hamming weight 10); the prediction is then "no flip".
        timed_out: True when a real-time decoder hit its deadline before
            exhausting its search (the result is then best-effort).
    """

    prediction: bool
    matching: list[tuple[int, int]] = field(default_factory=list)
    weight: float = 0.0
    cycles: int = 0
    latency_ns: float = 0.0
    decoded: bool = True
    timed_out: bool = False


class Decoder(ABC):
    """Abstract base class of all decoders.

    Subclasses implement :meth:`decode_active`; syndromes arrive either as
    boolean vectors (:meth:`decode`) or as active-index lists.
    """

    #: Human-readable decoder name (used in reports and benchmarks).
    name: str = "decoder"

    #: Expected syndrome-vector length; ``None`` disables length checks
    #: (subclasses set it when the code geometry is known at build time).
    syndrome_length: int | None = None

    #: Decodes that degraded off the decoder's normal path (for example
    #: MWPM's sparse engine re-decoding densely); the supervised runner,
    #: ``repro ler`` and the headline report's WARN lines surface it.
    fallback_events: int = 0

    @abstractmethod
    def decode_active(self, active: list[int]) -> DecodeResult:
        """Decode a syndrome given its non-zero detector indices."""

    def decode(self, syndrome: np.ndarray) -> DecodeResult:
        """Decode a syndrome given as a boolean/0-1 vector.

        Raises:
            ValueError: When the syndrome is not a 1-D binary vector of
                the decoder's expected length.
        """
        validated = validate_syndrome(syndrome, self.syndrome_length)
        active = [int(i) for i in np.nonzero(validated)[0]]
        return self.decode_active(active)

    def decode_batch(self, syndromes: np.ndarray) -> list[DecodeResult]:
        """Decode each row of a (shots, detectors) syndrome matrix.

        Raises:
            ValueError: When the input is not a 2-D binary matrix whose
                rows match the decoder's expected syndrome length.
        """
        validated = validate_syndrome_batch(syndromes, self.syndrome_length)
        return [
            self.decode_active([int(i) for i in np.nonzero(row)[0]])
            for row in validated
        ]
