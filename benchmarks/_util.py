"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  Because the
paper's experiments used 1B-100B Monte-Carlo trials on a 1024-core cluster,
the benchmarks default to laptop-scale trial counts and (where the paper
itself does, Appendix A) substitute the stratified estimator for the
deepest logical error rates.  Scale knobs:

* ``REPRO_TRIALS`` -- multiplies every Monte-Carlo trial count (default 1.0);
* ``REPRO_SEED``   -- base PRNG seed (default 2023, the paper's year).

Each benchmark prints its rows *and* writes them to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def trials(base: int) -> int:
    """Scale a default trial count by the ``REPRO_TRIALS`` multiplier."""
    factor = float(os.environ.get("REPRO_TRIALS", "1.0"))
    return max(1, int(base * factor))


def seed(offset: int = 0) -> int:
    """Deterministic per-benchmark seed derived from ``REPRO_SEED``."""
    return int(os.environ.get("REPRO_SEED", "2023")) + offset


def emit(name: str, lines: list[str]) -> None:
    """Print benchmark rows and persist them under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n=== {name} ===")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def fmt(value: float) -> str:
    """Compact scientific formatting for probabilities and rates."""
    if value == 0:
        return "0"
    return f"{value:.2e}"


def build_decoder(name: str, setup, **kwargs):
    """Build a registry decoder for a benchmark.

    Thin alias of :func:`repro.decoders.registry.make_decoder` so every
    benchmark constructs decoders through the shared registry (one
    dispatch path with the CLI, sweeps and examples) instead of keeping
    its own constructor copies.

    Args:
        name: Registered decoder name.
        setup: The decoding stack to attach to.
        **kwargs: Registry options of the decoder.
    """
    from repro.decoders.registry import make_decoder

    return make_decoder(name, setup, **kwargs)
