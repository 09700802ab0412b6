"""One-shot headline-results report.

``python -m repro report`` runs a condensed version of the paper's
headline experiments in one process and prints a summary a reviewer can
eyeball in a minute:

* Table 4 core: Astrea's error count is identical to software MWPM;
* Figure 9 core: Astrea's latency stays far inside the 1 us budget;
* Figure 12/14 core: Astrea-G tracks MWPM while staying real-time;
* Figure 4 core: the Union-Find (AFS) baseline is clearly less accurate;
* Table 2 core: high-Hamming-weight syndromes are rare.

The trial budget is a single knob so the same code serves a 30-second
smoke profile and an hour-long high-confidence profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..decoders.registry import make_decoder
from .hamming import hamming_weight_census
from .memory import MemoryRunResult, run_memory_experiment
from .setup import DecodingSetup

__all__ = ["HeadlineReport", "run_headline_report"]


@dataclass
class HeadlineReport:
    """Results of the condensed headline-experiment run.

    Attributes:
        distance: Code distance used.
        physical_error_rate: Operating point used.
        shots: Monte-Carlo trials per decoder.
        runs: Per-decoder memory-experiment results.
        tail_probability: Measured P(Hamming weight > 10).
        lines: Rendered human-readable report lines.
    """

    distance: int
    physical_error_rate: float
    shots: int
    runs: dict[str, MemoryRunResult] = field(default_factory=dict)
    tail_probability: float = 0.0
    lines: list[str] = field(default_factory=list)

    @property
    def astrea_matches_mwpm(self) -> bool:
        """Headline check: Astrea's errors equal MWPM's (mod declines)."""
        gap = abs(self.runs["Astrea"].errors - self.runs["MWPM"].errors)
        return gap <= max(2, self.runs["Astrea"].declined)

    @property
    def realtime_ok(self) -> bool:
        """Headline check: hardware decoders stay inside 1 us."""
        return (
            self.runs["Astrea"].max_latency_ns <= 1000.0
            and self.runs["Astrea-G"].max_latency_ns <= 1000.0
        )


def run_headline_report(
    *,
    distance: int = 5,
    physical_error_rate: float = 2e-3,
    shots: int = 20_000,
    seed: int = 2023,
) -> HeadlineReport:
    """Run the condensed headline experiments.

    Args:
        distance: Code distance (5 exercises every decoding path quickly).
        physical_error_rate: Operating point (default resolves LERs at
            modest trial counts).
        shots: Trials per decoder.
        seed: Shared PRNG seed so decoders see identical samples.

    Returns:
        The populated :class:`HeadlineReport`.
    """
    setup = DecodingSetup.build(distance, physical_error_rate)
    decoders = {
        "MWPM": make_decoder("mwpm", setup),
        "Astrea": make_decoder("astrea", setup),
        "Astrea-G": make_decoder("astrea-g", setup, weight_threshold=7.0),
        "AFS (UF)": make_decoder("union-find", setup),
    }
    report = HeadlineReport(
        distance=distance, physical_error_rate=physical_error_rate, shots=shots
    )
    for name, decoder in decoders.items():
        report.runs[name] = run_memory_experiment(
            setup.experiment, decoder, shots, seed=seed
        )
    census = hamming_weight_census(setup.experiment, shots, seed=seed + 1)
    report.tail_probability = census.tail_probability(10)

    mwpm = report.runs["MWPM"]
    lines = [
        f"Astrea reproduction headline report",
        f"d={distance}, p={physical_error_rate}, {shots} trials/decoder",
        "",
        f"{'decoder':>9} {'LER':>10} {'errors':>7} {'max lat':>9}",
    ]
    for name, run in report.runs.items():
        lines.append(
            f"{name:>9} {run.logical_error_rate:>10.2e} {run.errors:>7} "
            f"{run.max_latency_ns:>7.0f}ns"
        )
    for name, run in report.runs.items():
        if run.dropped_chunks:
            lines.append(
                f"[WARN] {name}: {run.dropped_chunks} chunk(s) dropped -- "
                f"the reported rate covers only {run.shots} surviving shots"
            )
    for name, decoder in decoders.items():
        fallbacks = decoder.fallback_events
        stats = getattr(decoder, "sparse_stats", None)
        if fallbacks:
            breakdown = ""
            if stats is not None and any(stats.fallback_events.values()):
                breakdown = " (" + ", ".join(
                    f"{reason}: {count}"
                    for reason, count in sorted(stats.fallback_events.items())
                    if count
                ) + ")"
            lines.append(
                f"[WARN] {name}: {fallbacks} decode(s) degraded to the "
                f"dense reference path{breakdown}"
            )
        if stats is not None and stats.syndromes:
            lines.append(
                f"[INFO] {name} sparse engine: cluster-cache hit rate "
                f"{stats.hit_rate:.1%} ({stats.cache_hits}/{stats.cache_hits + stats.cache_misses}), "
                f"fallbacks {stats.total_fallbacks}/{stats.syndromes}"
            )
    lines += [
        "",
        f"[{'PASS' if report.astrea_matches_mwpm else 'FAIL'}] "
        f"Astrea == MWPM accuracy (Table 4): "
        f"{report.runs['Astrea'].errors} vs {mwpm.errors} errors",
        f"[{'PASS' if report.realtime_ok else 'FAIL'}] "
        "hardware decoders within the 1 us budget (Figure 9)",
        f"[{'PASS' if report.runs['AFS (UF)'].errors > mwpm.errors else 'FAIL'}] "
        "Union-Find trails MWPM (Figure 4)",
        f"[INFO] P(HW > 10) = {report.tail_probability:.2e} "
        "(Astrea's decline rate, Table 2/5)",
    ]
    report.lines = lines
    return report
