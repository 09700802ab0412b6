"""Unit tests for the decoder cascade subsystem."""

import numpy as np
import pytest

from repro.decoders.base import BOUNDARY, DecoderFallbackWarning
from repro.decoders.cascade import (
    Cascade,
    CascadeDecoder,
    DecoderTier,
    EscalationPolicy,
    TierLadder,
    TrivialTier,
)
from repro.decoders.mwpm import MWPMDecoder


def _assert_bit_identical(cascade_results, mwpm_results):
    for c, m in zip(cascade_results, mwpm_results):
        assert c.prediction == m.prediction
        assert c.matching == m.matching
        assert c.weight == m.weight


class TestBitIdentity:
    """The cascade's final answers equal its terminal tier's, always."""

    def test_d3_census(self, setup_d3, sample_d3):
        cascade = CascadeDecoder(
            setup_d3.ideal_gwt, structure=setup_d3.neighbor_structure
        )
        mwpm = MWPMDecoder(
            setup_d3.ideal_gwt,
            measure_time=False,
            structure=setup_d3.neighbor_structure,
        )
        _assert_bit_identical(
            cascade.decode_batch(sample_d3.detectors),
            mwpm.decode_batch(sample_d3.detectors),
        )
        front = cascade.stats.tiers["closed-form"]
        assert front.routed == len(sample_d3.detectors)
        # At d = 3 nominal noise the closed forms absorb most rows.
        assert front.solved > front.routed * 0.9

    def test_d5_census(self, setup_d5, sample_d5):
        cascade = CascadeDecoder(
            setup_d5.ideal_gwt, structure=setup_d5.neighbor_structure
        )
        mwpm = MWPMDecoder(
            setup_d5.ideal_gwt,
            measure_time=False,
            structure=setup_d5.neighbor_structure,
        )
        _assert_bit_identical(
            cascade.decode_batch(sample_d5.detectors),
            mwpm.decode_batch(sample_d5.detectors),
        )

    def test_decode_active_empty(self, setup_d3):
        cascade = CascadeDecoder(setup_d3.ideal_gwt)
        result = cascade.decode_active([])
        assert result.prediction is False
        assert result.matching == []

    def test_graph_only_mode(self, setup_d3, sample_d3):
        cascade = CascadeDecoder(None, graph=setup_d3.sparse_graph)
        assert isinstance(cascade._front, TrivialTier)
        mwpm = MWPMDecoder(
            None, graph=setup_d3.sparse_graph, measure_time=False
        )
        rows = sample_d3.detectors[:200]
        for c, m in zip(cascade.decode_batch(rows), mwpm.decode_batch(rows)):
            assert c.prediction == m.prediction


class TestTierStats:
    def test_counter_invariant(self, setup_d3, sample_d3):
        cascade = CascadeDecoder(setup_d3.ideal_gwt)
        cascade.decode_batch(sample_d3.detectors)
        front = cascade.stats.tiers["closed-form"]
        assert front.routed == front.declined + front.solved + front.escalated
        terminal = cascade.stats.tiers["mwpm"]
        assert terminal.routed == front.declined + front.escalated
        assert terminal.routed == terminal.solved
        assert cascade.escalation_rate == pytest.approx(
            terminal.routed / front.routed
        )

    def test_as_dict_shape(self, setup_d3, sample_d3):
        cascade = CascadeDecoder(setup_d3.ideal_gwt)
        cascade.decode_batch(sample_d3.detectors[:100])
        stats = cascade.stats.as_dict()
        assert list(stats) == ["closed-form", "mwpm"]
        for name in ("closed-form", "mwpm"):
            tier = stats[name]
            assert {"routed", "solved", "declined", "escalated"} <= set(tier)
            assert "latency" in tier

    def test_last_tiers_tracks_finalizer(self, setup_d3):
        cascade = CascadeDecoder(setup_d3.ideal_gwt)
        cascade.decode_active([])
        assert cascade.last_tiers == ["closed-form"]


class TestRouting:
    def test_max_local_weight_declines_heavy_rows(self, setup_d3, sample_d3):
        """The graph-only front tier caps local rows at Hamming weight 0."""
        capped = CascadeDecoder(None, graph=setup_d3.sparse_graph)
        mwpm = MWPMDecoder(
            None, graph=setup_d3.sparse_graph, measure_time=False
        )
        rows = sample_d3.detectors[:300]
        results = capped.decode_batch(rows)
        front = capped.stats.tiers["trivial"]
        nonempty = int(np.count_nonzero(rows.sum(axis=1)))
        assert nonempty > 0
        assert front.declined == nonempty
        assert front.escalated == 0
        assert capped.stats.tiers["mwpm"].routed == nonempty
        _assert_bit_identical(results, mwpm.decode_batch(rows))


class TestCascadeCore:
    def test_needs_a_tier(self):
        with pytest.raises(ValueError):
            Cascade([])

    def test_terminal_must_solve(self, setup_d3):
        class Decliner:
            name = "decliner"
            syndrome_length = setup_d3.ideal_gwt.weights.shape[0]

            def decode_batch(self, syndromes):
                return [None] * syndromes.shape[0]

        cascade = Cascade([DecoderTier(Decliner())])
        with pytest.raises(RuntimeError):
            cascade.run(np.ones((1, Decliner.syndrome_length), dtype=bool))


class TestEscalationPolicy:
    def test_without_next_tier_counts_and_returns_false(self):
        policy = EscalationPolicy("MWPM", tier="sparse")
        assert policy.escalate("SparseEngineError", "boom") is False
        assert policy.escalations == 1

    def test_with_next_tier_warns_and_returns_true(self):
        policy = EscalationPolicy("MWPM", tier="sparse", next_tier="dense")
        with pytest.warns(DecoderFallbackWarning):
            assert policy.escalate("SparseEngineError", "boom") is True
        assert policy.escalations == 1

    def test_mwpm_exposes_policy_as_fallback_events(self, setup_d3):
        decoder = MWPMDecoder(setup_d3.ideal_gwt, measure_time=False)
        assert decoder.fallback_events == 0
        assert decoder._escalation.next_tier == "dense"


class TestTierLadder:
    def test_shed_and_promote_hysteresis(self):
        ladder = TierLadder(("sliding-window", "union-find"))
        assert ladder.current == "sliding-window"
        assert not ladder.degraded
        assert ladder.shed() == "union-find"
        assert ladder.degraded
        # At the bottom rung further sheds are refused.
        assert ladder.shed() is None
        assert ladder.current == "union-find"
        # Queue above half the limit: stay degraded.
        assert ladder.consider_promote(9, 16) is None
        assert ladder.current == "union-find"
        # Queue at half the limit: climb one rung.
        assert ladder.consider_promote(8, 16) == "sliding-window"
        assert not ladder.degraded
        # Already at the top: promotion is a no-op.
        assert ladder.consider_promote(0, 16) is None

    def test_multi_rung_sheds_one_at_a_time(self):
        ladder = TierLadder(("a", "b", "c"))
        assert ladder.shed() == "b"
        assert ladder.shed() == "c"
        assert ladder.shed() is None
        assert ladder.consider_promote(0, 16) == "b"
        assert ladder.consider_promote(0, 16) == "a"

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            TierLadder(())


class TestRegistry:
    def test_registered_with_capabilities(self):
        from repro.decoders import registry

        assert "cascade" in registry.decoder_names("cli")
        spec = registry.get_decoder_spec("cascade")
        assert "cascade" in spec.capabilities
        assert "service-tier" in spec.capabilities

    def test_make_decoder(self, setup_d3, sample_d3):
        from repro.decoders.registry import make_decoder

        cascade = make_decoder("cascade", setup_d3)
        mwpm = MWPMDecoder(
            setup_d3.ideal_gwt,
            graph=setup_d3.graph,
            measure_time=False,
            structure=setup_d3.neighbor_structure,
        )
        rows = sample_d3.detectors[:300]
        _assert_bit_identical(
            cascade.decode_batch(rows), mwpm.decode_batch(rows)
        )
