"""Declarative decoder registry: one dispatch path for every frontend.

The CLI's ``make_decoder`` if/elif ladder, the per-benchmark constructor
copies and the example scripts all used to hand-build decoders, each with
its own (slightly diverging) defaults.  This module replaces them with a
single registry: decoders declare themselves once via
:func:`register_decoder` with a factory over a built
:class:`~repro.experiments.setup.DecodingSetup`, and the CLI, sweeps,
``compare_decoders``, benchmarks and examples all resolve names through
:func:`make_decoder`.

Factories receive only the options their signature declares:
:func:`make_decoder` inspects the factory and silently drops the *shared
knobs* (``weight_threshold``, ``budget_ns``) that frontends pass to every
decoder uniformly, while any other unknown option raises.  Factories pull
pre-built stages (cached neighbor structures in particular) off the
setup, so constructing a decoder never recompiles what the pipeline
already holds.

Third-party decoders join the same dispatch by registering themselves::

    from repro.decoders.registry import register_decoder

    def _my_decoder(setup, *, my_knob=1.0):
        return MyDecoder(setup.ideal_gwt, knob=my_knob)

    register_decoder(
        "my-decoder", _my_decoder,
        capabilities=("software",),
        description="my exact decoder",
    )

after which ``repro ler --decoder my-decoder`` (add the ``"cli"``
capability), sweeps by name and ``compare_decoders`` all work unchanged.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "DecoderSpec",
    "decoder_names",
    "get_decoder_spec",
    "make_decoder",
    "register_decoder",
    "unregister_decoder",
]

#: Options every frontend forwards uniformly; a factory that does not
#: declare them simply does not receive them (instead of raising).
SHARED_KNOBS = frozenset({"weight_threshold", "budget_ns"})


@dataclass(frozen=True)
class DecoderSpec:
    """One registered decoder.

    Attributes:
        name: Registry (and CLI) name.
        factory: Builds the decoder from a ``DecodingSetup`` plus keyword
            options.
        capabilities: Free-form tags (``"cli"`` exposes the decoder as a
            ``--decoder`` choice; others: ``"exact"``, ``"realtime"``,
            ``"baseline"``, ``"streaming"``...).
        description: One-line human-readable summary.
    """

    name: str
    factory: Callable[..., Any]
    capabilities: tuple[str, ...] = field(default_factory=tuple)
    description: str = ""


_REGISTRY: dict[str, DecoderSpec] = {}


def register_decoder(
    name: str,
    factory: Callable[..., Any],
    *,
    capabilities: tuple[str, ...] | list[str] = (),
    description: str = "",
    replace: bool = False,
) -> DecoderSpec:
    """Register a decoder factory under a name.

    Args:
        name: Registry name (the CLI ``--decoder`` spelling when the
            ``"cli"`` capability is present).
        factory: ``factory(setup, **options) -> Decoder``.  Only options
            named in the factory's signature are forwarded.
        capabilities: Capability tags.
        description: One-line summary (shown by ``repro info``).
        replace: Allow overwriting an existing registration.

    Returns:
        The stored :class:`DecoderSpec`.

    Raises:
        ValueError: When ``name`` is already registered and ``replace``
            is False.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"decoder {name!r} is already registered; pass replace=True "
            "to overwrite"
        )
    spec = DecoderSpec(
        name=name,
        factory=factory,
        capabilities=tuple(capabilities),
        description=description,
    )
    _REGISTRY[name] = spec
    return spec


def unregister_decoder(name: str) -> None:
    """Remove a registration (primarily for tests of third-party flows)."""
    _REGISTRY.pop(name, None)


def decoder_names(capability: str | None = None) -> tuple[str, ...]:
    """Registered names, in registration order.

    Args:
        capability: When given, only decoders carrying this capability
            tag (e.g. ``"cli"`` for the ``--decoder`` choices).
    """
    return tuple(
        name
        for name, spec in _REGISTRY.items()
        if capability is None or capability in spec.capabilities
    )


def get_decoder_spec(name: str) -> DecoderSpec:
    """Look up one registration.

    Raises:
        ValueError: For unknown names (listing the registered ones).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown decoder {name!r}; pick from {decoder_names()}"
        ) from None


def make_decoder(name: str, setup, **options: Any) -> Any:
    """Instantiate a registered decoder against a built setup.

    Options are filtered against the factory's signature: shared knobs
    the factory does not declare are dropped, anything else unknown
    raises.

    Args:
        name: A registered decoder name.
        setup: The :class:`~repro.experiments.setup.DecodingSetup` (or
            pipeline facade) to attach to.
        **options: Decoder options (e.g. ``weight_threshold=5.5``).

    Returns:
        A ready-to-use decoder.

    Raises:
        ValueError: For unknown decoder names.
        TypeError: For options the factory does not accept (beyond the
            droppable shared knobs).
    """
    spec = get_decoder_spec(name)
    parameters = inspect.signature(spec.factory).parameters
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    if not accepts_kwargs:
        accepted = {
            p.name
            for p in parameters.values()
            if p.kind
            in (
                inspect.Parameter.KEYWORD_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        }
        unknown = set(options) - accepted - SHARED_KNOBS
        if unknown:
            raise TypeError(
                f"decoder {name!r} does not accept option(s) "
                f"{sorted(unknown)}; its factory takes {sorted(accepted - {'setup'})}"
            )
        options = {k: v for k, v in options.items() if k in accepted}
    return spec.factory(setup, **options)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------


def _structure_for(setup, gwt) -> Any:
    """The setup's cached neighbor structure matching ``gwt``, if any."""
    if gwt is getattr(setup, "ideal_gwt", None):
        return setup.neighbor_structure
    if gwt is getattr(setup, "gwt", None):
        return setup.quantized_neighbor_structure
    return None


def _make_mwpm(
    setup,
    *,
    quantized: bool = False,
    measure_time: bool = False,
    use_sparse: bool = True,
    sparse_cache_size: int = 65536,
    gwt=None,
):
    from .mwpm import MWPMDecoder

    if not getattr(getattr(setup, "config", None), "dense_weights", True):
        # No all-pairs tables exist for this config: decode purely on the
        # decoding graph (the d >= 15 configuration).
        if quantized or gwt is not None:
            raise ValueError(
                "quantized/explicit weight tables need dense weights; this "
                "pipeline was configured with dense_weights=False (graph-"
                "only MWPM)"
            )
        return MWPMDecoder(
            None,
            graph=setup.sparse_graph,
            measure_time=measure_time,
            use_sparse=use_sparse,
            sparse_cache_size=sparse_cache_size,
        )
    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    structure = _structure_for(setup, table) if use_sparse else None
    # The graph-local engine is exact only against the ideal (unquantized)
    # all-pairs table, whose entries it re-derives during growth; it takes
    # the table engine's escape routes (unsafe pairs, oversized clusters).
    graph = (
        setup.graph
        if use_sparse and table is getattr(setup, "ideal_gwt", None)
        else None
    )
    return MWPMDecoder(
        table,
        graph=graph,
        measure_time=measure_time,
        use_sparse=use_sparse,
        sparse_cache_size=sparse_cache_size,
        structure=structure,
    )


def _make_astrea(
    setup,
    *,
    quantized: bool = True,
    timing=None,
    max_hamming_weight: int = 10,
    use_vectorized: bool = True,
    gwt=None,
):
    from .astrea import AstreaDecoder

    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return AstreaDecoder(
        table,
        timing=timing,
        max_hamming_weight=max_hamming_weight,
        use_vectorized=use_vectorized,
    )


def _make_astrea_g(
    setup,
    *,
    quantized: bool = True,
    weight_threshold: float = 7.0,
    budget_ns: float | None = None,
    timing=None,
    fetch_width: int = 2,
    queue_capacity: int = 8,
    exhaustive_cutoff: int = 10,
    min_candidates: int = 2,
    use_vectorized: bool = True,
    gwt=None,
):
    from ..hw.latency import FpgaTiming
    from .astrea_g import AstreaGDecoder

    if timing is None and budget_ns is not None:
        timing = FpgaTiming(realtime_budget_ns=float(budget_ns))
    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return AstreaGDecoder(
        table,
        weight_threshold=weight_threshold,
        fetch_width=fetch_width,
        queue_capacity=queue_capacity,
        timing=timing,
        exhaustive_cutoff=exhaustive_cutoff,
        min_candidates=min_candidates,
        use_vectorized=use_vectorized,
    )


def _make_union_find(setup, *, growth_resolution: float = 2.0):
    from .union_find import UnionFindDecoder

    return UnionFindDecoder(setup.graph, growth_resolution=growth_resolution)


def _make_clique(setup, *, quantized: bool = False, gwt=None):
    from .clique import CliqueDecoder

    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return CliqueDecoder(
        setup.graph, table, structure=_structure_for(setup, table)
    )


def _make_cascade(
    setup,
    *,
    quantized: bool = False,
    gwt=None,
):
    from .cascade import CascadeDecoder

    if not getattr(getattr(setup, "config", None), "dense_weights", True):
        # No all-pairs tables exist: the front tier degenerates to the
        # trivial (empty-syndrome) tier over graph-only MWPM.
        if quantized or gwt is not None:
            raise ValueError(
                "quantized/explicit weight tables need dense weights; this "
                "pipeline was configured with dense_weights=False (graph-"
                "only cascade)"
            )
        return CascadeDecoder(None, graph=setup.sparse_graph)
    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    structure = _structure_for(setup, table)
    # Arm the terminal tier's graph-local engine exactly as _make_mwpm
    # does: only against the ideal table, whose entries it re-derives.
    graph = setup.graph if table is getattr(setup, "ideal_gwt", None) else None
    return CascadeDecoder(table, graph=graph, structure=structure)


def _make_lilliput(setup, *, quantized: bool = False, gwt=None):
    from .lilliput import LilliputDecoder

    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return LilliputDecoder(
        table,
        setup.experiment.num_detectors,
        structure=_structure_for(setup, table),
    )


def _make_single_round(setup, *, quantized: bool = False, gwt=None):
    from .single_round import SingleRoundDecoder

    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return SingleRoundDecoder(table, setup.experiment)


def _make_sliding_window(
    setup,
    *,
    quantized: bool = False,
    window: int = 6,
    commit: int = 2,
    gwt=None,
):
    from .windowed import SlidingWindowDecoder

    table = gwt if gwt is not None else (setup.gwt if quantized else setup.ideal_gwt)
    return SlidingWindowDecoder(
        table, setup.graph, setup.experiment, window=window, commit=commit
    )


register_decoder(
    "mwpm",
    _make_mwpm,
    capabilities=("cli", "exact", "software"),
    description="exact software MWPM (sparse engine, ideal weights)",
)
register_decoder(
    "astrea",
    _make_astrea,
    capabilities=("cli", "exact", "realtime"),
    description="Astrea exhaustive-search accelerator (quantized GWT)",
)
register_decoder(
    "astrea-g",
    _make_astrea_g,
    capabilities=("cli", "realtime"),
    description="Astrea-G greedy-predecoded accelerator (quantized GWT)",
)
register_decoder(
    "union-find",
    _make_union_find,
    capabilities=("cli", "baseline", "realtime", "service-tier"),
    description="Union-Find (AFS-style) baseline on the primitive graph",
)
register_decoder(
    "clique",
    _make_clique,
    capabilities=("cli", "baseline", "service-tier"),
    description="Clique local pre-decoder with software-MWPM fallback",
)
register_decoder(
    "cascade",
    _make_cascade,
    capabilities=("cli", "exact", "software", "cascade", "service-tier"),
    description="closed-form front tier over exact MWPM",
)
register_decoder(
    "lilliput",
    _make_lilliput,
    capabilities=("cli", "baseline"),
    description="LILLIPUT lookup table programmed by MWPM (small codes)",
)
register_decoder(
    "single-round",
    _make_single_round,
    capabilities=("ablation",),
    description="per-round decoder blind to time correlations (ablation)",
)
register_decoder(
    "sliding-window",
    _make_sliding_window,
    capabilities=("streaming",),
    description="sliding-window streaming decoder over the GWT",
)
