"""Content-addressed persistence and bounded caching of pipeline stages.

Every derived stage of the decoding stack (DEM, decoding graph, weight
tables, neighbor structures) is a pure function of the memory circuit, so
one content address -- the :func:`~repro.pipeline.fingerprint.
experiment_fingerprint` of that circuit -- keys them all.  This module
provides the two caching layers of :class:`~repro.pipeline.stages.
DecodingPipeline`:

* :class:`StageCache` -- a bounded in-memory LRU with hit/miss/evict
  counters (replacing the old unbounded process-global ``_CACHE`` of
  ``experiments/setup.py``; counters surface via ``repro info``);
* :class:`ArtifactStore` -- an on-disk store addressed by
  ``fingerprint / stage`` whose files carry a JSON header (layout magic,
  stage name, per-stage format version, fingerprint, SHA-256 blob
  checksum) followed by an ``npz`` payload of plain arrays.  Nothing is
  pickled: loading validates the header and checksum and decodes with
  ``allow_pickle=False``, so a corrupted, foreign or stale-version file
  raises :class:`ArtifactError` (a :class:`~repro.ioutil.
  CorruptResultError`) instead of executing arbitrary bytes.

The per-stage ``STAGE_FORMAT_VERSIONS`` bump whenever a stage's encoded
layout (or the semantics of what it caches) changes; a version mismatch
is indistinguishable from corruption on purpose -- callers discard and
rebuild.
"""

from __future__ import annotations

import io
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable

import numpy as np

from ..graphs.decoding_graph import DecodingGraph, GraphEdge, NeighborStructure
from ..graphs.weights import GlobalWeightTable
from ..ioutil import CorruptResultError, atomic_write_bytes, sha256_bytes
from ..sim.dem import DetectorErrorModel, FaultMechanism

__all__ = [
    "ArtifactError",
    "ArtifactStore",
    "CacheStats",
    "STAGE_FORMAT_VERSIONS",
    "StageCache",
    "StoreStats",
    "decode_artifact",
    "decode_stage",
    "default_artifact_store",
    "encode_artifact",
    "encode_stage",
    "set_stage_cache_capacity",
    "stage_cache",
]

#: Magic tag of the artifact header line.
ARTIFACT_MAGIC = "repro-artifact"

#: Version of the header + npz container layout itself.
ARTIFACT_LAYOUT_VERSION = 1

#: Per-stage format versions.  Bump a stage's version whenever its encoded
#: array layout changes; stored artifacts from older versions are then
#: discarded and rebuilt instead of misread.  The CI artifact cache is
#: keyed by this mapping, so a bump also invalidates cross-job caches.
STAGE_FORMAT_VERSIONS: dict[str, int] = {
    "dem": 1,
    # v2: graph blobs additionally persist the canonical CSR adjacency and
    # the boundary-Dijkstra radii/parities, so decoders that only need
    # graph-local structure skip both recomputations on a warm store.
    "sparse_graph": 2,
    "graph": 2,
    # v2: the gwt stages became optional (PipelineConfig.dense_weights);
    # v1 blobs predate the gating and are rejected rather than silently
    # resolved for configurations that no longer build them.
    "gwt": 2,
    "ideal_gwt": 2,
    "neighbor_structure": 1,
    "quantized_neighbor_structure": 1,
}

#: Environment variable naming a default on-disk artifact store root.
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Default capacity of the process-global stage cache, in stage objects
#: (one built configuration occupies at most ~8 entries).
DEFAULT_STAGE_CACHE_CAPACITY = 256


class ArtifactError(CorruptResultError):
    """A stored pipeline artifact failed validation.

    Raised on garbled headers, checksum mismatches, stage/fingerprint
    mismatches and stale format versions.  Subclasses
    :class:`~repro.ioutil.CorruptResultError` (hence :class:`ValueError`).
    """


# ----------------------------------------------------------------------
# Bounded in-memory stage cache
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`StageCache`.

    Attributes:
        hits: Lookups served from the cache.
        misses: Lookups that found nothing.
        evictions: Entries dropped to respect the capacity bound.
        size: Entries currently held.
        capacity: Maximum entries held at once.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int


class StageCache:
    """Bounded LRU cache of built pipeline stages.

    Replaces the unbounded process-global construction cache: a sweep
    over many ``(distance, p)`` points now recycles the oldest stage
    objects instead of growing without bound, and the counters make the
    cache's behaviour observable (``repro info``).

    Args:
        capacity: Maximum entries held; least-recently-used entries are
            evicted beyond it.
    """

    def __init__(self, capacity: int = DEFAULT_STAGE_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` (and mark it recently used)."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/evict counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )


_GLOBAL_STAGE_CACHE = StageCache()


def stage_cache() -> StageCache:
    """The process-global stage cache shared by ``DecodingSetup.build``."""
    return _GLOBAL_STAGE_CACHE


def set_stage_cache_capacity(capacity: int) -> None:
    """Rebound the process-global stage cache (drops current entries)."""
    global _GLOBAL_STAGE_CACHE
    _GLOBAL_STAGE_CACHE = StageCache(capacity)


# ----------------------------------------------------------------------
# Stage object <-> plain-array codecs
# ----------------------------------------------------------------------


def _encode_dem(dem: DetectorErrorModel) -> tuple[dict, dict]:
    mechanisms = dem.mechanisms
    det_offsets = np.zeros(len(mechanisms) + 1, dtype=np.int64)
    obs_offsets = np.zeros(len(mechanisms) + 1, dtype=np.int64)
    det_flat: list[int] = []
    obs_flat: list[int] = []
    probabilities = np.empty(len(mechanisms), dtype=np.float64)
    for i, mech in enumerate(mechanisms):
        probabilities[i] = mech.probability
        det_flat.extend(mech.detectors)
        obs_flat.extend(mech.observables)
        det_offsets[i + 1] = len(det_flat)
        obs_offsets[i + 1] = len(obs_flat)
    arrays = {
        "probabilities": probabilities,
        "det_flat": np.asarray(det_flat, dtype=np.int32),
        "det_offsets": det_offsets,
        "obs_flat": np.asarray(obs_flat, dtype=np.int32),
        "obs_offsets": obs_offsets,
    }
    meta = {
        "num_detectors": int(dem.num_detectors),
        "num_observables": int(dem.num_observables),
    }
    return arrays, meta


def _decode_dem(arrays: dict, meta: dict) -> DetectorErrorModel:
    probabilities = arrays["probabilities"]
    det_flat = arrays["det_flat"]
    det_offsets = arrays["det_offsets"]
    obs_flat = arrays["obs_flat"]
    obs_offsets = arrays["obs_offsets"]
    mechanisms = [
        FaultMechanism(
            probability=float(probabilities[i]),
            detectors=tuple(
                int(d) for d in det_flat[det_offsets[i] : det_offsets[i + 1]]
            ),
            observables=tuple(
                int(o) for o in obs_flat[obs_offsets[i] : obs_offsets[i + 1]]
            ),
        )
        for i in range(len(probabilities))
    ]
    return DetectorErrorModel(
        num_detectors=int(meta["num_detectors"]),
        num_observables=int(meta["num_observables"]),
        mechanisms=mechanisms,
    )


def _encode_graph(graph: DecodingGraph) -> tuple[dict, dict]:
    edges = graph.edges
    arrays = {
        "edge_u": np.asarray([e.u for e in edges], dtype=np.int32),
        "edge_v": np.asarray([e.v for e in edges], dtype=np.int32),
        "edge_p": np.asarray([e.probability for e in edges], dtype=np.float64),
        "edge_w": np.asarray([e.weight for e in edges], dtype=np.float64),
        "edge_flips": np.asarray(
            [e.flips_observable for e in edges], dtype=bool
        ),
        "pair_weights": graph.pair_weights,
        "pair_parities": graph.pair_parities,
        "predecessors": graph.predecessors,
    }
    # Persist the graph-local derived structure (format v2): the collapsed
    # CSR adjacency and the boundary-Dijkstra tables are deterministic
    # functions of the edge list, so storing them trades a few O(E) arrays
    # for skipping their construction entirely on load.
    indptr, indices, weights, parities = graph.csr_adjacency()
    radii, bparities = graph.boundary_distances()
    arrays.update(
        csr_indptr=indptr,
        csr_indices=indices,
        csr_weights=weights,
        csr_parities=parities,
        boundary_radii=radii,
        boundary_parities=bparities,
    )
    return arrays, {"num_detectors": int(graph.num_detectors)}


def _decode_graph(arrays: dict, meta: dict) -> DecodingGraph:
    from ..graphs.decoding_graph import BOUNDARY  # local: avoid name shadowing

    edges = [
        GraphEdge(
            u=int(u),
            v=int(v),
            probability=float(p),
            weight=float(w),
            flips_observable=bool(f),
        )
        for u, v, p, w, f in zip(
            arrays["edge_u"],
            arrays["edge_v"],
            arrays["edge_p"],
            arrays["edge_w"],
            arrays["edge_flips"],
        )
    ]
    graph = DecodingGraph(
        num_detectors=int(meta["num_detectors"]),
        edges=edges,
        pair_weights=arrays["pair_weights"],
        pair_parities=arrays["pair_parities"],
        predecessors=arrays["predecessors"],
    )
    # Same insertion order as DecodingGraph.from_dem, so local decoders
    # (Union-Find, Clique) walk bit-identical adjacency lists.
    for edge in edges:
        graph.adjacency.setdefault(edge.u, []).append(edge)
        if edge.v != BOUNDARY:
            graph.adjacency.setdefault(edge.v, []).append(edge)
    if "csr_indptr" in arrays:
        object.__setattr__(
            graph,
            "_csr_adjacency",
            (
                arrays["csr_indptr"],
                arrays["csr_indices"],
                arrays["csr_weights"],
                arrays["csr_parities"],
            ),
        )
        object.__setattr__(
            graph,
            "_boundary_distances",
            (arrays["boundary_radii"], arrays["boundary_parities"]),
        )
    return graph


def _encode_sparse_graph(graph: DecodingGraph) -> tuple[dict, dict]:
    # Edges and detector count only: the sparse graph never carries the
    # all-pairs tables, so its artifact stays O(E).
    arrays, meta = _encode_graph(graph)
    for name in ("pair_weights", "pair_parities", "predecessors"):
        del arrays[name]
    return arrays, meta


def _decode_sparse_graph(arrays: dict, meta: dict) -> DecodingGraph:
    arrays = dict(arrays)
    arrays["pair_weights"] = np.zeros((0, 0), dtype=np.float64)
    arrays["pair_parities"] = np.zeros((0, 0), dtype=bool)
    arrays["predecessors"] = np.zeros((0, 0), dtype=np.int32)
    return _decode_graph(arrays, meta)


def _encode_gwt(gwt: GlobalWeightTable) -> tuple[dict, dict]:
    arrays = {"weights": gwt.weights, "parities": gwt.parities}
    return arrays, {"lsb": gwt.lsb}


def _decode_gwt(arrays: dict, meta: dict) -> GlobalWeightTable:
    lsb = meta.get("lsb")
    return GlobalWeightTable(
        weights=arrays["weights"],
        parities=arrays["parities"],
        lsb=None if lsb is None else float(lsb),
    )


def _encode_structure(structure: NeighborStructure) -> tuple[dict, dict]:
    offsets = np.zeros(len(structure.neighbors) + 1, dtype=np.int64)
    for i, nbrs in enumerate(structure.neighbors):
        offsets[i + 1] = offsets[i] + len(nbrs)
    flat = (
        np.concatenate(structure.neighbors)
        if structure.neighbors
        else np.zeros(0, dtype=np.intp)
    )
    arrays = {
        "radii": structure.radii,
        "close": structure.close,
        "separable": structure.separable,
        "unsafe": structure.unsafe,
        "neighbors_flat": flat.astype(np.int64),
        "neighbor_offsets": offsets,
    }
    return arrays, {}


def _decode_structure(arrays: dict, meta: dict) -> NeighborStructure:
    offsets = arrays["neighbor_offsets"]
    flat = arrays["neighbors_flat"].astype(np.intp)
    neighbors = [
        flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)
    ]
    return NeighborStructure(
        radii=arrays["radii"],
        close=arrays["close"],
        separable=arrays["separable"],
        unsafe=arrays["unsafe"],
        neighbors=neighbors,
    )


#: stage name -> (encode, decode) codec over (arrays, meta) pairs.
STAGE_CODECS = {
    "dem": (_encode_dem, _decode_dem),
    "sparse_graph": (_encode_sparse_graph, _decode_sparse_graph),
    "graph": (_encode_graph, _decode_graph),
    "gwt": (_encode_gwt, _decode_gwt),
    "ideal_gwt": (_encode_gwt, _decode_gwt),
    "neighbor_structure": (_encode_structure, _decode_structure),
    "quantized_neighbor_structure": (_encode_structure, _decode_structure),
}


def encode_stage(stage: str, obj: Any) -> tuple[dict, dict]:
    """Encode a stage object as (plain arrays, JSON-ready meta)."""
    try:
        encode, _decode = STAGE_CODECS[stage]
    except KeyError:
        raise ValueError(f"stage {stage!r} has no artifact codec") from None
    return encode(obj)


def decode_stage(stage: str, arrays: dict, meta: dict) -> Any:
    """Rebuild a stage object from its encoded arrays and meta."""
    try:
        _encode, decode = STAGE_CODECS[stage]
    except KeyError:
        raise ValueError(f"stage {stage!r} has no artifact codec") from None
    return decode(arrays, meta)


# ----------------------------------------------------------------------
# Artifact container: header line + npz blob
# ----------------------------------------------------------------------


def encode_artifact(
    stage: str,
    version: int,
    fingerprint: str,
    arrays: dict,
    meta: dict,
) -> bytes:
    """Serialise one stage artifact to its on-disk byte layout.

    The layout is a single JSON header line (magic, layout version, stage
    name, stage format version, fingerprint, blob checksum, meta)
    followed by an ``np.savez`` blob of the arrays.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    blob = buffer.getvalue()
    header = {
        "magic": ARTIFACT_MAGIC,
        "layout": ARTIFACT_LAYOUT_VERSION,
        "stage": stage,
        "version": int(version),
        "fingerprint": fingerprint,
        "checksum": sha256_bytes(blob),
        "meta": meta,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob


def decode_artifact(
    data: bytes,
    *,
    stage: str,
    version: int,
    fingerprint: str | None,
    source: str = "artifact",
) -> tuple[dict, dict]:
    """Validate and decode one stage artifact's byte layout.

    Args:
        data: Full artifact file contents.
        stage: Expected stage name.
        version: Expected stage format version.
        fingerprint: Expected experiment fingerprint (None skips the
            check -- the caller verifies identity another way).
        source: Human-readable origin for error messages.

    Returns:
        The ``(arrays, meta)`` pair.

    Raises:
        ArtifactError: On a garbled header, wrong magic/stage/fingerprint,
            stale format version, or blob checksum mismatch.
    """
    head, sep, blob = data.partition(b"\n")
    if not sep:
        raise ArtifactError(f"{source}: truncated artifact (no header line)")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"{source}: garbled artifact header ({exc})"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != ARTIFACT_MAGIC:
        raise ArtifactError(f"{source}: not a pipeline artifact")
    if header.get("layout") != ARTIFACT_LAYOUT_VERSION:
        raise ArtifactError(
            f"{source}: unsupported artifact layout "
            f"{header.get('layout')!r} (this build reads layout "
            f"{ARTIFACT_LAYOUT_VERSION})"
        )
    if header.get("stage") != stage:
        raise ArtifactError(
            f"{source}: holds stage {header.get('stage')!r}, "
            f"expected {stage!r}"
        )
    if header.get("version") != int(version):
        raise ArtifactError(
            f"{source}: stale stage format version "
            f"{header.get('version')!r} (this build reads version "
            f"{version} for {stage!r})"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise ArtifactError(
            f"{source}: artifact belongs to a different experiment "
            "(fingerprint mismatch)"
        )
    if sha256_bytes(blob) != header.get("checksum"):
        raise ArtifactError(
            f"{source}: blob checksum mismatch -- the artifact was "
            "truncated or altered after it was written"
        )
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as loaded:
            arrays = {name: loaded[name] for name in loaded.files}
    except Exception as exc:
        raise ArtifactError(
            f"{source}: artifact blob failed to decode ({exc})"
        ) from exc
    meta = header.get("meta")
    return arrays, meta if isinstance(meta, dict) else {}


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time counters of an :class:`ArtifactStore`.

    Attributes:
        disk_hits: Loads served from a valid on-disk artifact.
        disk_misses: Loads that found no artifact on disk.
        saves: Artifacts written.
        invalidated: Corrupt or stale artifacts discarded (then rebuilt
            by the pipeline rather than trusted).
    """

    disk_hits: int
    disk_misses: int
    saves: int
    invalidated: int


class ArtifactStore:
    """Content-addressed on-disk store of pipeline stage artifacts.

    Artifacts live at ``<root>/<fp[:2]>/<fp>/<stage>.artifact`` where
    ``fp`` is the experiment fingerprint; the per-stage format version
    travels in the file header and is validated on load.  Writes are
    atomic (temp file + rename); loads validate magic, stage, version,
    fingerprint and blob checksum before decoding any array.

    Args:
        root: Store root directory (created on first save).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.disk_hits = 0
        self.disk_misses = 0
        self.saves = 0
        self.invalidated = 0

    def path(self, fingerprint: str, stage: str) -> Path:
        """On-disk location of one stage artifact."""
        return self.root / fingerprint[:2] / fingerprint / f"{stage}.artifact"

    def save(
        self,
        fingerprint: str,
        stage: str,
        obj: Any,
        *,
        version: int | None = None,
    ) -> Path:
        """Encode and atomically persist one stage object.

        Args:
            fingerprint: Experiment fingerprint the stage derives from.
            stage: Stage name (must have a codec).
            obj: The stage object.
            version: Stage format version (defaults to the current
                :data:`STAGE_FORMAT_VERSIONS` entry).

        Returns:
            The written path.
        """
        if version is None:
            version = STAGE_FORMAT_VERSIONS[stage]
        arrays, meta = encode_stage(stage, obj)
        data = encode_artifact(stage, version, fingerprint, arrays, meta)
        path = self.path(fingerprint, stage)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, data)
        self.saves += 1
        return path

    def load(
        self,
        fingerprint: str,
        stage: str,
        *,
        version: int | None = None,
    ) -> Any:
        """Load, validate and decode one stage object.

        Returns:
            The decoded stage object, or ``None`` when no artifact exists
            for this (fingerprint, stage).

        Raises:
            ArtifactError: When an artifact exists but fails validation
                (corruption, foreign fingerprint, stale format version).
        """
        if version is None:
            version = STAGE_FORMAT_VERSIONS[stage]
        path = self.path(fingerprint, stage)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.disk_misses += 1
            return None
        arrays, meta = decode_artifact(
            data,
            stage=stage,
            version=version,
            fingerprint=fingerprint,
            source=str(path),
        )
        self.disk_hits += 1
        return decode_stage(stage, arrays, meta)

    def discard(self, fingerprint: str, stage: str) -> None:
        """Delete one stage artifact (counted as an invalidation)."""
        path = self.path(fingerprint, stage)
        if path.exists():
            path.unlink()
            self.invalidated += 1

    @property
    def stats(self) -> StoreStats:
        """Current disk hit/miss/save/invalidation counters."""
        return StoreStats(
            disk_hits=self.disk_hits,
            disk_misses=self.disk_misses,
            saves=self.saves,
            invalidated=self.invalidated,
        )


_DEFAULT_STORES: dict[str, ArtifactStore] = {}


def artifact_store_for(root: str | Path) -> ArtifactStore:
    """The process-wide store instance for a root (counters aggregate)."""
    key = str(root)
    store = _DEFAULT_STORES.get(key)
    if store is None:
        store = _DEFAULT_STORES[key] = ArtifactStore(key)
    return store


def default_artifact_store() -> ArtifactStore | None:
    """The environment-configured artifact store, if any.

    Reads :data:`ARTIFACT_DIR_ENV` (``REPRO_ARTIFACT_DIR``); one store
    instance is kept per configured root so counters aggregate
    process-wide.  Returns ``None`` when the variable is unset -- callers
    then run memory-cached but diskless.
    """
    root = os.environ.get(ARTIFACT_DIR_ENV)
    if not root:
        return None
    return artifact_store_for(root)
