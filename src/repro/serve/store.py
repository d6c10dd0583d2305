"""The content-addressed result store behind the job server.

Entries are keyed by :meth:`repro.api.CalculationRequest.cache_key` — the
sha256 of the request's canonical serialization — so *equal key means
equal calculation* and a stored result can be served bit-identically with
zero recomputation.

Beyond exact hits, the store answers the *nearest-ground-state* query that
powers warm starts: given a new structure and SCF config, find the cached
converged ground state on the most similar geometry that is
**warm-compatible** (identical lattice, species, cutoff and band count —
the invariants that fix the array shapes and grids a warm start must
match), ranked by minimum-image RMS cartesian displacement.

Persistence is optional: with a ``directory`` the store writes each
serializable result as one npz+json payload (atomic, pickle-free — see
:mod:`repro.utils.serialization`) plus a small ``index.json`` of metadata,
and a fresh store pointed at the same directory serves previous sessions'
results without recomputing.  Results without a dict round-trip (batch
containers) stay memory-only.

Long-lived caches can bound their footprint with ``max_entries`` /
``max_bytes``: least-recently-used entries (access = ``put`` or ``get``)
are evicted — removed from memory, from ``index.json`` *and* from disk, so
the on-disk index never points at a deleted payload and a restarted store
sees exactly the surviving set.  Eviction order is deterministic: strict
LRU, with entries inherited from a previous session's index seeded in
sorted-key order before anything accessed in this one.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.atoms.elements import valence_electron_count
from repro.utils.serialization import load_payload, save_payload
from repro.utils.validation import require

__all__ = [
    "ResultStore",
    "StoreEntry",
    "nearest_key",
    "resolved_n_bands",
    "rms_displacement",
    "warm_compatible",
]

_INDEX_NAME = "index.json"


def resolved_n_bands(scf_config, species) -> int:
    """The band count an SCF run with this config will actually compute.

    Mirrors the default rule in :func:`repro.dft.scf.run_scf`
    (``n_occ + max(4, n_occ // 2)``), so two configs that differ only in
    ``n_bands=None`` vs. the explicit default resolve identically.
    """
    n_electrons = valence_electron_count(tuple(species))
    n_occ = int(np.ceil(n_electrons / 2.0))
    if scf_config.n_bands is not None:
        return int(scf_config.n_bands)
    return n_occ + max(4, n_occ // 2)


def rms_displacement(structure_a: dict, structure_b: dict) -> float:
    """Minimum-image RMS cartesian displacement between two structures.

    Both arguments are :func:`repro.api.structure_to_dict` payloads with
    identical lattice and species ordering (callers check
    :func:`warm_compatible` first).  Fractional deltas are wrapped into
    ``[-0.5, 0.5)`` per axis before mapping to cartesian, so a position
    that crossed a periodic boundary still counts as a small move.
    """
    lattice = np.asarray(structure_a["lattice"], dtype=float)
    fa = np.asarray(structure_a["fractional_positions"], dtype=float)
    fb = np.asarray(structure_b["fractional_positions"], dtype=float)
    require(
        fa.shape == fb.shape,
        f"structures have different atom counts: {fa.shape} vs {fb.shape}",
    )
    delta = (fa - fb + 0.5) % 1.0 - 0.5
    cart = delta @ lattice
    return float(np.sqrt((cart * cart).sum(axis=1).mean()))


def warm_compatible(meta: dict, structure: dict, ecut: float, n_bands: int) -> bool:
    """Whether a cached ground state can warm-start this calculation.

    Compatibility is *exact* on everything that fixes array shapes and
    grids: lattice, species (count **and** order — orbitals are not
    permutation-invariant), plane-wave cutoff, and resolved band count.
    Only atomic positions may differ; their displacement is what
    :meth:`ResultStore.nearest_ground_state` ranks on.
    """
    cached = meta.get("structure")
    if cached is None:
        return False
    return (
        cached["lattice"] == structure["lattice"]
        and list(cached["species"]) == list(structure["species"])
        and len(cached["fractional_positions"])
        == len(structure["fractional_positions"])
        and float(meta.get("ecut", -1.0)) == float(ecut)
        and int(meta.get("n_bands", -1)) == int(n_bands)
    )


def nearest_key(entries: dict, structure: dict, ecut: float, n_bands: int):
    """``(key, rms)`` of the closest warm-compatible entry, or ``None``.

    ``entries`` maps cache key -> metadata dict.  Ties break on key order
    so the choice is deterministic across runs.
    """
    best = None
    for key in sorted(entries):
        meta = entries[key]
        if not warm_compatible(meta, structure, ecut, n_bands):
            continue
        rms = rms_displacement(meta["structure"], structure)
        if best is None or rms < best[1]:
            best = (key, rms)
    return best


@dataclass
class StoreEntry:
    """One cached calculation: the result plus reusable artifacts."""

    key: str
    result: object
    ground_state: object | None = None
    meta: dict = field(default_factory=dict)


def _payload_nbytes(entry: StoreEntry) -> int:
    """Array-buffer footprint of a memory-only entry, in bytes.

    Walks the result/ground-state object graph (dataclass ``__dict__``
    attributes, dicts, lists, tuples) and totals ``ndarray.nbytes``;
    non-array leaves count zero.  An estimate, not an accounting — arrays
    dominate every result class this store holds, and persisted entries
    are re-measured from their payload file anyway.
    """
    total = 0
    seen: set[int] = set()
    stack: list = [entry.result, entry.ground_state, entry.meta]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += int(obj.nbytes)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.extend(attrs.values())
    return total


def _result_classes():
    from repro.batch.results import BatchResult
    from repro.core.driver import LRTDDFTResult
    from repro.dft.groundstate import GroundState
    from repro.rt.tddft import RTResult

    return {
        "GroundState": GroundState,
        "LRTDDFTResult": LRTDDFTResult,
        "RTResult": RTResult,
        "BatchResult": BatchResult,
    }


class ResultStore:
    """Content-addressed result cache (in-memory, optionally persistent).

    Parameters
    ----------
    directory:
        Optional persistence root.  Existing payloads under it are indexed
        at construction and load lazily on first access.
    max_entries:
        Optional LRU bound on the number of entries (memory and disk
        combined).  ``None`` (default) means unbounded.
    max_bytes:
        Optional LRU bound on the store's payload footprint: persisted
        entries count their on-disk payload size, memory-only entries the
        total of their array buffers.  The most recently used entry is
        never evicted, so a single oversized result may transiently exceed
        the bound rather than making the store reject it.

    Notes
    -----
    Thread-safe.  ``put`` is last-writer-wins, which is harmless here:
    equal keys describe the same calculation, so concurrent writers store
    interchangeable values.

    Locking discipline: ``_lock`` guards the in-memory maps and is never
    held across disk I/O (payload writes/reads happen outside it, so a
    slow filesystem cannot stall readers); ``_io_lock`` is a leaf lock
    serializing ``index.json`` snapshots, version-gated so a stale
    snapshot never overwrites a newer one.  ``_lock`` may be taken before
    ``_io_lock``, never the reverse.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        require(
            max_entries is None or max_entries >= 1,
            f"max_entries must be >= 1, got {max_entries}",
        )
        require(
            max_bytes is None or max_bytes >= 1,
            f"max_bytes must be >= 1, got {max_bytes}",
        )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self._lock = threading.RLock()
        #: serializes index.json writes; see the class docstring.
        self._io_lock = threading.Lock()
        self._index_version = 0  # bumped under _lock per index mutation
        self._written_version = 0  # last version flushed (under _io_lock)
        self._entries: dict[str, StoreEntry] = {}
        #: cache key -> metadata for entries not yet loaded from disk.
        self._disk_index: dict[str, dict] = {}
        #: access recency over every known key, least recent first.
        self._lru: OrderedDict[str, None] = OrderedDict()
        #: cache key -> payload footprint in bytes (see ``max_bytes``).
        self._sizes: dict[str, int] = {}
        self.directory = os.fspath(directory) if directory is not None else None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            index_path = os.path.join(self.directory, _INDEX_NAME)
            if os.path.exists(index_path):
                with open(index_path, encoding="utf-8") as fh:
                    self._disk_index = json.load(fh)
            # Inherited entries seed the LRU in sorted-key order — nothing
            # has been accessed yet, so recency is a tie and sorting makes
            # the eviction order reproducible across sessions.
            for key in sorted(self._disk_index):
                self._lru[key] = None
                try:
                    self._sizes[key] = os.path.getsize(self._path(key))
                except OSError:
                    self._sizes[key] = 0
        self._evict()

    # -- basic mapping interface -------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(set(self._entries) | set(self._disk_index))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries or key in self._disk_index

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(set(self._entries) | set(self._disk_index)))

    def put(
        self,
        key: str,
        result,
        *,
        ground_state=None,
        meta: dict | None = None,
    ) -> StoreEntry:
        """Store ``result`` (and optional ground state) under ``key``."""
        entry = StoreEntry(
            key=key,
            result=result,
            ground_state=ground_state,
            meta=dict(meta or {}),
        )
        with self._lock:
            self._entries[key] = entry
            self._sizes[key] = _payload_nbytes(entry)
            self._touch(key)
        if self.directory is not None and hasattr(result, "to_dict"):
            # Disk write happens outside _lock so a slow filesystem never
            # stalls concurrent readers of the in-memory maps.
            self._persist(entry)
        self._evict()
        return entry

    def get(self, key: str) -> StoreEntry | None:
        """The entry for ``key``, loading from disk on first access."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._touch(key)
                return entry
            if key not in self._disk_index:
                return None
        # Disk read outside _lock; concurrent loads of the same key are
        # benign duplicates and setdefault keeps exactly one.
        try:
            loaded = self._load(key)
        except FileNotFoundError:
            # Evicted between the index check and the read.
            return None
        with self._lock:
            if key not in self._disk_index:  # pragma: no cover - eviction race
                return None
            self._touch(key)
            return self._entries.setdefault(key, loaded)

    def _touch(self, key: str) -> None:
        """Mark ``key`` most recently used (``_lock`` held)."""
        self._lru[key] = None
        self._lru.move_to_end(key)

    def stats(self) -> dict[str, int]:
        """Current occupancy, payload footprint, and eviction count."""
        with self._lock:
            return {
                "entries": len(self._lru),
                "bytes": sum(self._sizes.values()),
                "evictions": self.evictions,
            }

    # -- warm-start lookup --------------------------------------------------

    def nearest_ground_state(self, structure: dict, scf_config):
        """Closest warm-compatible cached ground state, or ``None``.

        Parameters
        ----------
        structure:
            :func:`repro.api.structure_to_dict` payload of the *new*
            calculation's structure.
        scf_config:
            Its :class:`~repro.api.SCFConfig` (decides cutoff/band count).

        Returns
        -------
        ``(ground_state, rms_displacement)`` — the cached
        :class:`~repro.dft.GroundState` on the most similar geometry, and
        how far (bohr) its atoms sit from the requested ones.  An exact
        hit returns ``rms == 0.0``; callers wanting bit-identical replay
        should check the exact key first.
        """
        n_bands = resolved_n_bands(scf_config, structure["species"])
        ecut = float(scf_config.ecut)
        with self._lock:
            metas = {
                key: entry.meta
                for key, entry in self._entries.items()
                if entry.ground_state is not None
            }
            for key, meta in self._disk_index.items():
                if key not in metas and meta.get("has_ground_state"):
                    metas[key] = meta
        best = nearest_key(metas, structure, ecut, n_bands)
        if best is None:
            return None
        key, rms = best
        entry = self.get(key)
        if entry is None or entry.ground_state is None:  # pragma: no cover
            return None
        return entry.ground_state, rms

    # -- persistence --------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.npz")

    def _persist(self, entry: StoreEntry) -> None:
        """Write the payload and refresh ``index.json`` (no ``_lock`` held).

        The index snapshot is serialized under ``_lock`` (pure CPU) and
        flushed under the leaf ``_io_lock``; the version gate drops
        snapshots that lost the race to a newer one, so the index on disk
        is always some complete recent state, never a rollback.
        """
        # When the result IS the ground state (scf entries) don't write the
        # same arrays twice; _load reunifies them.
        gs = entry.ground_state
        payload = {
            "class": type(entry.result).__name__,
            "data": entry.result.to_dict(),
            "ground_state": (
                gs.to_dict() if gs is not None and gs is not entry.result else None
            ),
            "meta": entry.meta,
        }
        path = self._path(entry.key)
        save_payload(path, payload)
        with self._lock:
            self._disk_index[entry.key] = {
                **entry.meta,
                "has_ground_state": entry.ground_state is not None,
            }
            # The on-disk payload is now the footprint that matters.
            try:
                self._sizes[entry.key] = os.path.getsize(path)
            except OSError:  # pragma: no cover - raced with eviction
                pass
            self._index_version += 1
            version = self._index_version
            snapshot = json.dumps(self._disk_index, indent=0, sort_keys=True)
        self._flush_index(version, snapshot)

    def _flush_index(self, version: int, snapshot: str) -> None:
        """Atomically write one ``index.json`` snapshot (no ``_lock`` held)."""
        index_path = os.path.join(self.directory, _INDEX_NAME)
        with self._io_lock:
            if version <= self._written_version:
                return  # a newer snapshot already reached disk
            self._written_version = version
            tmp = f"{index_path}.{os.getpid()}.{version}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(snapshot)
            os.replace(tmp, index_path)

    # -- eviction ------------------------------------------------------------

    def _evict(self) -> None:
        """Drop least-recently-used entries until both bounds hold.

        Victims are selected under ``_lock``; their payload files are
        removed after it is released (readers racing a deletion get a
        clean miss via the ``FileNotFoundError`` guard in :meth:`get`).
        The surviving index is flushed once per eviction sweep, so
        ``index.json`` never names a deleted payload.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        victims: list[str] = []
        snapshot = None
        version = 0
        with self._lock:
            # Never evict the most recently used entry (hence > 1).
            while len(self._lru) > 1:
                over_entries = (
                    self.max_entries is not None
                    and len(self._lru) > self.max_entries
                )
                over_bytes = (
                    self.max_bytes is not None
                    and sum(self._sizes.values()) > self.max_bytes
                )
                if not (over_entries or over_bytes):
                    break
                key, _ = self._lru.popitem(last=False)
                self._entries.pop(key, None)
                self._sizes.pop(key, None)
                if self._disk_index.pop(key, None) is not None:
                    victims.append(key)
                self.evictions += 1
            if victims and self.directory is not None:
                self._index_version += 1
                version = self._index_version
                snapshot = json.dumps(
                    self._disk_index, indent=0, sort_keys=True
                )
        for key in victims:
            try:
                os.remove(self._path(key))
            except FileNotFoundError:  # pragma: no cover - double eviction
                pass
        if snapshot is not None:
            self._flush_index(version, snapshot)

    def _load(self, key: str) -> StoreEntry:
        payload = load_payload(self._path(key))
        classes = _result_classes()
        cls = classes.get(payload.get("class"))
        require(
            cls is not None,
            f"store entry {key} has unknown result class "
            f"{payload.get('class')!r}",
        )
        gs_data = payload.get("ground_state")
        ground_state = (
            classes["GroundState"].from_dict(gs_data)
            if gs_data is not None
            else None
        )
        result = cls.from_dict(payload["data"])
        # An SCF entry's result IS its ground state (written once, see
        # _persist): reunify so a cache hit and a warm start hand out the
        # identical arrays.
        if payload.get("class") == "GroundState" and ground_state is None:
            ground_state = result
        meta = dict(payload.get("meta") or {})
        return StoreEntry(
            key=key, result=result, ground_state=ground_state, meta=meta
        )
