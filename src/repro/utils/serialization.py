"""npz+json payload serialization — the substrate results and checkpoints share.

A *payload* is a nested dict whose leaves are numpy arrays, scalars,
strings, booleans, ``None``, or (possibly nested) lists of those.  It is
written as a single ``.npz`` file: every array leaf becomes a named npz
member and the remaining structure is stored as one JSON document under
the reserved ``__meta__`` key, with ``{"__array__": <member>}``
placeholders marking where arrays plug back in.  No pickling is ever used
(``allow_pickle=False`` on load), so files are portable and safe to read.

Writes are atomic: the file is staged under a unique temporary name in the
target directory and moved into place with ``os.replace``, so readers (and
restarts after a mid-write crash) only ever observe complete snapshots.

:class:`SerializableResult` is the common base for the user-facing result
objects (``GroundState``/``SCFResult``, ``LRTDDFTResult``, ``RTResult``):
subclasses implement ``to_dict``/``from_dict`` and inherit ``save``/``load``
with format-version and class tagging.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

import numpy as np

__all__ = [
    "PAYLOAD_FORMAT_VERSION",
    "SerializableResult",
    "SerializationError",
    "load_payload",
    "save_payload",
]

#: On-disk format version; bumped on incompatible layout changes (2: ISDF
#: results carry the fit rows ``fit_rows`` instead of ``theta``).
PAYLOAD_FORMAT_VERSION = 2

_META_KEY = "__meta__"
_ARRAY_TAG = "__array__"
_LIST_TAG = "__list__"


class SerializationError(ValueError):
    """A payload could not be packed, or a file failed validation."""


def _pack(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Convert ``node`` to a JSON-able tree, extracting arrays by reference."""
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = node
        return {_ARRAY_TAG: key}
    if isinstance(node, np.generic):  # numpy scalar -> python scalar
        return _pack(node.item(), arrays)
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if not isinstance(k, str):
                raise SerializationError(f"payload keys must be str, got {k!r}")
            if k.startswith("__") and k.endswith("__"):
                raise SerializationError(f"reserved payload key {k!r}")
            out[k] = _pack(v, arrays)
        return out
    if isinstance(node, (list, tuple)):
        return {_LIST_TAG: [_pack(v, arrays) for v in node]}
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise SerializationError(
        f"unserializable payload leaf of type {type(node).__name__}"
    )


def _unpack(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    if isinstance(node, dict):
        if _ARRAY_TAG in node:
            return arrays[node[_ARRAY_TAG]]
        if _LIST_TAG in node:
            return [_unpack(v, arrays) for v in node[_LIST_TAG]]
        return {k: _unpack(v, arrays) for k, v in node.items()}
    return node


def save_payload(path: str | os.PathLike, payload: dict) -> str:
    """Atomically write ``payload`` as a single npz+json file.

    Returns the final path.  The temporary staging name embeds pid and
    thread id, so concurrent writers (e.g. SPMD rank threads snapshotting
    a replicated state) never collide; the last ``os.replace`` wins.
    """
    path = os.fspath(path)
    arrays: dict[str, np.ndarray] = {}
    meta = _pack(payload, arrays)
    doc = json.dumps({"format": PAYLOAD_FORMAT_VERSION, "tree": meta})
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{_META_KEY: np.array(doc)}, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on failure paths
            os.unlink(tmp)
    return path


def load_payload(path: str | os.PathLike) -> dict:
    """Read a payload written by :func:`save_payload` (never unpickles)."""
    try:
        handle = np.load(os.fspath(path), allow_pickle=False)
    except SerializationError:
        raise
    except Exception as exc:  # truncated zip, pickled data, bad magic, ...
        raise SerializationError(f"{path}: unreadable payload ({exc})") from exc
    with handle as data:
        if _META_KEY not in data.files:
            raise SerializationError(f"{path}: not a repro payload file")
        doc = json.loads(str(data[_META_KEY][()]))
        if doc.get("format") != PAYLOAD_FORMAT_VERSION:
            raise SerializationError(
                f"{path}: payload format {doc.get('format')!r} is not "
                f"supported (expected {PAYLOAD_FORMAT_VERSION})"
            )
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    tree = _unpack(doc["tree"], arrays)
    if not isinstance(tree, dict):
        raise SerializationError(f"{path}: payload root must be a dict")
    return tree


class SerializableResult:
    """Common serializable base for the user-facing result objects.

    Subclasses implement :meth:`to_dict` / :meth:`from_dict`; ``save`` and
    ``load`` wrap them with class tagging so a file saved by one result
    type cannot be silently loaded as another.
    """

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "SerializableResult":
        raise NotImplementedError

    def save(self, path: str | os.PathLike) -> str:
        """Write this result to ``path`` (single npz+json file)."""
        return save_payload(
            path, {"class": type(self).__name__, "data": self.to_dict()}
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SerializableResult":
        """Read a result saved by :meth:`save`, validating the class tag."""
        payload = load_payload(path)
        saved = payload.get("class")
        if saved != cls.__name__:
            raise SerializationError(
                f"{path}: contains a {saved!r}, not a {cls.__name__}"
            )
        return cls.from_dict(payload["data"])
