"""Resumable JSON result cache.

One record per solved configuration, keyed by a content hash over the
model fingerprint, the grid, and the solver inputs.  A result is reused
only when every input that could change it is byte-identical, so editing
a model descriptor or a grid flag silently invalidates the old entries
instead of serving them.  Writes go through a per-process temp file and
an atomic rename; an interrupted run leaves the previous cache intact.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import ModelError


def _read(path: str) -> dict:
    """The records of a cache file; ModelError if it holds no JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as ex:          # bad JSON or bad UTF-8
        raise ModelError(f"{path}: not a solve cache ({ex})") from None
    if not isinstance(data, dict):
        raise ModelError(f"{path}: not a solve cache (no JSON object)")
    return data


class SolveCache:
    """Dict-like store persisted as one JSON file; with no path it lives in
    memory only and ``flush`` does nothing."""

    def __init__(self, path=None):
        self.path = str(path) if path else None
        self._dirty = False
        if self.path and os.path.exists(self.path):
            self._data = _read(self.path)
        else:
            self._data = {}

    @staticmethod
    def key(model, grid, kind: str, **params) -> str:
        """Content hash of one solve's inputs.

        kind separates record namespaces (resonance solve vs coalescence
        refinement); params must be JSON-serializable.
        """
        payload = {
            "model": model.fingerprint,
            "grid": [grid.r_min, grid.r_max, grid.n_points,
                     grid.ecs_radius, grid.ecs_angle],
            "kind": kind,
            "params": params,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def get(self, key: str):
        return self._data.get(key)

    def put(self, key: str, record: dict):
        self._data[key] = record
        self._dirty = True

    def flush(self):
        """Atomically persist the store (no-op when nothing changed).

        Records on disk are merged in under this store's own first, so
        processes sharing one cache file keep each other's records.
        """
        if not (self._dirty and self.path):
            return
        if os.path.exists(self.path):
            self._data = {**_read(self.path), **self._data}
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self._data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        self._dirty = False
