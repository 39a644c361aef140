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


class SolveCache:
    """Dict-like store persisted as one JSON file."""

    def __init__(self, path):
        self.path = str(path)
        self.hits = 0
        self._dirty = False
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self._data = json.load(fh)
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
        rec = self._data.get(key)
        if rec is not None:
            self.hits += 1
        return rec

    def put(self, key: str, record: dict):
        self._data[key] = record
        self._dirty = True

    def flush(self):
        """Atomically persist the store (no-op when nothing changed).

        Records on disk are merged in under this store's own first, so
        processes sharing one cache file keep each other's records.
        """
        if not self._dirty:
            return
        if os.path.exists(self.path):
            with open(self.path) as fh:
                self._data = {**json.load(fh), **self._data}
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self._data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        self._dirty = False

    def __len__(self):
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data
