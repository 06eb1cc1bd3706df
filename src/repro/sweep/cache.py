"""Content-addressed on-disk cache of per-cell sweep artifacts.

A grown evaluation grid should only ever execute its *new* cells: the
cache key is a SHA-256 over the canonical JSON of the cell spec plus
the code-relevant format version, so

* re-running an unchanged grid re-executes nothing (all hits);
* changing any axis value of a cell (its spec) changes the key — the
  stale artifact is simply never addressed again;
* bumping :data:`CACHE_FORMAT_VERSION` (the escape hatch for semantic
  changes in the runner/scoring code that keep cell specs identical)
  invalidates every prior artifact at once.

Layout (``--cache-dir``, default ``.sweep-cache``)::

    <dir>/objects/<key[:2]>/<key>.json   one cell artifact per file

Each artifact file stores the addressed cell spec alongside the
result, so ``repro sweep status``/``report`` can audit the cache
without recomputing anything, and a key collision (practically
impossible) would be detected as a spec mismatch on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from .spec import SweepCell

#: Bump when the worker/scoring semantics change in a way that makes
#: previously cached cell results incomparable (e.g. new acceptance
#: rules, changed consolidated-report fields sourced from the cell).
CACHE_FORMAT_VERSION = 3


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, tight separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(cell: SweepCell) -> str:
    """The cell's content address (hex SHA-256)."""
    payload = canonical_json(
        {"format": CACHE_FORMAT_VERSION, "cell": cell.to_dict()}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """Store/load per-cell result dicts under their content address."""

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def get(self, cell: SweepCell) -> Optional[dict]:
        """The cached result dict for *cell*, or ``None`` on a miss.

        A corrupt or mismatched artifact (truncated write from a
        killed run, or the astronomically unlikely key collision)
        reads as a miss, never as an error — the cell just re-runs.
        """
        path = self._path(cache_key(cell))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError):
            return None
        if artifact.get("cell") != cell.to_dict():
            return None
        return artifact.get("result")

    def put(self, cell: SweepCell, result: dict) -> str:
        """Store *result* for *cell*; returns the content address.

        Writes via a same-directory temp file + atomic rename so a
        crashed run can never leave a half-written artifact that a
        later run would half-trust.
        """
        key = cache_key(cell)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        artifact = {
            "key": key,
            "format": CACHE_FORMAT_VERSION,
            "cell": cell.to_dict(),
            "result": result,
        }
        handle, temp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(artifact, stream, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        return key

    def partition(
        self, cells: List[SweepCell]
    ) -> Tuple[Dict[str, dict], List[SweepCell]]:
        """Split *cells* into ``(hits by cell_id, missing cells)``."""
        hits: Dict[str, dict] = {}
        missing: List[SweepCell] = []
        for cell in cells:
            cached = self.get(cell)
            if cached is None:
                missing.append(cell)
            else:
                hits[cell.cell_id] = cached
        return hits, missing
