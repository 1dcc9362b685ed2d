"""The content-addressed result cache of the experiment engine.

Payloads are pickled envelopes keyed by content digest, one file per
key, stamped with the artifact schema version. The engine stores each
run under its spec digest, whether it ran inline or in a pool worker,
so every later engine asking for the same spec sees the same entry.

Keys must be digest-shaped — lowercase hex, 8..64 characters — which
rules out path traversal (``.``, ``..``, separators) and accidental
use of labels or file names as keys.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.experiments.artifact import SCHEMA_VERSION

__all__ = ["CacheStats", "ResultCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = os.path.join("results", "cache")

# Everything this library keys by is a hex SHA-256 (64 chars); tests
# use shorter hex literals. 8 chars is the floor for a meaningful
# digest prefix.
_KEY_SHAPE = re.compile(r"[0-9a-f]{8,64}")


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one engine lifetime."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.invalidations} invalidated"
        )


class ResultCache:
    """Pickled payloads keyed by content digest, one file per key.

    Writes are atomic (temp file + ``os.replace``) so a crashed or
    parallel run can never leave a torn entry behind; torn/garbage
    entries from other causes are detected at load, counted as
    invalidations, and deleted.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory
        self.stats = CacheStats()

    def path(self, key: str) -> str:
        if not isinstance(key, str) or not _KEY_SHAPE.fullmatch(key):
            raise ConfigurationError(
                f"bad cache key {key!r}: keys must be digest-shaped "
                "(8-64 lowercase hex characters)"
            )
        return os.path.join(self.directory, f"{key}.pkl")

    def load(self, key: str) -> Any | None:
        """Return the cached payload, or None on miss/invalidation."""
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:  # torn write, foreign file, unpicklable class
            self._invalidate(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SCHEMA_VERSION
            or envelope.get("key") != key
        ):
            self._invalidate(path)
            return None
        self.stats.hits += 1
        return envelope["payload"]

    def store(self, key: str, payload: Any) -> str:
        """Atomically write one payload; returns the entry path."""
        path = self.path(key)
        os.makedirs(self.directory, exist_ok=True)
        envelope = {"schema": SCHEMA_VERSION, "key": key, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def _invalidate(self, path: str) -> None:
        self.stats.invalidations += 1
        self.stats.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass
