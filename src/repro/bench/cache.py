"""Content-addressed on-disk cache for experiment measurement rows.

Every run of the experiment suite is a pure function of its
:class:`~repro.bench.descriptors.RunDescriptor` *and* of the simulator
sources, so a completed row can be replayed from disk as long as neither
changed.  The cache key is ``stable_digest((source_fingerprint(),
descriptor.canonical()))`` — editing any file under ``src/repro`` flips
the fingerprint and silently turns every stale entry into a miss, which
is the only safe failure mode for a results cache.

Entries are pickle files written atomically (temp file + ``os.replace``)
into two-level fan-out directories.  A corrupt, truncated or
version-skewed file is treated as a miss (counted as ``corrupt`` beside
the total), and overwritten on the next store; it can never crash a
sweep or leak a wrong row.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.bench.descriptors import RunDescriptor
from repro.util.hashing import source_fingerprint

__all__ = ["ResultCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".bench_cache"

#: Bump to invalidate every existing cache file on payload-shape changes.
_FORMAT = 1


class ResultCache:
    """Maps run descriptors to completed ``MeasureRow`` payloads on disk."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 fingerprint: Optional[str] = None) -> None:
        self.root = root
        #: Computed once per cache instance; a long-lived process that edits
        #: its own sources should build a fresh cache handle.
        self.fingerprint = (source_fingerprint() if fingerprint is None
                            else fingerprint)
        self.hits = 0
        #: Every lookup that returned nothing, whatever the reason.
        self.misses = 0
        #: The misses whose file was there but unusable: unreadable,
        #: truncated, not a pickle, wrong ``format`` or someone else's key.
        self.corrupt = 0
        self.stores = 0

    # ------------------------------------------------------------------ paths
    def key(self, desc: RunDescriptor) -> str:
        return desc.key(self.fingerprint)

    # ------------------------------------------------------------------- I/O
    def get(self, desc: RunDescriptor) -> Optional[Any]:
        """The cached row for ``desc``, or ``None`` (counted as a miss)."""
        key = self.key(desc)
        path = os.path.join(self.root, key[:2], key + ".pkl")
        try:
            # One unbuffered read of the whole file: entries are a few KB,
            # and a BufferedReader per file costs more than it saves.
            with open(path, "rb", buffering=0) as fh:
                payload = pickle.loads(fh.read())
            if payload.get("format") != _FORMAT or payload.get("key") != key:
                raise ValueError("cache payload mismatch")
            row = payload["row"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt/truncated/stale-format files are misses, not crashes;
            # the next put() overwrites them.
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return row

    def put(self, desc: RunDescriptor, row: Any) -> None:
        """Store ``row`` for ``desc`` (atomic write; safe under concurrency)."""
        key = self.key(desc)
        directory = os.path.join(self.root, key[:2])
        os.makedirs(directory, exist_ok=True)
        if getattr(row, "result", None) is not None:
            # Never pickle the live kernel graph; cached rows carry only the
            # declarative projection (stats, answer, timings).
            row = replace(row, result=None)
        payload = {"format": _FORMAT, "key": key, "label": desc.label(),
                   "row": row}
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, os.path.join(directory, key + ".pkl"))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1

    # ----------------------------------------------------------------- stats
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "fingerprint": self.fingerprint,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }
