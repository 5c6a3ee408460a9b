"""Stable content hashing for distributed-table key placement.

Python's builtin ``hash`` is salted per process, so table shards would move
between runs; this module provides a deterministic 64-bit hash over the
key vocabulary messages allow (scalars, strings, bytes, tuples of those).

The same canonical encoding backs the bench suite's content-addressed
result cache: :func:`stable_digest` turns a canonicalised run descriptor
into a filename-sized hex key, and :func:`source_fingerprint` hashes the
``repro`` package sources so cached rows are invalidated whenever the
simulator's code changes.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Optional

from repro.util.errors import SharingError

__all__ = ["stable_hash", "stable_digest", "source_fingerprint"]


def _feed(h, obj: Any) -> None:
    # The exact builtin types first: a run descriptor is some 35 strs,
    # tuples and numbers, and table keys are mostly ints.  Everything else
    # (None, bools, bytes, subclasses) takes the chain below, which encodes
    # the four types above identically.
    kind = type(obj)
    if kind is str:
        h.update(b"S")
        h.update(obj.encode("utf-8"))
    elif kind is tuple:
        h.update(b"T(")
        for x in obj:
            _feed(h, x)
            h.update(b",")
        h.update(b")")
    elif kind is int:
        h.update(b"I")
        h.update(str(obj).encode())
    elif kind is float:
        # ``obj or 0.0``: -0.0 == 0.0 is one key (a dict's too), so it must
        # land on one shard.
        h.update(b"F")
        h.update((obj or 0.0).hex().encode())
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        h.update(b"I")
        h.update(str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"F")
        h.update((obj or 0.0).hex().encode())
    elif isinstance(obj, str):
        h.update(b"S")
        h.update(obj.encode("utf-8"))
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"Y")
        h.update(bytes(obj))
    elif isinstance(obj, tuple):
        h.update(b"T(")
        for x in obj:
            _feed(h, x)
            h.update(b",")
        h.update(b")")
    else:
        raise SharingError(
            f"unhashable table key type {type(obj).__name__!r}; use "
            "scalars, strings, bytes or tuples of those"
        )


def stable_hash(key: Any) -> int:
    """Deterministic 64-bit hash of ``key`` (stable across runs/platforms)."""
    h = hashlib.blake2b(digest_size=8)
    _feed(h, key)
    return int.from_bytes(h.digest(), "little")


def stable_digest(key: Any, digest_size: int = 16) -> str:
    """Deterministic hex digest of ``key`` over the same canonical encoding.

    Accepts the :func:`stable_hash` vocabulary (scalars, strings, bytes and
    tuples of those); used as the cache filename for bench run descriptors.
    """
    h = hashlib.blake2b(digest_size=digest_size)
    _feed(h, key)
    return h.hexdigest()


def source_fingerprint(root: Optional[str] = None) -> str:
    """Hex fingerprint of every ``*.py`` file under ``root``.

    ``root`` defaults to the installed ``repro`` package directory, so the
    fingerprint changes whenever any simulator source changes — the cache
    key component that makes stale bench results impossible.  Files are
    fed in sorted relative-path order with length framing, so renames,
    additions and deletions all perturb the digest.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.blake2b(digest_size=16)
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                entries.append((os.path.relpath(path, root), path))
    for relpath, path in sorted(entries):
        with open(path, "rb") as fh:
            contents = fh.read()
        h.update(relpath.encode("utf-8"))
        h.update(b"\x00")
        h.update(len(contents).to_bytes(8, "little"))
        h.update(contents)
    return h.hexdigest()
