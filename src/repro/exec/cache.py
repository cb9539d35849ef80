"""Content-addressed on-disk cache for sweep results.

A cell's canonical JSON (see :mod:`repro.exec.serialize`) is hashed
together with a *salt* — by default the library version — into the cache
key.  The stored value is the cell's executed envelope, verbatim.  Two
consequences:

* an unchanged grid re-runs from cache with zero workload execution and
  byte-identical results (the envelope bytes are returned as written);
* any change to the cell configuration, or a library version bump,
  changes the key and the stale entry is simply never read again —
  invalidation is structural, not heuristic.

Layout: ``<root>/<key[:2]>/<key>.json``, fanned out over 256 prefix
directories.  Writes are atomic (temp file + ``os.replace``) so a
killed run — or two worker processes racing on the same key — never
leaves a torn entry; the last complete write wins, and because cells
are deterministic every writer produces the same bytes anyway.

Next to each envelope an optional *metadata sidecar*
(``<key>.meta.json``) records cheap facts about the entry that lookups
want without decoding the envelope: whether the entry carries trace
events (``traced``) and how long the cell took to execute
(``wall_seconds``, which feeds the scheduler's cost model).  Entries
written before sidecars existed simply have no sidecar — every reader
falls back to sniffing the envelope itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Optional

import repro

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_META_SUFFIX = ".meta.json"
_TMP_SUFFIX = ".tmp"

#: Age before an orphaned ``.tmp`` file is swept on open.  A writer that
#: crashed between ``mkstemp`` and ``os.replace`` leaves its temp file
#: forever; a *live* writer's temp file exists for milliseconds.  The
#: guard keeps a worker pool opening the shared cache concurrently from
#: deleting a sibling's in-flight write.
ORPHAN_TMP_AGE_SECONDS = 60.0


class ResultCache:
    """The ``.repro-cache/`` store.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    salt:
        Version salt mixed into every key.  Defaults to
        ``repro.__version__`` so results never survive a library
        version change.
    """

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        salt: Optional[str] = None,
    ) -> None:
        self.root = root
        self.salt = repro.__version__ if salt is None else salt
        self.hits = 0
        self.misses = 0
        #: Stale temp files from crashed writers removed at open time.
        self.orphans_swept = self.sweep_orphans()

    def spec(self) -> "CacheSpec":
        """The picklable ``(root, salt)`` identity of this cache.

        Worker processes rebuild an equivalent cache from it (see
        :func:`repro.exec.engine.worker_cache`) and write envelopes
        directly into the shared store.
        """
        return (self.root, self.salt)

    def key_for(self, cell_payload: str) -> str:
        """Cache key: SHA-256 of the salt and the canonical cell JSON."""
        return hashlib.sha256(
            (self.salt + "\n" + cell_payload).encode()
        ).hexdigest()

    def _path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _meta_path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}{_META_SUFFIX}")

    def _read(self, key: str) -> Optional[str]:
        """Envelope text without touching the hit/miss counters; ``None``
        when the entry is absent or its bytes are not text (damaged)."""
        try:
            with open(self._path_for(key), "r") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError):
            return None

    def get(self, key: str) -> Optional[str]:
        """The stored envelope string, or ``None`` on a miss."""
        payload = self._read(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def lookup(self, key: str, require_traced: bool = False) -> Optional[str]:
        """A *usable* envelope for this run, or ``None``.

        Counter-accounted: a hit is an envelope the caller can actually
        use.  With ``require_traced`` an untraced entry is a miss — and
        when the metadata sidecar already says the entry is untraced,
        the envelope is never even read from disk.  An entry too damaged
        to read (or, with ``require_traced``, to sniff) is a miss too;
        one that reads but does not decode is recounted as a miss by
        :class:`~repro.exec.engine.SweepEngine`, which decodes each hit.
        """
        if require_traced and self.traced(key) is False:
            self.misses += 1
            return None
        payload = self._read(key)
        if payload is None:
            self.misses += 1
            return None
        if require_traced:
            from repro.exec.serialize import envelope_is_traced

            try:
                traced = envelope_is_traced(payload)
            except (ValueError, KeyError, TypeError):
                traced = False
            if not traced:
                self.misses += 1
                return None
        self.hits += 1
        return payload

    def _write_atomic(self, path: str, payload: str) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def put(
        self,
        key: str,
        payload: str,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Store an envelope atomically (temp file + rename).

        ``meta`` additionally writes the metadata sidecar — envelope
        first, so a crash between the two leaves a readable entry with
        no sidecar, which every reader handles.
        """
        self._write_atomic(self._path_for(key), payload)
        if meta is not None:
            self._write_atomic(
                self._meta_path_for(key),
                json.dumps(meta, sort_keys=True, separators=(",", ":")),
            )

    def get_meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry's metadata sidecar, or ``None`` (absent/corrupt)."""
        try:
            with open(self._meta_path_for(key), "r") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def traced(self, key: str) -> Optional[bool]:
        """Whether the entry carries trace events, from the sidecar alone.

        ``None`` means unknown (no sidecar — a pre-sidecar entry, or no
        entry at all); callers then fall back to reading the envelope.
        """
        meta = self.get_meta(key)
        if meta is None or not isinstance(meta.get("traced"), bool):
            return None
        return meta["traced"]

    def wall_seconds(self, key: str) -> Optional[float]:
        """The entry's recorded execution time, or ``None``."""
        meta = self.get_meta(key)
        if meta is None:
            return None
        wall = meta.get("wall_seconds")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            return None
        return float(wall)

    def sweep_orphans(
        self, max_age_seconds: float = ORPHAN_TMP_AGE_SECONDS
    ) -> int:
        """Remove ``.tmp`` orphans left by crashed writers; return count.

        A worker killed between :func:`tempfile.mkstemp` and
        :func:`os.replace` in :meth:`_write_atomic` leaks a ``.tmp``
        file that no lookup, :meth:`entry_count`, or (previously)
        :meth:`clear` would ever touch.  Only files older than
        ``max_age_seconds`` are removed — pass ``0`` to sweep
        unconditionally (as :meth:`clear` does; nothing can be in
        flight for a store being cleared).
        """
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        cutoff = time.time() - max_age_seconds
        for prefix in os.listdir(self.root):
            subdir = os.path.join(self.root, prefix)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if not name.endswith(_TMP_SUFFIX):
                    continue
                path = os.path.join(subdir, name)
                try:
                    if max_age_seconds <= 0 or os.path.getmtime(path) <= cutoff:
                        os.unlink(path)
                        removed += 1
                except OSError:
                    # The writer finished (os.replace) or a concurrent
                    # sweep won the race; either way the orphan is gone.
                    pass
        return removed

    def entry_count(self) -> int:
        """Number of cached envelopes currently on disk."""
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for prefix in os.listdir(self.root):
            subdir = os.path.join(self.root, prefix)
            if os.path.isdir(subdir):
                count += sum(
                    1
                    for name in os.listdir(subdir)
                    if name.endswith(".json")
                    and not name.endswith(_META_SUFFIX)
                )
        return count

    def clear(self) -> int:
        """Delete every cached envelope (and sidecar); returns how many
        envelopes were removed.  Also sweeps ``.tmp`` orphans regardless
        of age, so a cleared cache directory is actually empty."""
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        self.sweep_orphans(max_age_seconds=0.0)
        for prefix in os.listdir(self.root):
            subdir = os.path.join(self.root, prefix)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if name.endswith(".json"):
                    os.unlink(os.path.join(subdir, name))
                    if not name.endswith(_META_SUFFIX):
                        removed += 1
            try:
                os.rmdir(subdir)
            except OSError:
                pass
        return removed


#: The picklable identity a worker rebuilds a cache from.
CacheSpec = tuple
