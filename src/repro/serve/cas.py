"""Content-addressed store (CAS) of JSON results.

Promoted from the disk layer of the bench run-cache (PR 1): one
JSON-serialised result per file under ``<root>/<key[:2]>/<key>.json``,
where ``key`` is a SHA-256 content hash of everything that determines
the result.  The store is safe for many concurrent writers — every
write goes through a same-directory temp file plus an atomic
``os.replace`` — and *forgiving* readers: a corrupt, truncated, or
concurrently-vanishing entry is a miss, never an exception.

:class:`ContentStore` is the pure disk layer.  :class:`MemoStore` puts
the one in-memory result memo in front of it: a byte-bounded LRU of
serialised entries with a synchronous, memory-only :meth:`MemoStore.peek`
that ``repro serve`` calls on the event loop.  Both the serve result
store and :class:`repro.bench.cache.RunCache` (which adds
simulation-specific keying and spans) are :class:`MemoStore` instances.
Garbage collection (:meth:`ContentStore.gc`) evicts least-recently-used
entries by file mtime until the store fits a byte budget; ``repro
cache gc`` exposes it on the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

#: The only shape a content key can have: a full SHA-256 hexdigest.
#: Everything else — in particular anything containing ``/`` or ``..``
#: — must be rejected *before* it is joined into a filesystem path.
KEY_RE = re.compile(r"[0-9a-f]{64}")

#: Byte budget of a :class:`MemoStore`'s in-memory layer (serialised
#: JSON bytes).  A served result or a bench row is ~0.3-0.4 KB (~400 KB
#: with telemetry), so this holds tens of thousands of plain results,
#: or ~80 telemetry-carrying rows, before least recently used entries
#: fall back to the disk read.
MEMO_MAX_BYTES = 32 << 20


def valid_key(key) -> bool:
    """Whether ``key`` is a well-formed content key."""
    return isinstance(key, str) and KEY_RE.fullmatch(key) is not None


def store_key(value) -> str:
    """SHA-256 content key of a JSON-serialisable value.

    The value is canonicalised (sorted keys, compact separators) so two
    structurally-equal requests produce the same key regardless of dict
    insertion order.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class ContentStore:
    """Content-addressed store of JSON dicts with atomic writes.

    :param root: store directory (created lazily on first write).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        """Filesystem location of ``key`` — which must be a validated
        content key: an unvalidated key containing ``/`` or ``..``
        would escape the store root (path traversal)."""
        if not valid_key(key):
            raise ValueError(f"invalid content key {key[:80]!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored dict for ``key``, or ``None``.

        Any unreadable entry — missing, truncated, non-JSON, non-dict,
        deleted between stat and read by a concurrent GC, or addressed
        by a malformed key — counts as a miss: readers never crash on
        another process's half-state (or a hostile key).
        """
        found = self._read(key)
        return None if found is None else found[1]

    def _read(self, key: str) -> tuple[bytes, dict] | None:
        """``(raw bytes, decoded dict)`` of ``key`` on disk, or ``None``;
        counts the hit or miss."""
        try:
            blob = self._path(key).read_bytes()
            data = json.loads(blob)
        except (OSError, ValueError):
            data = None
        if not isinstance(data, dict):
            self.misses += 1
            return None
        self.hits += 1
        return blob, data

    def contains(self, key: str) -> bool:
        """Whether an entry exists (without reading or counting it)."""
        return valid_key(key) and self._path(key).is_file()

    def put(self, key: str, data: dict) -> None:
        """Store ``data`` under ``key``, atomically."""
        self._write(key, json.dumps(data).encode())

    def _write(self, key: str, blob: bytes) -> None:
        """Write serialised ``blob`` as the entry for ``key``.

        The temp file lives in the destination directory so the final
        ``os.replace`` is a same-filesystem rename: concurrent readers
        see either the old entry or the new one, never a torn write.
        Racing writers of the same key are both writing the same
        content-addressed bytes, so the last rename wins harmlessly.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def entries(self) -> list[dict]:
        """All entries as ``{key, path, bytes, mtime}`` rows.

        Entries that vanish mid-scan (a concurrent GC or writer) are
        skipped.  Leftover ``*.tmp`` files from crashed writers are not
        entries — :meth:`gc` sweeps them.
        """
        rows = []
        if not self.root.is_dir():
            return rows
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append({"key": path.stem, "path": path,
                         "bytes": stat.st_size, "mtime": stat.st_mtime})
        return rows

    def total_bytes(self) -> int:
        """Total payload bytes currently stored."""
        return sum(row["bytes"] for row in self.entries())

    def gc(self, max_bytes: int, dry_run: bool = False) -> dict:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        LRU is by file mtime (a hit does not touch the file, so this
        approximates insertion order unless callers ``os.utime`` on
        use).  Orphaned ``*.tmp`` files older than an hour are removed
        too.  Returns a report dict::

            {"entries": n, "bytes": total, "removed": [keys...],
             "removed_bytes": n, "kept_bytes": n, "dry_run": bool}

        With ``dry_run`` nothing is deleted; the report shows what
        would go.  Missing files during deletion are ignored (another
        process won the race).
        """
        rows = sorted(self.entries(), key=lambda r: r["mtime"])
        total = sum(r["bytes"] for r in rows)
        report = {"entries": len(rows), "bytes": total, "removed": [],
                  "removed_bytes": 0, "kept_bytes": total,
                  "dry_run": bool(dry_run)}
        excess = total - max(0, int(max_bytes))
        for row in rows:
            if excess <= 0:
                break
            report["removed"].append(row["key"])
            report["removed_bytes"] += row["bytes"]
            excess -= row["bytes"]
            if not dry_run:
                try:
                    os.unlink(row["path"])
                except OSError:
                    pass
        report["kept_bytes"] = total - report["removed_bytes"]
        if not dry_run:
            self._sweep_tmp()
        return report

    def _sweep_tmp(self, min_age_s: float = 3600.0) -> None:
        """Remove stale temp files left by crashed writers."""
        import time
        cutoff = time.time() - min_age_s
        if not self.root.is_dir():
            return
        for tmp in self.root.glob("??/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    os.unlink(tmp)
            except OSError:
                pass


class ByteLRU:
    """Map of key → serialised bytes, least recently used first,
    holding at most ``max_bytes`` in total (``nbytes``).  Not
    thread-safe on its own: :class:`MemoStore` serialises access."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._items: OrderedDict[str, bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def get(self, key: str) -> bytes | None:
        blob = self._items.get(key)
        if blob is not None:
            self._items.move_to_end(key)
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Insert as most recent, then evict from the old end until the
        total fits; a blob larger than the whole budget is not kept."""
        self.pop(key)
        if len(blob) > self.max_bytes:
            return
        self._items[key] = blob
        self.nbytes += len(blob)
        while self.nbytes > self.max_bytes:
            _, old = self._items.popitem(last=False)
            self.nbytes -= len(old)

    def pop(self, key: str) -> None:
        blob = self._items.pop(key, None)
        if blob is not None:
            self.nbytes -= len(blob)

    def clear(self) -> None:
        self._items.clear()
        self.nbytes = 0


class MemoStore(ContentStore):
    """:class:`ContentStore` with a bounded in-memory layer in front.

    The memo holds each entry's serialised bytes, so every read decodes
    a fresh dict (callers may mutate what they get) and the bound is on
    real bytes.  It only ever mirrors the disk: :meth:`put` fills it
    after the write succeeded, and :meth:`gc` drops what it evicts.
    A lock guards it because ``repro serve`` peeks from the event loop
    while its I/O threads read, write and collect.
    """

    def __init__(self, root: str | os.PathLike):
        super().__init__(root)
        self._lock = threading.Lock()
        self._mem = ByteLRU(MEMO_MAX_BYTES)

    def __getstate__(self) -> dict:
        # Bench runners ship their cache to pool processes: the memo
        # travels, the lock is recreated on the other side.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def peek(self, key: str) -> dict | None:
        """The memoised dict for ``key``, or ``None`` — memory only,
        never blocking on disk.  Counts a hit; a miss is left to the
        :meth:`get` that follows it."""
        with self._lock:
            blob = self._mem.get(key)
            if blob is None:
                return None
            self.hits += 1
        return json.loads(blob)

    def get(self, key: str) -> dict | None:
        """The memo first, then the disk (a disk hit is memoised)."""
        data = self.peek(key)
        if data is None:
            found = self._read(key)
            if found is None:
                return None
            blob, data = found
            with self._lock:
                self._mem.put(key, blob)
        return data

    def put(self, key: str, data: dict) -> None:
        blob = json.dumps(data).encode()
        self._write(key, blob)
        with self._lock:
            self._mem.put(key, blob)

    def gc(self, max_bytes: int, dry_run: bool = False) -> dict:
        report = super().gc(max_bytes, dry_run)
        if not dry_run:
            with self._lock:
                for key in report["removed"]:
                    self._mem.pop(key)
        return report
