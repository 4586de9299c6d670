"""Tests for the content-addressed store's GC and the ``repro cache
gc`` CLI, the bounded result memo (:class:`MemoStore`), plus the
concurrent-writer hardening of the shared disk layer (two-process race
test)."""

from __future__ import annotations

import errno
import io
import json
import multiprocessing
import os
import time

import pytest

from repro.bench.cache import RunCache
from repro.cli import main
from repro.serve import cas
from repro.serve.cas import ContentStore, MemoStore, store_key


def fill(store: ContentStore, n: int, payload_bytes: int = 200):
    """Store n entries with strictly increasing mtimes; returns keys."""
    keys = []
    for i in range(n):
        key = store_key({"entry": i})
        store.put(key, {"i": i, "pad": "x" * payload_bytes})
        mtime = time.time() - (n - i) * 10
        os.utime(store._path(key), (mtime, mtime))
        keys.append(key)
    return keys


class TestStoreKey:
    def test_order_insensitive(self):
        assert store_key({"a": 1, "b": 2}) == store_key({"b": 2, "a": 1})
        assert store_key({"a": 1}) != store_key({"a": 2})


class TestKeyValidation:
    """Only full sha256 hexdigests may ever reach the filesystem —
    anything else (``..``, ``/``, uppercase, wrong length) would be a
    path-traversal vector when keys arrive from a URL."""

    GOOD = store_key({"x": 1})
    BAD = ["", "abc", GOOD[:-1], GOOD + "0", GOOD.upper(),
           "aa/../../../../etc/passwd", "../" + GOOD, GOOD[:-2] + "/x",
           "aa/" + GOOD[3:], GOOD[:-1] + "\x00"]

    def test_valid_key(self):
        from repro.serve.cas import valid_key
        assert valid_key(self.GOOD)
        for key in self.BAD:
            assert not valid_key(key), key

    def test_path_refuses_bad_keys(self, tmp_path):
        import pytest
        store = ContentStore(tmp_path)
        for key in self.BAD:
            with pytest.raises(ValueError):
                store._path(key)
            assert store.get(key) is None      # miss, not a crash
            assert store.contains(key) is False

    def test_traversal_cannot_escape_root(self, tmp_path):
        root = tmp_path / "store"
        sentinel = tmp_path / "sekrit.json"
        sentinel.write_text(json.dumps({"leak": True}))
        store = ContentStore(root)
        # Before validation this resolved to <root>/aa/aa/../../../
        # sekrit.json == tmp_path/sekrit.json.
        assert store.get("aa/../../../sekrit") is None


class TestContentStoreGC:
    def test_evicts_lru_until_budget(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 6)
        total = store.total_bytes()
        per_entry = total // 6
        report = store.gc(max_bytes=per_entry * 3)
        # Oldest first, newest kept.
        assert report["removed"] == keys[:3]
        assert report["kept_bytes"] <= per_entry * 3 + 3
        for key in keys[:3]:
            assert store.get(key) is None
        for key in keys[3:]:
            assert store.get(key) is not None

    def test_dry_run_removes_nothing(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 4)
        report = store.gc(max_bytes=0, dry_run=True)
        assert report["dry_run"] is True
        assert report["removed"] == keys
        for key in keys:
            assert store.contains(key)

    def test_budget_larger_than_store_is_noop(self, tmp_path):
        store = ContentStore(tmp_path)
        fill(store, 3)
        report = store.gc(max_bytes=1 << 30)
        assert report["removed"] == []

    def test_sweeps_stale_tmp_files(self, tmp_path):
        store = ContentStore(tmp_path)
        fill(store, 1)
        shard = next(tmp_path.glob("??"))
        stale = shard / "leftover.tmp"
        stale.write_text("partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        store.gc(max_bytes=1 << 30)
        assert not stale.exists()


class TestMemoStore:
    @staticmethod
    def entry(i: int) -> dict:
        return {"i": i, "pad": "x" * 200}

    def test_lru_evicts_at_byte_bound(self, tmp_path, monkeypatch):
        size = len(json.dumps(self.entry(0)).encode())
        monkeypatch.setattr(cas, "MEMO_MAX_BYTES", 3 * size)
        store = MemoStore(tmp_path)
        keys = [store_key({"entry": i}) for i in range(4)]
        for i, key in enumerate(keys[:3]):
            store.put(key, self.entry(i))
        assert store._mem.nbytes == 3 * size
        assert store.peek(keys[0]) == self.entry(0)  # now most recent
        store.put(keys[3], self.entry(3))
        # The least recently used entry went; the total stays bounded.
        assert keys[1] not in store._mem
        assert all(k in store._mem for k in (keys[0], keys[2], keys[3]))
        assert store._mem.nbytes == 3 * size
        assert store.peek(keys[1]) is None
        assert store.get(keys[1]) == self.entry(1)  # still on disk
        assert keys[1] in store._mem                # and memoised again
        assert store._mem.nbytes == 3 * size

    def test_entry_larger_than_bound_is_not_memoised(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(cas, "MEMO_MAX_BYTES", 10)
        store = MemoStore(tmp_path)
        key = store_key({"big": True})
        store.put(key, self.entry(0))
        assert len(store._mem) == 0 and store._mem.nbytes == 0
        assert store.get(key) == self.entry(0)

    def test_reads_decode_fresh_dicts(self, tmp_path):
        store = MemoStore(tmp_path)
        key = store_key({"x": 1})
        store.put(key, {"nested": {"n": 1}})
        store.peek(key)["nested"]["n"] = 99
        store.get(key)["nested"]["n"] = 98
        assert store.peek(key) == {"nested": {"n": 1}}

    def test_gc_drops_evicted_keys_from_memory(self, tmp_path):
        store = MemoStore(tmp_path)
        keys = fill(store, 6)
        assert all(key in store._mem for key in keys)
        per_entry = store.total_bytes() // 6
        store.gc(max_bytes=per_entry * 3, dry_run=True)
        assert all(key in store._mem for key in keys)
        report = store.gc(max_bytes=per_entry * 3)
        assert report["removed"] == keys[:3]
        for key in keys[:3]:
            assert key not in store._mem
            assert store.peek(key) is None
            assert store.get(key) is None
        assert all(store.peek(key) is not None for key in keys[3:])

    def test_failed_put_leaves_no_memory_entry(self, tmp_path,
                                               monkeypatch):
        store = MemoStore(tmp_path)
        key = store_key({"full": "disk"})

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cas.os, "replace", disk_full)
        with pytest.raises(OSError):
            store.put(key, self.entry(0))
        assert key not in store._mem
        assert store.peek(key) is None
        assert store.get(key) is None
        assert list(tmp_path.glob("??/*.tmp")) == []
        with pytest.raises(TypeError):     # unserialisable payload
            store.put(key, {"bad": object()})
        assert len(store._mem) == 0

    def test_run_cache_uses_the_shared_memo(self, tmp_path):
        cache = RunCache(tmp_path)
        assert isinstance(cache, MemoStore)
        assert isinstance(cache._mem, cas.ByteLRU)
        key = store_key({"run": 1})
        cache.put(key, {"cycles": 3.0})
        assert cache.peek(key) == {"cycles": 3.0}
        # A plain ContentStore has no memo: its get is a disk read.
        plain = ContentStore(tmp_path)
        assert not hasattr(plain, "_mem")
        os.unlink(plain._path(key))
        assert plain.get(key) is None
        assert cache.get(key) == {"cycles": 3.0}   # memo until gc


class TestCacheGCCLI:
    def test_dry_run_then_real(self, tmp_path):
        store = ContentStore(tmp_path)
        keys = fill(store, 4)
        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0", "--dry-run"], out=out) == 0
        assert "would evict 4 entries" in out.getvalue()
        assert all(store.contains(k) for k in keys)
        out = io.StringIO()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"], out=out) == 0
        assert "evicted 4 entries" in out.getvalue()
        assert not any(store.contains(k) for k in keys)

    def test_honours_cache_dir_env(self, tmp_path, monkeypatch):
        store = ContentStore(tmp_path / "envroot")
        fill(store, 2)
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR",
                           str(tmp_path / "envroot"))
        out = io.StringIO()
        assert main(["cache", "gc", "--max-bytes", "0"], out=out) == 0
        assert "evicted 2 entries" in out.getvalue()

    def test_negative_budget_rejected(self, tmp_path):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "-1"], out=io.StringIO()) == 2


# ---------------------------------------------------------------------------
# Two-process race: concurrent writers + readers + GC share one root.


def _hammer(root: str, worker: int, iterations: int, out):
    """Child process: interleave puts, gets, and GCs on shared keys."""
    try:
        store = RunCache(root)
        for i in range(iterations):
            key = store_key({"slot": i % 5})
            store.put(key, {"worker": worker, "i": i,
                            "pad": "y" * 500})
            store._mem.clear()  # force disk reads
            data = store.get(key)
            # A concurrent GC may have evicted it; what's not allowed
            # is a torn/partial read.
            assert data is None or (isinstance(data, dict)
                                    and "pad" in data), data
            if worker == 0 and i % 7 == 0:
                store.gc(max_bytes=2000)
        out.put((worker, "ok"))
    except BaseException as exc:  # pragma: no cover - failure path
        out.put((worker, f"{type(exc).__name__}: {exc}"))


class TestConcurrentWriters:
    def test_two_process_race(self, tmp_path):
        """Two processes hammering the same root — same-key writes,
        reads, and GC evictions — must never crash or observe a torn
        entry (atomic temp-file + rename, corrupt/missing = miss)."""
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        procs = [ctx.Process(target=_hammer,
                             args=(str(tmp_path), w, 60, out))
                 for w in range(2)]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(status == "ok" for _, status in results), results

    def test_truncated_entry_is_miss_not_exception(self, tmp_path):
        store = ContentStore(tmp_path)
        key = store_key({"x": 1})
        store.put(key, {"x": 1})
        # Simulate a torn write from a non-atomic writer.
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:5])
        assert store.get(key) is None

    def test_schema_drifted_row_is_miss_for_runner(self, tmp_path):
        """A cached row whose keys no longer match VariantResult must
        re-simulate, not crash."""
        from repro.bench.cache import run_key
        from repro.bench.runner import run_variant
        from repro.ir import print_module
        from repro.machine import HASWELL
        from repro.workloads import IntegerSort

        def wl():
            return IntegerSort(num_keys=1000, num_buckets=1 << 10)

        cache = RunCache(tmp_path)
        key = run_key(print_module(wl().build_variant("plain")),
                      HASWELL, wl(), True)
        cache.put(key, {"not_a_field": 1})
        cache._mem.clear()
        result = run_variant(wl(), "plain", HASWELL, cache=cache)
        assert result.cycles > 0

    def test_crashed_writer_leaves_no_entry(self, tmp_path):
        """An exception mid-put removes the temp file and stores
        nothing."""
        store = ContentStore(tmp_path)
        key = store_key({"boom": True})
        try:
            store.put(key, {"bad": object()})
        except TypeError:
            pass
        assert store.get(key) is None
        assert list(tmp_path.glob("??/*.tmp")) == []
