"""Unit tests for the experiment-level memoization cache."""

from __future__ import annotations

import pytest

from repro.params import DEFAULT_PLATFORM, HbmPlatform
from repro.sim.cache import (MISS, MODEL_VERSION, SimCache, cache_enabled,
                             sweep_key)
from repro.types import FabricKind, Pattern, TWO_TO_ONE, READ_ONLY


def test_sweep_key_stable_and_discriminating():
    k1 = sweep_key("pattern-sim", DEFAULT_PLATFORM, fabric=FabricKind.XLNX,
                   pattern=Pattern.CCS, burst_len=16, rw=TWO_TO_ONE, seed=0)
    k2 = sweep_key("pattern-sim", DEFAULT_PLATFORM, fabric=FabricKind.XLNX,
                   pattern=Pattern.CCS, burst_len=16, rw=TWO_TO_ONE, seed=0)
    assert k1 == k2
    # Any parameter change produces a different key.
    assert k1 != sweep_key("pattern-sim", DEFAULT_PLATFORM,
                           fabric=FabricKind.MAO, pattern=Pattern.CCS,
                           burst_len=16, rw=TWO_TO_ONE, seed=0)
    assert k1 != sweep_key("pattern-sim", DEFAULT_PLATFORM,
                           fabric=FabricKind.XLNX, pattern=Pattern.CCS,
                           burst_len=16, rw=READ_ONLY, seed=0)
    assert k1 != sweep_key("stride-sim", DEFAULT_PLATFORM,
                           fabric=FabricKind.XLNX, pattern=Pattern.CCS,
                           burst_len=16, rw=TWO_TO_ONE, seed=0)


def test_sweep_key_depends_on_platform():
    small = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)
    k_full = sweep_key("pattern-sim", DEFAULT_PLATFORM, pattern=Pattern.CCS)
    k_small = sweep_key("pattern-sim", small, pattern=Pattern.CCS)
    assert k_full != k_small


def test_memory_cache_hit_and_miss():
    c = SimCache()
    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    assert c.lookup(key) is MISS
    c.put(key, "value")
    assert c.lookup(key) == "value"
    assert c.hits == 1 and c.misses == 1


def test_disk_cache_round_trip(tmp_path):
    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    writer = SimCache(directory=str(tmp_path))
    writer.put(key, {"gbps": 416.7})
    # A fresh cache instance (fresh process, conceptually) reads it back.
    reader = SimCache(directory=str(tmp_path))
    assert reader.lookup(key) == {"gbps": 416.7}
    # A different key misses even with files present.
    assert reader.lookup(sweep_key("x", DEFAULT_PLATFORM, a=2)) is MISS


def test_disk_cache_ignores_corrupt_files(tmp_path):
    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    c = SimCache(directory=str(tmp_path))
    c.put(key, 123)
    for f in tmp_path.glob("*.pkl"):
        f.write_bytes(b"not a pickle")
    fresh = SimCache(directory=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="discarding unreadable"):
        assert fresh.lookup(key) is MISS  # degraded to a miss, no exception
    # The bad file was deleted so it never costs another parse ...
    assert not list(tmp_path.glob("*.pkl"))
    # ... and the next lookup is an ordinary silent miss.
    assert fresh.lookup(key) is MISS


def test_disk_cache_ignores_truncated_files(tmp_path):
    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    c = SimCache(directory=str(tmp_path))
    c.put(key, {"gbps": 400.0})
    for f in tmp_path.glob("*.pkl"):
        f.write_bytes(f.read_bytes()[:10])  # cut mid-pickle
    fresh = SimCache(directory=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="discarding unreadable"):
        assert fresh.lookup(key) is MISS
    assert not list(tmp_path.glob("*.pkl"))


def test_disk_cache_version_mismatch_is_silent_miss(tmp_path):
    """A key recorded under another MODEL_VERSION is well-formed, just
    stale: it must miss without warning and stay on disk for that older
    version to keep using."""
    import pickle

    import repro.sim.cache as cache_mod

    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    old_key = (MODEL_VERSION - 1,) + key[1:]
    c = SimCache(directory=str(tmp_path))
    # Simulate the older writer: same filename derivation, old key inside.
    path = tmp_path / (cache_mod.hashlib.sha1(
        repr(key).encode()).hexdigest() + ".pkl")
    path.write_bytes(pickle.dumps((old_key, 99)))
    assert c.lookup(key) is MISS
    assert path.exists()


def test_cache_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")
    assert not cache_enabled()
    c = SimCache()
    key = sweep_key("x", DEFAULT_PLATFORM, a=1)
    c.put(key, "value")
    assert c.lookup(key) is MISS
    monkeypatch.delenv("REPRO_SIM_CACHE")
    assert cache_enabled()


def test_fast_path_toggle_changes_key(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    k_fast = sweep_key("x", DEFAULT_PLATFORM, a=1)
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    k_legacy = sweep_key("x", DEFAULT_PLATFORM, a=1)
    assert k_fast != k_legacy


def test_observer_toggles_change_key(monkeypatch):
    """The sanitize/telemetry switches key the cache like the engine
    tier does."""
    base = sweep_key("x", DEFAULT_PLATFORM, a=1)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    k_san = sweep_key("x", DEFAULT_PLATFORM, a=1)
    monkeypatch.delenv("REPRO_SANITIZE")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    k_tel = sweep_key("x", DEFAULT_PLATFORM, a=1)
    assert len({base, k_san, k_tel}) == 3


class TestMissSentinel:
    """Regression: ``get(k) is None`` treated a cached None as a miss."""

    def test_lookup_returns_miss_not_none(self):
        c = SimCache()
        key = sweep_key("x", DEFAULT_PLATFORM, a=1)
        assert c.lookup(key) is MISS
        c.put(key, None)  # None is a legitimate cached value
        assert c.lookup(key) is None  # hit!
        assert c.hits == 1 and c.misses == 1

    def test_miss_is_falsy_and_not_cacheable(self):
        assert not MISS
        assert repr(MISS) == "MISS"
        c = SimCache()
        with pytest.raises(TypeError):
            c.put(("k",), MISS)

    def test_contains_does_not_count(self):
        c = SimCache()
        key = sweep_key("x", DEFAULT_PLATFORM, a=1)
        assert key not in c
        c.put(key, 5)
        assert key in c
        assert c.hits == 0 and c.misses == 0

    def test_parallel_sweep_cached_none_not_recomputed(self):
        """Regression: a point whose result is None must hit, not
        silently re-simulate on every sweep."""
        from repro.experiments.parallel import parallel_sweep

        cache = SimCache()
        calls = []

        def fn(x):
            calls.append(x)
            return None  # e.g. a sweep point with nothing to report

        def key_fn(x):
            return sweep_key("unit-none", DEFAULT_PLATFORM, x=x)

        assert parallel_sweep(fn, [1, 2], workers=1, cache=cache,
                              key_fn=key_fn) == [None, None]
        assert parallel_sweep(fn, [1, 2], workers=1, cache=cache,
                              key_fn=key_fn) == [None, None]
        assert calls == [1, 2]  # second sweep never re-ran the points


def test_measure_faulted_never_collides_with_fault_free_twin(small_platform):
    """Regression guard: the same sweep point with and without a fault
    plan must occupy distinct cache entries."""
    from repro.experiments._common import SimPoint, measure
    from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

    cache = SimCache()
    plan = FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=300, pch=1,
                                 duration=400, factor=3.0)], seed=0)

    def one_run(faults):
        return measure(SimPoint(FabricKind.XLNX, "pattern",
                                dict(pattern=Pattern.SCS, burst_len=8),
                                platform=small_platform, cycles=1200,
                                faults=faults), cache=cache)

    clean = one_run(None)
    faulted = one_run(plan)
    assert faulted is not clean          # distinct entries, both simulated
    assert cache.misses == 2 and cache.hits == 0
    assert one_run(plan) is faulted      # and each twin hits its own entry
    assert cache.hits == 1


def test_measure_uses_cache(small_platform):
    """measure() returns the memoized report on a key hit."""
    from repro.experiments._common import SimPoint, measure

    cache = SimCache()

    def one_run():
        return measure(SimPoint(FabricKind.MAO, "pattern",
                                dict(pattern=Pattern.CCS, burst_len=8),
                                platform=small_platform, cycles=1000),
                       cache=cache)

    r1 = one_run()
    r2 = one_run()
    assert r2 is r1  # identity: second call never re-simulated
    assert cache.hits == 1


class TestSpillFailureWarning:
    """Regression: a disk-spill OSError used to be swallowed silently —
    an unwritable REPRO_SIM_CACHE_DIR meant nothing ever persisted and
    nobody was told."""

    def _broken_cache(self, tmp_path, monkeypatch):
        import repro.sim.cache as cache_mod
        target = str(tmp_path / "denied")
        monkeypatch.setattr(cache_mod, "_SPILL_WARNED", set())

        def deny(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_mod.os, "replace", deny)
        return SimCache(directory=target), target

    def test_spill_failure_warns_and_names_directory(self, tmp_path,
                                                     monkeypatch):
        cache, target = self._broken_cache(tmp_path, monkeypatch)
        key = sweep_key("x", DEFAULT_PLATFORM, a=1)
        with pytest.warns(RuntimeWarning, match="denied"):
            cache.put(key, 1)
        assert cache.lookup(key) == 1  # the memory entry still serves

    def test_spill_failure_warns_once_per_directory(self, tmp_path,
                                                    monkeypatch, recwarn):
        cache, _target = self._broken_cache(tmp_path, monkeypatch)
        for a in range(50):  # a 50-point sweep against a full disk
            cache.put(sweep_key("x", DEFAULT_PLATFORM, a=a), a)
        spill = [w for w in recwarn.list
                 if "sim-cache disk spill" in str(w.message)]
        assert len(spill) == 1


class TestStatsAndPrune:
    def _filled(self, tmp_path, n=4):
        cache = SimCache(directory=str(tmp_path))
        for a in range(n):
            cache.put(sweep_key("x", DEFAULT_PLATFORM, a=a), "v" * 100)
        return cache

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self._filled(tmp_path, n=4)
        stats = cache.stats()
        assert stats.entries == 4
        assert stats.total_bytes == sum(
            f.stat().st_size for f in tmp_path.glob("*.pkl"))
        assert "4 entr(ies)" in stats.summary()

    def test_stats_without_directory(self):
        stats = SimCache().stats()
        assert stats.entries == 0 and stats.directory is None
        assert "memory only" in stats.summary()

    def test_prune_by_bytes_removes_oldest_first(self, tmp_path):
        import os as os_mod
        cache = self._filled(tmp_path, n=4)
        files = sorted(tmp_path.glob("*.pkl"), key=lambda f: f.name)
        # Make the first file unambiguously the oldest.
        old = files[0]
        os_mod.utime(old, (1_000_000, 1_000_000))
        entry_size = old.stat().st_size
        keep = entry_size * 2 + entry_size // 2  # room for exactly two
        result = cache.prune(max_bytes=keep)
        assert result.removed == 2
        assert not old.exists()  # oldest went first
        assert result.remaining_entries == 2
        assert result.remaining_bytes <= keep
        assert "pruned 2 entr(ies)" in result.summary()

    def test_prune_by_age(self, tmp_path):
        import os as os_mod
        import time as time_mod
        cache = self._filled(tmp_path, n=3)
        stale = sorted(tmp_path.glob("*.pkl"))[0]
        two_days_ago = time_mod.time() - 2 * 86400
        os_mod.utime(stale, (two_days_ago, two_days_ago))
        result = cache.prune(max_age_days=1.0)
        assert result.removed == 1 and not stale.exists()
        assert result.remaining_entries == 2

    def test_prune_noop_when_within_bounds(self, tmp_path):
        cache = self._filled(tmp_path, n=2)
        result = cache.prune(max_bytes=10 ** 9, max_age_days=365)
        assert result.removed == 0 and result.freed_bytes == 0
        assert result.remaining_entries == 2

    def test_prune_without_directory_is_noop(self):
        result = SimCache().prune(max_bytes=0)
        assert result.removed == 0 and result.remaining_entries == 0


class TestOrphanedTmpFiles:
    """Regression: a crash between the ``<digest>.pkl.tmp.<pid>`` write
    and ``os.replace`` stranded the temp file forever — ``stats()`` never
    counted it and ``prune()`` never removed it."""

    def _plant_stale_tmp(self, tmp_path, age_seconds=86_400):
        import os as os_mod
        import time as time_mod
        stale = tmp_path / "deadbeef.pkl.tmp.12345"
        stale.write_bytes(b"half-written pickle")
        old = time_mod.time() - age_seconds
        os_mod.utime(stale, (old, old))
        return stale

    def test_stats_surfaces_orphaned_tmp_files(self, tmp_path):
        cache = SimCache(directory=str(tmp_path))
        cache.put(sweep_key("x", DEFAULT_PLATFORM, a=1), "v")
        stale = self._plant_stale_tmp(tmp_path)
        stats = cache.stats()
        assert stats.entries == 1              # tmp is not an entry ...
        assert stats.orphan_tmp_files == 1     # ... but it is surfaced
        assert stats.orphan_tmp_bytes == stale.stat().st_size
        assert "orphaned tmp" in stats.summary()

    def test_prune_sweeps_stale_tmp_files(self, tmp_path):
        cache = SimCache(directory=str(tmp_path))
        cache.put(sweep_key("x", DEFAULT_PLATFORM, a=1), "v")
        stale = self._plant_stale_tmp(tmp_path)
        result = cache.prune(max_bytes=10 ** 9)  # entries all within budget
        assert result.removed == 0               # no real entry touched
        assert result.removed_tmp == 1 and not stale.exists()
        assert "orphaned tmp" in result.summary()
        assert cache.stats().orphan_tmp_files == 0

    def test_prune_age_gate_spares_live_writer_tmp(self, tmp_path):
        """A fresh temp file may belong to a writer mid-spill: prune must
        not race it."""
        cache = SimCache(directory=str(tmp_path))
        live = tmp_path / "cafecafe.pkl.tmp.99999"
        live.write_bytes(b"in-flight spill")
        result = cache.prune(max_bytes=10 ** 9)
        assert result.removed_tmp == 0 and live.exists()
        # An explicit zero grace period sweeps it immediately.
        result = cache.prune(max_bytes=10 ** 9, tmp_grace_seconds=0.0)
        assert result.removed_tmp == 1 and not live.exists()


class TestThreadSafety:
    """Regression: ``__contains__`` saved/restored the counters
    non-atomically and ``_memory`` was mutated unlocked — fine for
    process pools (one instance each), wrong once the service shares a
    cache across threads and asyncio tasks."""

    def test_threaded_put_lookup_contains_stress(self, tmp_path):
        import threading

        cache = SimCache(directory=str(tmp_path))
        keys = [sweep_key("stress", DEFAULT_PLATFORM, a=i)
                for i in range(20)]
        errors = []

        def hammer(worker):
            try:
                for round_ in range(50):
                    for i, key in enumerate(keys):
                        cache.put(key, i)
                        assert key in cache
                        value = cache.lookup(key)
                        assert value == i, f"worker {worker}: {value} != {i}"
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Counter conservation: every counted lookup() was a hit, and
        # __contains__ probes left the counters alone.
        assert cache.hits == 8 * 50 * 20
        assert cache.misses == 0

    def test_contains_probe_is_atomic_wrt_counters(self):
        """A __contains__ running concurrently with lookups must not
        roll back their counts (the old save/restore did)."""
        import threading

        cache = SimCache()
        key = sweep_key("atomic", DEFAULT_PLATFORM, a=1)
        cache.put(key, "v")
        stop = threading.Event()

        def prober():
            while not stop.is_set():
                assert key in cache

        thread = threading.Thread(target=prober)
        thread.start()
        try:
            for _ in range(2_000):
                cache.lookup(key)
        finally:
            stop.set()
            thread.join()
        assert cache.hits == 2_000  # none lost to a concurrent probe


class TestMemoryBound:
    """Regression: every disk hit was promoted into ``_memory``
    unboundedly — a long-lived server leaks until OOM."""

    def test_lru_bound_evicts_but_disk_still_serves(self, tmp_path):
        cache = SimCache(directory=str(tmp_path), max_memory_entries=3)
        keys = [sweep_key("lru", DEFAULT_PLATFORM, a=i) for i in range(10)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert cache.memory_entries() == 3
        # Evicted entries degrade to disk hits, not losses.
        for i, key in enumerate(keys):
            assert cache.lookup(key) == i
        assert cache.misses == 0
        assert cache.memory_entries() == 3

    def test_lru_keeps_recently_used(self):
        cache = SimCache(max_memory_entries=2)
        k1 = sweep_key("lru", DEFAULT_PLATFORM, a=1)
        k2 = sweep_key("lru", DEFAULT_PLATFORM, a=2)
        k3 = sweep_key("lru", DEFAULT_PLATFORM, a=3)
        cache.put(k1, 1)
        cache.put(k2, 2)
        assert cache.lookup(k1) == 1     # touch k1: k2 is now the LRU
        cache.put(k3, 3)                 # evicts k2 (memory-only: gone)
        assert cache.lookup(k1) == 1
        assert cache.lookup(k3) == 3
        assert cache.lookup(k2) is MISS

    def test_unbounded_by_default(self):
        cache = SimCache()
        for i in range(500):
            cache.put(sweep_key("unbounded", DEFAULT_PLATFORM, a=i), i)
        assert cache.memory_entries() == 500

    def test_serve_zero_bound_is_unbounded(self, tmp_path, monkeypatch):
        """``serve --mem-entries 0`` promises an unbounded table.  The
        runner once turned 0 into ``None``, which fell back to a
        ``REPRO_SIM_CACHE_MEM`` variable, so a stray one in the
        environment silently capped the server's table."""
        import repro.service.http as http_mod
        from repro.experiments.runner import main

        served = []
        monkeypatch.setattr(http_mod, "run_server",
                            lambda *a, cache, **kw: served.append(cache))
        monkeypatch.setenv("REPRO_SIM_CACHE_MEM", "4")
        assert main(["serve", "--mem-entries", "0", "--no-surface",
                     "--store-dir", str(tmp_path)]) == 0
        cache = served[0]
        assert cache.max_memory_entries is None
        for i in range(10):
            cache.put(sweep_key("zero", DEFAULT_PLATFORM, a=i), i)
        assert cache.memory_entries() == 10


def test_parallel_sweep_prefilters_cached_points():
    from repro.experiments.parallel import parallel_sweep

    cache = SimCache()
    calls = []

    def fn(x):
        calls.append(x)
        return x * 10

    def key_fn(x):
        return sweep_key("unit", DEFAULT_PLATFORM, x=x)

    out1 = parallel_sweep(fn, [1, 2, 3], workers=1, cache=cache, key_fn=key_fn)
    assert out1 == [10, 20, 30] and calls == [1, 2, 3]
    out2 = parallel_sweep(fn, [3, 2, 4], workers=1, cache=cache, key_fn=key_fn)
    assert out2 == [30, 20, 40]
    assert calls == [1, 2, 3, 4]  # only the new point was computed
