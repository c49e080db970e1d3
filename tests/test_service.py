"""Tests for the sweep service's store, queue, and surface layers.

The HTTP tier has its own module (``test_service_http.py``); here the
layers are driven directly so failures localize.
"""

import asyncio
import os
import threading

import pytest

from repro.experiments._common import measure, measure_key, sweep_key
from repro.experiments.surface import (PatternPoint, build_surface,
                                       point_cache_key, simulate_point)
from repro.runtime import pool as pool_mod
from repro.service import JobFailure, JobQueue, QueueClosed, ResultStore
from repro.sim.cache import SimCache
from repro.types import Pattern, RWRatio

CYCLES = 800  # tiny horizon: these tests exercise plumbing, not numbers


def _point(pattern=Pattern.SCS, burst_len=16, **kw):
    return PatternPoint(pattern=pattern, burst_len=burst_len,
                        cycles=CYCLES, **kw)


def _run(coro):
    return asyncio.run(coro)


def _crash_on_burst_4(args):
    """Kill the worker on burst length 4 (a segfaulting point); simulate
    every other point.  Module-level, so the pool can pickle it."""
    if args[0].burst_len == 4:
        os._exit(137)
    return simulate_point(args)


class TestResultStore:
    def test_round_trip_and_digest_stability(self, small_platform):
        store = ResultStore(platform=small_platform)
        point = _point()
        assert store.get(point) is None
        assert not store.contains(point)
        report = simulate_point((point, small_platform))
        digest = store.put(point, report)
        assert store.get(point).total_gbps == report.total_gbps
        assert store.contains(point)
        # The digest is the content address: stable across calls and
        # identical to a second store over the same platform.
        assert digest == store.digest_for(point)
        assert digest == ResultStore(platform=small_platform).digest_for(point)
        assert len(digest) == 40  # full sha1 — matches the spill filename

    def test_store_keys_match_measure_entries(self, small_platform):
        """Interop contract: an entry written by measure() (i.e. by any
        experiment sweep) is a store hit for the equivalent point."""
        cache = SimCache()
        store = ResultStore(cache=cache, platform=small_platform)
        point = _point(burst_len=4)
        base = sweep_key("pattern-sim", small_platform, fabric=point.fabric,
                         pattern=point.pattern, burst_len=point.burst_len,
                         rw=point.rw, seed=0)
        assert point_cache_key(point, small_platform) == \
            measure_key(base, cycles=CYCLES, outstanding=32)
        from repro import make_fabric
        from repro.traffic import make_pattern_sources
        fab = make_fabric(point.fabric, small_platform)
        sources = make_pattern_sources(point.pattern, small_platform,
                                       burst_len=point.burst_len,
                                       rw=point.rw,
                                       address_map=fab.address_map)
        rep = measure(point.fabric, sources, cycles=CYCLES,
                      platform=small_platform, fabric=fab,
                      cache_key=base, cache=cache)
        hit = store.get(point)
        assert hit is not None and hit.total_gbps == rep.total_gbps

    def test_two_stores_share_one_directory(self, small_platform, tmp_path):
        """Multi-process sharing in miniature: a second store over the
        same spill directory sees the first one's entries."""
        writer = ResultStore(directory=str(tmp_path),
                             platform=small_platform)
        point = _point()
        report = simulate_point((point, small_platform))
        writer.put(point, report)
        reader = ResultStore(directory=str(tmp_path),
                             platform=small_platform)
        assert reader.get(point).total_gbps == report.total_gbps


class TestJobQueue:
    def test_concurrent_identical_requests_share_one_simulation(
            self, small_platform, monkeypatch):
        """The dedup proof: N concurrent submissions of one point run
        exactly one simulation; the rest attach to the in-flight job."""
        import repro.service.queue as queue_mod
        calls = []
        real = queue_mod.simulate_point

        def counting(args):
            calls.append(args[0])
            return real(args)

        monkeypatch.setattr(queue_mod, "simulate_point", counting)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, workers=2)

        async def main():
            await queue.start()
            results = await asyncio.gather(
                *[queue.submit(_point()) for _ in range(6)])
            await queue.close()
            return results

        results = _run(main())
        assert len(calls) == 1
        assert sum(r.source == "simulated" for r in results) == 1
        assert sum(r.source == "deduped" for r in results) == 5
        gbps = {r.report.total_gbps for r in results}
        assert len(gbps) == 1  # everyone got the same report
        assert queue.counters.simulated == 1
        assert queue.counters.deduped == 5
        assert queue.counters.submitted == 6

    def test_store_hit_skips_the_queue(self, small_platform, monkeypatch):
        import repro.service.queue as queue_mod
        calls = []
        monkeypatch.setattr(queue_mod, "simulate_point",
                            lambda args: calls.append(args))
        store = ResultStore(platform=small_platform)
        point = _point()
        report = simulate_point((point, small_platform))
        store.put(point, report)
        queue = JobQueue(store, workers=1)

        async def main():
            await queue.start()
            result = await queue.submit(point)
            await queue.close()
            return result

        result = _run(main())
        assert result.source == "store"
        assert calls == []
        assert queue.counters.store_hits == 1
        assert queue.counters.simulated == 0

    def test_failure_surfaces_structured_not_dead_worker(
            self, small_platform, monkeypatch):
        """A failing simulation rejects *that* future with a JobFailure
        carrying the supervised kind/detail; the queue keeps serving."""
        import repro.service.queue as queue_mod

        def boom(args):
            raise ValueError("synthetic model explosion")

        monkeypatch.setattr(queue_mod, "simulate_point", boom)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, workers=1)

        async def main():
            await queue.start()
            with pytest.raises(JobFailure) as info:
                await queue.submit(_point())
            failure = info.value
            # The queue survives: a second (healthy) submission works.
            monkeypatch.setattr(
                queue_mod, "simulate_point",
                lambda args: simulate_point_real(args))
            result = await queue.submit(_point(pattern=Pattern.SCRA))
            await queue.close()
            return failure, result

        simulate_point_real = simulate_point
        failure, result = _run(main())
        assert failure.kind == "error"
        assert "ValueError" in failure.detail
        assert result.source == "simulated"
        assert queue.counters.failed == 1

    def test_graceful_drain_finishes_accepted_jobs(
            self, small_platform, monkeypatch):
        """close(drain=True) completes queued work before the workers
        die, and rejects anything submitted after the drain began."""
        import repro.service.queue as queue_mod
        started = threading.Event()
        release = threading.Event()
        real = queue_mod.simulate_point

        def slow(args):
            started.set()
            assert release.wait(10)
            return real(args)

        monkeypatch.setattr(queue_mod, "simulate_point", slow)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, workers=1)

        async def main():
            await queue.start()
            job = asyncio.ensure_future(queue.submit(_point()))
            await asyncio.to_thread(started.wait, 10)
            closer = asyncio.ensure_future(queue.close(drain=True))
            await asyncio.sleep(0)  # the drain flag is now set
            with pytest.raises(QueueClosed):
                await queue.submit(_point(pattern=Pattern.CCS))
            release.set()
            result = await job
            await closer
            return result

        result = _run(main())
        assert result.source == "simulated"
        assert store.get(_point()) is not None  # drained job reached store

    def test_priority_orders_dispatch(self, small_platform, monkeypatch):
        """With one worker busy, lower-priority-number jobs run first."""
        import repro.service.queue as queue_mod
        order = []
        gate = threading.Event()
        real = queue_mod.simulate_point

        def tracking(args):
            gate.wait(10)
            order.append(args[0].pattern)
            return real(args)

        monkeypatch.setattr(queue_mod, "simulate_point", tracking)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, workers=1)

        async def main():
            await queue.start()
            # First job occupies the single worker at the gate; the
            # rest queue up and must dispatch by priority.
            first = asyncio.ensure_future(
                queue.submit(_point(pattern=Pattern.SCS), priority=0))
            await asyncio.sleep(0.05)
            low = asyncio.ensure_future(
                queue.submit(_point(pattern=Pattern.CCS), priority=5))
            await asyncio.sleep(0.05)
            high = asyncio.ensure_future(
                queue.submit(_point(pattern=Pattern.CCRA), priority=1))
            await asyncio.sleep(0.05)
            gate.set()
            await asyncio.gather(first, low, high)
            await queue.close()

        _run(main())
        assert order[0] == Pattern.SCS
        assert order[1:] == [Pattern.CCRA, Pattern.CCS]

    def test_isolated_point_matches_inline_simulation(self, small_platform):
        """``isolate=True`` simulates in a one-worker process pool: the
        report equals the in-process one and is written through."""
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, isolate=True)
        point = _point(pattern=Pattern.SCRA, burst_len=8)

        async def main():
            await queue.start()
            result = await queue.submit(point)
            await queue.close()
            return result

        result = _run(main())
        assert result.source == "simulated"
        assert result.report == simulate_point((point, small_platform))
        assert store.get(point) == result.report
        assert queue.counters.simulated == 1

    def test_isolated_crash_is_poison_and_the_queue_survives(
            self, small_platform, monkeypatch):
        """A point that kills its worker becomes a ``poison`` JobFailure
        after its isolated retry; the next point still resolves."""
        import repro.service.queue as queue_mod
        monkeypatch.setattr(queue_mod, "simulate_point", _crash_on_burst_4)
        monkeypatch.setattr(pool_mod, "BACKOFF_BASE_S", 0.01)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, isolate=True)

        async def main():
            await queue.start()
            with pytest.raises(JobFailure) as info:
                await queue.submit(_point(burst_len=4))
            result = await queue.submit(_point(burst_len=16))
            await queue.close()
            return info.value, result

        failure, result = _run(main())
        assert failure.kind == "poison"
        assert "crashed again in isolation" in failure.detail
        assert result.source == "simulated"
        assert store.get(_point(burst_len=4)) is None
        assert store.get(_point(burst_len=16)) == result.report
        assert queue.counters.failed == 1 and queue.counters.simulated == 1

    def test_inline_timeout_rejects_job(self, small_platform, monkeypatch):
        import repro.service.queue as queue_mod

        def hang(args):
            threading.Event().wait(2.0)
            return None

        monkeypatch.setattr(queue_mod, "simulate_point", hang)
        store = ResultStore(platform=small_platform)
        queue = JobQueue(store, workers=1, task_timeout=0.2)

        async def main():
            await queue.start()
            with pytest.raises(JobFailure, match="timeout"):
                await queue.submit(_point())
            await queue.close(drain=False)

        _run(main())
        assert queue.counters.failed == 1


class TestSweepSurface:
    @pytest.fixture(scope="class")
    def surface_and_cache(self, small_platform):
        cache = SimCache()
        surface = build_surface(
            small_platform, cycles=CYCLES, patterns=(Pattern.SCS,),
            burst_lengths=(1, 4, 16), workers=1, cache=cache)
        return surface, cache

    def test_exact_point_matches_measure_identity(self, small_platform,
                                                  surface_and_cache):
        """A grid sample is the *same number* measure() produces — the
        surface adds indexing, never a second model."""
        surface, cache = surface_and_cache
        point = _point(burst_len=4)
        value = surface.lookup(point)
        assert value is not None and not value.interpolated
        rep = simulate_point((point, small_platform))
        assert value.total_gbps == rep.total_gbps

    def test_interpolation_brackets_and_is_log2_linear(self,
                                                       surface_and_cache):
        surface, _ = surface_and_cache
        value = surface.lookup(_point(burst_len=8))
        assert value is not None and value.interpolated
        lo, hi = value.lower, value.upper
        assert (lo.point.burst_len, hi.point.burst_len) == (4, 16)
        bounds = sorted((lo.total_gbps, hi.total_gbps))
        assert bounds[0] <= value.total_gbps <= bounds[1]
        # log2(8) is the midpoint of log2(4)..log2(16).
        assert value.total_gbps == pytest.approx(
            (lo.total_gbps + hi.total_gbps) / 2)

    def test_interpolated_value_close_to_simulated(self, small_platform,
                                                   surface_and_cache):
        """Cross-check the model: the interpolated BL8 number lands
        within a loose tolerance of the actually simulated one."""
        surface, _ = surface_and_cache
        point = _point(burst_len=8)
        interp = surface.lookup(point).total_gbps
        real = simulate_point((point, small_platform)).total_gbps
        assert interp == pytest.approx(real, rel=0.35)

    def test_no_extrapolation_and_no_foreign_curve(self, surface_and_cache):
        surface, _ = surface_and_cache
        assert surface.lookup(_point(burst_len=16,
                                     pattern=Pattern.CCRA)) is None
        # Off-grid rw ratio: different curve, no answer.
        assert surface.lookup(PatternPoint(
            pattern=Pattern.SCS, burst_len=8, rw=RWRatio(1, 1),
            cycles=CYCLES)) is None

    def test_surface_build_is_store_warm(self, small_platform,
                                         surface_and_cache):
        """build_surface wrote through the cache: a store over the same
        cache answers every grid point without simulating."""
        _, cache = surface_and_cache
        store = ResultStore(cache=cache, platform=small_platform)
        for bl in (1, 4, 16):
            assert store.contains(_point(burst_len=bl))

    def test_rebuild_from_warm_cache_is_pure_hit(self, small_platform,
                                                 surface_and_cache):
        _, cache = surface_and_cache
        before = cache.misses
        surface2 = build_surface(
            small_platform, cycles=CYCLES, patterns=(Pattern.SCS,),
            burst_lengths=(1, 4, 16), workers=1, cache=cache)
        assert len(surface2) == 3
        assert cache.misses == before  # nothing re-simulated
