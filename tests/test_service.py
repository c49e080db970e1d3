"""Tests for the sweep service's store, queue, handler and surface layers.

The HTTP tier has its own module (``test_service_http.py``); here the
layers are driven directly so failures localize.
"""

import asyncio
import os
import sys
import threading
import time

import pytest

from repro.experiments import surface as surface_mod
from repro.experiments._common import measure, measure_key, sweep_key
from repro.experiments.surface import (PatternPoint, build_surface,
                                       point_cache_key, simulate_point)
from repro.service import JobFailure, JobQueue, QueueClosed, SweepService
from repro.sim.cache import MISS, SimCache, entry_digest
from repro.types import Pattern, RWRatio

CYCLES = 800  # tiny horizon: these tests exercise plumbing, not numbers

#: Directory the crash stand-in counts its runs in (one byte a run).
RUN_MARKER_ENV = "SERVICE_TEST_RUN_MARKER"


def _point(pattern=Pattern.SCS, burst_len=16, **kw):
    return PatternPoint(pattern=pattern, burst_len=burst_len,
                        cycles=CYCLES, **kw)


def _run(coro):
    return asyncio.run(coro)


def _crash_on_burst_4(args):
    """Kill the worker on burst length 4 (a segfaulting point), counting
    the run in the marker file; simulate every other point.
    Module-level, so the pool can pickle it."""
    if args[0].burst_len == 4:
        with open(os.path.join(os.environ[RUN_MARKER_ENV], "runs"), "a") as fh:
            fh.write("x")
        os._exit(137)
    return simulate_point(args)


def _hang(args):
    """A simulation that never finishes (module-level: picklable)."""
    time.sleep(600)


class TestResultStore:
    """The result store is a :class:`SimCache` keyed by
    :func:`point_cache_key`."""

    def test_round_trip_and_digest_stability(self, small_platform):
        cache = SimCache()
        point = _point()
        key = point_cache_key(point, small_platform)
        assert cache.lookup(key) is MISS
        assert key not in cache
        report = simulate_point((point, small_platform))
        cache.put(key, report)
        assert cache.lookup(key).total_gbps == report.total_gbps
        assert key in cache
        # The digest is the content address: stable across key builds.
        digest = entry_digest(key)
        assert digest == entry_digest(point_cache_key(point, small_platform))
        assert len(digest) == 40

    def test_store_keys_match_measure_entries(self, small_platform):
        """Interop contract: an entry written by measure() (i.e. by any
        experiment sweep) is a store hit for the equivalent point."""
        cache = SimCache()
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
        hit = cache.lookup(point_cache_key(point, small_platform))
        assert hit is not MISS and hit.total_gbps == rep.total_gbps

    def test_two_stores_share_one_directory(self, small_platform, tmp_path):
        """Multi-process sharing in miniature: a second cache over the
        same spill directory sees the first one's entries."""
        key = point_cache_key(_point(), small_platform)
        report = simulate_point((_point(), small_platform))
        SimCache(directory=str(tmp_path)).put(key, report)
        reader = SimCache(directory=str(tmp_path))
        assert reader.lookup(key).total_gbps == report.total_gbps

    def test_entry_digest_is_the_spill_filename(self, small_platform,
                                                tmp_path):
        """The content address names the entry's file, and a store
        answer's provenance names that entry."""
        cache = SimCache(directory=str(tmp_path))
        key = point_cache_key(_point(), small_platform)
        cache.put(key, simulate_point((_point(), small_platform)))
        names = [p.name for p in tmp_path.iterdir()]
        assert names == [f"{entry_digest(key)}.pkl"]
        service = SweepService(JobQueue(cache, small_platform),
                               default_cycles=CYCLES)
        status, body = _run(service.handle(
            "GET", "/v1/sweep?pattern=SCS&burst=16"))
        assert (status, body["source"]) == (200, "store")
        assert [f"{body['manifest']['entry']}.pkl"] == names


class TestSweepHandler:
    def test_each_answer_builds_one_key_and_looks_it_up_once(
            self, small_platform, monkeypatch):
        """A store hit and an interpolated answer build the point's
        store key once, a simulated one at most twice (handler and
        queue), and each request looks in the store exactly once."""
        cache = SimCache()
        surface = build_surface(small_platform, cycles=CYCLES,
                                patterns=(Pattern.SCS,),
                                burst_lengths=(4, 16), workers=1,
                                cache=cache)
        service = SweepService(JobQueue(cache, small_platform),
                               surface=surface, default_cycles=CYCLES)
        builds = []
        real = surface_mod.point_cache_key

        def counting(*args, **kwargs):
            builds.append(None)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(mod, "point_cache_key", None) is real):
                monkeypatch.setattr(mod, "point_cache_key", counting)

        async def main():
            await service.queue.start()
            seen = []
            for query in ("pattern=SCS&burst=16", "pattern=SCS&burst=8",
                          "pattern=SCRA&burst=16"):
                builds.clear()
                lookups = cache.hits + cache.misses
                status, body = await service.handle(
                    "GET", f"/v1/sweep?{query}")
                assert status == 200
                seen.append((body["source"], len(builds),
                             cache.hits + cache.misses - lookups))
            await service.queue.close()
            return seen

        (store, interp, cold) = _run(main())
        assert store == ("store", 1, 1)
        assert interp == ("interpolated", 1, 1)
        assert cold[0] == "simulated" and cold[1] <= 2 and cold[2] == 1


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
        queue = JobQueue(SimCache(), small_platform, workers=2)

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

    def test_failure_surfaces_structured_not_dead_worker(
            self, small_platform, monkeypatch):
        """A failing simulation rejects *that* future with a JobFailure
        carrying the supervised kind/detail; the queue keeps serving."""
        import repro.service.queue as queue_mod

        def boom(args):
            raise ValueError("synthetic model explosion")

        monkeypatch.setattr(queue_mod, "simulate_point", boom)
        queue = JobQueue(SimCache(), small_platform, workers=1)

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
        cache = SimCache()
        queue = JobQueue(cache, small_platform, workers=1)

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
        # The drained job reached the store.
        assert point_cache_key(_point(), small_platform) in cache

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
        queue = JobQueue(SimCache(), small_platform, workers=1)

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
        """``isolate=True`` simulates in a fresh worker process: the
        report equals the in-process one and is written through."""
        cache = SimCache()
        queue = JobQueue(cache, small_platform, isolate=True)
        point = _point(pattern=Pattern.SCRA, burst_len=8)

        async def main():
            await queue.start()
            result = await queue.submit(point)
            await queue.close()
            return result

        result = _run(main())
        assert result.source == "simulated"
        assert result.report == simulate_point((point, small_platform))
        assert cache.lookup(point_cache_key(point, small_platform)) == \
            result.report
        assert queue.counters.simulated == 1

    def test_isolated_crash_fails_once_and_the_queue_survives(
            self, small_platform, monkeypatch, tmp_path):
        """A point that kills its worker runs once and becomes a
        ``crash`` JobFailure; the next point still resolves."""
        import repro.service.queue as queue_mod
        monkeypatch.setattr(queue_mod, "simulate_point", _crash_on_burst_4)
        monkeypatch.setenv(RUN_MARKER_ENV, str(tmp_path))
        cache = SimCache()
        queue = JobQueue(cache, small_platform, isolate=True)

        async def main():
            await queue.start()
            with pytest.raises(JobFailure) as info:
                await queue.submit(_point(burst_len=4))
            result = await queue.submit(_point(burst_len=16))
            await queue.close()
            return info.value, result

        failure, result = _run(main())
        assert failure.kind == "crash"
        assert (tmp_path / "runs").read_text() == "x"  # one run
        assert result.source == "simulated"
        assert point_cache_key(_point(burst_len=4), small_platform) \
            not in cache
        assert cache.lookup(point_cache_key(_point(burst_len=16),
                                            small_platform)) == result.report
        assert queue.counters.failed == 1 and queue.counters.simulated == 1

    def test_isolated_hang_times_out_at_the_task_timeout(
            self, small_platform, monkeypatch):
        """Under ``isolate`` a hung job is killed at ``task_timeout`` and
        fails as ``timeout``, once, not after retries."""
        import repro.service.queue as queue_mod
        monkeypatch.setattr(queue_mod, "simulate_point", _hang)
        queue = JobQueue(SimCache(), small_platform, isolate=True,
                         task_timeout=1.0)

        async def main():
            await queue.start()
            start = time.monotonic()
            with pytest.raises(JobFailure) as info:
                await queue.submit(_point())
            elapsed = time.monotonic() - start
            await queue.close()
            return info.value, elapsed

        failure, elapsed = _run(main())
        assert failure.kind == "timeout"
        assert elapsed < 2.5
        assert queue.counters.failed == 1

    def test_inline_timeout_rejects_job(self, small_platform, monkeypatch):
        import repro.service.queue as queue_mod

        def hang(args):
            threading.Event().wait(2.0)
            return None

        monkeypatch.setattr(queue_mod, "simulate_point", hang)
        queue = JobQueue(SimCache(), small_platform, workers=1,
                         task_timeout=0.2)

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
        """build_surface wrote through the cache: the store key of every
        grid point hits without simulating."""
        _, cache = surface_and_cache
        for bl in (1, 4, 16):
            assert point_cache_key(_point(burst_len=bl), small_platform) \
                in cache

    def test_rebuild_from_warm_cache_is_pure_hit(self, small_platform,
                                                 surface_and_cache):
        _, cache = surface_and_cache
        before = cache.misses
        surface2 = build_surface(
            small_platform, cycles=CYCLES, patterns=(Pattern.SCS,),
            burst_lengths=(1, 4, 16), workers=1, cache=cache)
        assert len(surface2) == 3
        assert cache.misses == before  # nothing re-simulated
