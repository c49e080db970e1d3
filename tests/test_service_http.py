"""End-to-end tests of the sweep service's HTTP tier.

A real ``ServiceServer`` runs on an ephemeral port in a background
thread (its own event loop); a real ``ServiceClient`` talks to it over
TCP — the same wiring the CI smoke job and production users get.
"""

import asyncio
import concurrent.futures
import threading
import time

import pytest

from repro.experiments.surface import PatternPoint, build_surface
from repro.service import (JobQueue, ResultStore, ServiceClient,
                           ServiceClientError, ServiceServer, SweepService)
from repro.sim.cache import SimCache
from repro.types import Pattern

CYCLES = 800


class _BackgroundServer:
    """Run a ServiceServer in a daemon thread; stop() drains cleanly."""

    def __init__(self, service: SweepService) -> None:
        self._server = ServiceServer(service)
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self._server.start()
            self._ready.set()
            await self._stop.wait()
            await self._server.stop()
        asyncio.run(main())

    def __enter__(self) -> str:
        self._thread.start()
        assert self._ready.wait(15), "server did not come up"
        return f"http://127.0.0.1:{self._server.port}"

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server did not drain"


@pytest.fixture(scope="module")
def served(small_platform):
    """One warm service for the whole module: store + surface + queue."""
    cache = SimCache()
    store = ResultStore(cache=cache, platform=small_platform)
    surface = build_surface(small_platform, cycles=CYCLES,
                            patterns=(Pattern.SCS,),
                            burst_lengths=(1, 4, 16), workers=1, cache=cache)
    queue = JobQueue(store, workers=2)
    service = SweepService(store, queue, surface=surface,
                           default_cycles=CYCLES)
    with _BackgroundServer(service) as base_url:
        yield ServiceClient(base_url), service


class TestEndpoints:
    def test_healthz(self, served):
        client, _ = served
        body = client.healthz()
        assert body["ok"] is True and body["api_version"] == 1

    def test_estimate_is_analytic_and_fast(self, served):
        client, _ = served
        body = client.estimate(pattern="CCS", fabric="xlnx", rw="2:1",
                               burst=16)
        assert body["source"] == "analytic"
        assert body["result"]["total_gbps"] > 0
        assert body["result"]["bottleneck"]
        # Handler-side latency budget: closed-form, never a simulation.
        assert body["latency_ms"] < 50.0
        m = body["manifest"]
        assert m["endpoint"] == "estimate" and m["source"] == "analytic"
        assert m["inputs"]["pattern"] == "CCS"

    def test_advise_reports_findings(self, served):
        client, _ = served
        body = client.advise(pattern="CCRA", outstanding=2, burst=1)
        rules = {f["rule"] for f in body["result"]["findings"]}
        assert "burst" in rules and "reorder" in rules
        assert body["result"]["worst_severity"] in ("warning", "critical")
        assert body["manifest"]["endpoint"] == "advise"

    def test_warm_sweep_served_from_store_with_entry_provenance(self,
                                                                served):
        client, service = served
        before = service.queue.counters.simulated
        body = client.sweep(pattern="SCS", burst=16, cycles=CYCLES)
        assert body["source"] == "store"
        assert body["result"]["total_gbps"] > 0
        assert service.queue.counters.simulated == before  # no simulation
        m = body["manifest"]
        assert m["endpoint"] == "sweep" and m["source"] == "store"
        assert m["entry"] == service.store.digest_for(
            PatternPoint(pattern=Pattern.SCS, burst_len=16, cycles=CYCLES))

    def test_off_grid_burst_interpolates(self, served):
        client, service = served
        before = service.queue.counters.simulated
        body = client.sweep(pattern="SCS", burst=8, cycles=CYCLES)
        assert body["source"] == "interpolated"
        interp = body["interpolation"]
        assert (interp["lower_burst_len"], interp["upper_burst_len"]) == \
            (4, 16)
        lo, hi = sorted((interp["lower_gbps"], interp["upper_gbps"]))
        assert lo <= body["result"]["total_gbps"] <= hi
        assert service.queue.counters.simulated == before

    def test_cold_point_waits_for_simulation(self, served):
        client, service = served
        before = service.queue.counters.simulated
        body = client.sweep(pattern="SCRA", burst=16, cycles=CYCLES)
        assert body["source"] == "simulated"
        assert body["result"]["total_gbps"] > 0
        assert service.queue.counters.simulated == before + 1
        # Now warm: the same query is a store hit.
        again = client.sweep(pattern="SCRA", burst=16, cycles=CYCLES)
        assert again["source"] == "store"
        assert again["result"]["total_gbps"] == body["result"]["total_gbps"]

    def test_cold_point_nowait_returns_pending_then_warms(self, served):
        client, service = served
        body = client.sweep(pattern="CCRA", burst=2, cycles=CYCLES,
                            wait=False)
        assert body["status"] == "pending"
        assert body["manifest"]["source"] == "pending"
        digest = body["entry"]
        point = PatternPoint(pattern=Pattern.CCRA, burst_len=2,
                             cycles=CYCLES)
        assert digest == service.store.digest_for(point)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if service.store.get(point) is not None:
                break
            time.sleep(0.05)
        else:
            pytest.fail("background warm-up never landed in the store")
        assert client.sweep(pattern="CCRA", burst=2,
                            cycles=CYCLES)["source"] == "store"

    def test_concurrent_duplicate_requests_simulate_once(self, served,
                                                         monkeypatch):
        """The dedup proof over the wire: 5 clients ask for the same
        cold point at once; exactly one simulation runs."""
        client, service = served
        before_sim = service.queue.counters.simulated
        before_dedup = service.queue.counters.deduped
        # Hold the one simulation until all five requests reached the
        # queue: a request that arrives after it finished would be a
        # store hit, and the test would measure thread scheduling.
        arrived = service.queue.counters.submitted + 5
        run_point = service.queue._run_point

        def held_run_point(point):
            deadline = time.monotonic() + 30
            while (service.queue.counters.submitted < arrived
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return run_point(point)
        monkeypatch.setattr(service.queue, "_run_point", held_run_point)
        kwargs = dict(pattern="CCS", burst=4, cycles=CYCLES)
        with concurrent.futures.ThreadPoolExecutor(5) as pool:
            bodies = list(pool.map(lambda _: client.sweep(**kwargs),
                                   range(5)))
        assert service.queue.counters.simulated == before_sim + 1
        assert service.queue.counters.deduped == before_dedup + 4
        values = {b["result"]["total_gbps"] for b in bodies}
        assert len(values) == 1
        assert sorted(b["source"] for b in bodies) == \
            ["deduped"] * 4 + ["simulated"]

    def test_stats_exposes_counters_and_store(self, served):
        client, service = served
        body = client.stats()
        assert body["queue"] == service.queue.counters.as_dict()
        assert body["store"]["memory_entries"] >= 1
        assert body["surface_samples"] == 3
        assert body["manifest"]["endpoint"] == "stats"

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError) as info:
            client._get("/v1/nope")
        assert info.value.status == 404

    def test_bad_query_is_400_with_detail(self, served):
        client, _ = served
        with pytest.raises(ServiceClientError) as info:
            client.sweep(pattern="BOGUS")
        assert info.value.status == 400
        assert "BOGUS" in info.value.body["error"]
        with pytest.raises(ServiceClientError) as info:
            client.estimate(rw="nonsense")
        assert info.value.status == 400

    def test_every_success_response_carries_provenance(self, served):
        """The provenance contract: every 2xx body from a model-facing
        endpoint embeds a schema-versioned manifest naming its source."""
        client, _ = served
        bodies = [
            client.estimate(pattern="SCS"),
            client.advise(pattern="SCS"),
            client.sweep(pattern="SCS", burst=16, cycles=CYCLES),
            client.sweep(pattern="SCS", burst=8, cycles=CYCLES),
            client.stats(),
        ]
        for body in bodies:
            m = body["manifest"]
            assert m["schema"] == 1
            assert m["model_version"] >= 2
            assert m["platform_digest"]
            assert m["source"] in ("analytic", "store", "interpolated",
                                   "surface", "simulated", "deduped")
