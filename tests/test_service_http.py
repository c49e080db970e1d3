"""End-to-end tests of the sweep service's HTTP tier.

A real ``ServiceServer`` runs on an ephemeral port in a background
thread (its own event loop); a real ``ServiceClient`` talks to it over
TCP — the same wiring the CI smoke job and production users get.
"""

import asyncio
import concurrent.futures
import os
import pathlib
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.service.http as http_mod
from repro.experiments.surface import (PatternPoint, build_surface,
                                       point_cache_key)
from repro.service import (JobQueue, ServiceClient, ServiceClientError,
                           ServiceServer, SweepService)
from repro.sim.cache import SimCache, entry_digest
from repro.types import Pattern

CYCLES = 800
ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    surface = build_surface(small_platform, cycles=CYCLES,
                            patterns=(Pattern.SCS,),
                            burst_lengths=(1, 4, 16), workers=1, cache=cache)
    queue = JobQueue(cache, small_platform, workers=2)
    service = SweepService(queue, surface=surface, default_cycles=CYCLES)
    with _BackgroundServer(service) as base_url:
        client = ServiceClient(base_url)
        yield client, service
        client.close()


def _bare_service(platform) -> SweepService:
    """A service without a surface, its HTTP counters at zero."""
    return SweepService(JobQueue(SimCache(), platform, workers=1),
                        default_cycles=CYCLES)


@pytest.fixture
def bare(small_platform):
    """A fresh server per test, for exact connection counts."""
    with _BackgroundServer(_bare_service(small_platform)) as base_url:
        yield base_url


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
        assert m["entry"] == entry_digest(point_cache_key(
            PatternPoint(pattern=Pattern.SCS, burst_len=16, cycles=CYCLES),
            service.platform))

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
        key = point_cache_key(point, service.platform)
        assert digest == entry_digest(key)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if key in service.cache:
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

        def held_run_point(job):
            deadline = time.monotonic() + 30
            while (service.queue.counters.submitted < arrived
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return run_point(job)
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
        # This request is counted, on the connection this thread reused.
        http = body["http"]
        assert http["requests"] >= http["connections"] >= 1
        again = client.stats()["http"]
        assert again == {"connections": http["connections"],
                         "requests": http["requests"] + 1}

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


def _connect(base_url: str) -> socket.socket:
    host, port = base_url.rsplit("/", 1)[1].split(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.settimeout(10)
    return sock


def _read_response(reader):
    """``(status, headers, body)`` of one response read off ``reader``."""
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return status, headers, body


def _closed_by_server(sock) -> bool:
    """The server closed ``sock``: the next read sees EOF (or a reset)
    within the socket's timeout, not more data and not silence."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def _exchange(base_url: str, raw: bytes, *, shut_write: bool = False):
    """Send ``raw`` on a fresh socket; the one response and whether the
    server then closed the connection."""
    with _connect(base_url) as sock:
        sock.sendall(raw)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            response = _read_response(reader)
        return response, _closed_by_server(sock)


class TestKeepAlive:
    """Persistent connections: one per client thread, closed exactly
    when the framing can no longer be trusted or the client asks."""

    def test_sequential_requests_share_one_connection(self, bare):
        client = ServiceClient(bare)
        try:
            for _ in range(20):
                assert client.healthz()["ok"] is True
            assert client.stats()["http"] == {"connections": 1,
                                              "requests": 21}
        finally:
            client.close()

    @pytest.mark.parametrize("raw", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_close_requests_are_answered_then_closed(self, bare, raw):
        (status, headers, body), closed = _exchange(bare, raw)
        assert status == 200 and b'"ok": true' in body
        assert headers["connection"] == "close"
        assert closed

    def test_error_responses_keep_the_connection(self, bare):
        client = ServiceClient(bare)
        try:
            with pytest.raises(ServiceClientError) as info:
                client.sweep(pattern="BOGUS")
            assert info.value.status == 400
            with pytest.raises(ServiceClientError) as info:
                client._get("/v1/nope")
            assert info.value.status == 404
            assert client.stats()["http"] == {"connections": 1,
                                              "requests": 3}
        finally:
            client.close()

    @pytest.mark.parametrize("raw, shut_write, status", [
        (b"POST /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
         False, 405),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
         False, 200),
        (b"NONSENSE\r\n\r\n", False, 400),
        (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", False, 400),
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", True, 400),
    ], ids=["post-with-body", "get-with-body", "bad-request-line",
            "bad-header", "eof-in-head"])
    def test_unparsed_requests_close_after_their_response(
            self, bare, raw, shut_write, status):
        """After a request whose end the server cannot trust, the next
        bytes need not start a request: answer, then close."""
        (got, headers, _), closed = _exchange(bare, raw,
                                              shut_write=shut_write)
        assert got == status
        assert headers["connection"] == "close"
        assert closed

    def test_base_url_prefix_and_schemes(self, bare):
        client = ServiceClient(bare + "/prefix/")
        try:
            with pytest.raises(ServiceClientError) as info:
                client.healthz()
            assert info.value.status == 404
            assert info.value.body["error"] == \
                "no such endpoint: /prefix/healthz"
        finally:
            client.close()
        ServiceClient("https://127.0.0.1:1")  # connects on first use only
        with pytest.raises(ValueError):
            ServiceClient("ftp://127.0.0.1:21")

    def test_client_retries_once_when_an_idle_connection_was_dropped(
            self, bare, monkeypatch):
        monkeypatch.setattr(http_mod, "REQUEST_TIMEOUT_S", 0.2)
        client = ServiceClient(bare)
        try:
            client.healthz()
            # Wait until the server has dropped the idle connection.
            sock = client._local.conn.sock
            assert select.select([sock], [], [], 10)[0], "never dropped"
            monkeypatch.setattr(http_mod, "REQUEST_TIMEOUT_S", 30.0)
            assert client.healthz()["ok"] is True
            assert client.stats()["http"] == {"connections": 2,
                                              "requests": 3}
        finally:
            client.close()

    def test_stop_closes_idle_connections_promptly(self, small_platform):
        client = idle = None
        try:
            with _BackgroundServer(_bare_service(small_platform)) as base_url:
                client = ServiceClient(base_url)
                idle = _connect(base_url)
                client.healthz()  # a kept-alive connection, now idle too
                start = time.monotonic()
            assert time.monotonic() - start < 5.0
            assert _closed_by_server(idle)
            assert _closed_by_server(client._local.conn.sock)
        finally:
            if idle is not None:
                idle.close()
            if client is not None:
                client.close()

    def test_serve_stops_on_sigint_with_an_idle_connection(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-surface", "--store-dir", str(tmp_path)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE, text=True)
        client = None
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            client = ServiceClient(line.split("listening on ", 1)[1].strip())
            client.healthz()  # the server now holds the connection idle
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            if client is not None:
                client.close()
        assert proc.returncode == 0
        assert "repro-hbm service stopped gracefully" in out

    def test_isolated_serve_outlives_its_jobs(self, tmp_path):
        """``serve --isolate`` answers a cold point from a fresh worker
        process and keeps serving after it: killing that worker must not
        reach the server's own SIGTERM handling."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-surface", "--isolate", "--task-timeout", "120",
             "--cycles", "600", "--store-dir", str(tmp_path)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE, text=True)
        client = None
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            client = ServiceClient(line.split("listening on ", 1)[1].strip())
            body = client.sweep(pattern="CCS", burst=4)
            assert body["source"] == "simulated"
            time.sleep(0.2)  # a stray shutdown would land by now
            queue = client.stats()["queue"]
            assert queue["simulated"] == 1 and queue["failed"] == 0
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            if client is not None:
                client.close()
        assert proc.returncode == 0
        assert "repro-hbm service stopped gracefully" in out
