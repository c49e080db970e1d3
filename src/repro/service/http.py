"""Minimal asyncio HTTP front end of the sweep service.

Stdlib only (``asyncio.start_server`` + hand-rolled HTTP/1.1 GET
parsing): the service must run inside the reproduction's existing
environment, so no web framework.  Connections are persistent, as
HTTP/1.1 makes them by default: one connection carries request after
request, each head read whole under one :data:`REQUEST_TIMEOUT_S`.  The
server closes a connection after the response to a ``Connection: close``
or HTTP/1.0 request, and to any request it does not fully parse (a
non-GET, a GET with a body, an incomplete, oversize or malformed head),
so a connection is never left out of step with its client.
:meth:`ServiceServer.stop` closes idle connections itself.  Endpoints:

``GET /healthz``
    Liveness probe.
``GET /v1/estimate?pattern=CCS&fabric=xlnx&rw=2:1&burst=16&outstanding=32``
    Closed-form analytic bandwidth estimate
    (:class:`~repro.core.estimator.BandwidthEstimator`) — pure
    arithmetic, sub-millisecond by construction.
``GET /v1/advise?...``
    Design-guideline findings
    (:func:`~repro.core.guidelines.evaluate_guidelines`).
``GET /v1/sweep?...&cycles=3000&wait=1``
    *Measured* bandwidth.  Fast paths, in order: the shared result
    store, the precomputed surface (exact grid point), log2-linear
    burst interpolation between grid points.  A cold point falls back to
    the job queue: ``wait=1`` blocks until the simulation finishes,
    ``wait=0`` returns ``202 Accepted`` with the job digest and warms
    the store in the background.
``GET /v1/stats``
    Queue counters, in-flight depth, store footprint, and the HTTP
    counters (connections accepted, requests answered).

Every 200/202 response carries a ``manifest``
(:func:`~repro.telemetry.manifest.service_manifest`) naming the answer's
source and — for store-backed answers — the content-addressed entry it
came from, plus a ``latency_ms`` field measured at the handler boundary.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..core.estimator import BandwidthEstimator, EstimateInputs
from ..core.guidelines import (DesignDescription, evaluate_guidelines,
                               worst_severity)
from ..errors import ConfigError, ReproError
from ..experiments._common import DEFAULT_CYCLES
from ..experiments.surface import (PatternPoint, SweepSurface,
                                   point_cache_key, sample_from_report)
from ..sim.cache import MISS, SimCache, entry_digest
from ..telemetry.manifest import service_manifest
from ..types import FabricKind, Pattern, RWRatio
from .queue import JobFailure, JobQueue, QueueClosed

#: Service protocol version (the ``/v1/`` path segment).
SERVICE_API_VERSION = 1

#: Seconds a connection may take to send a whole request head, idle time
#: before it included; a connection that takes longer is closed.
REQUEST_TIMEOUT_S = 30.0


class BadRequest(ReproError):
    """Malformed query string; becomes a 400 with the detail."""


def _parse_rw(text: str) -> RWRatio:
    try:
        r, w = text.split(":")
        return RWRatio(int(r), int(w))
    except (ValueError, TypeError) as exc:
        raise BadRequest(
            f"rw must be READS:WRITES (e.g. 2:1), got {text!r}") from exc


def _parse_int(params: Dict[str, str], name: str, default: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise BadRequest(f"{name} must be an integer, got {raw!r}") from exc


def _parse_point(params: Dict[str, str], *,
                 default_cycles: int) -> PatternPoint:
    """Normalize a query string into a :class:`PatternPoint`."""
    pattern_name = params.get("pattern", "CCS").upper()
    try:
        pattern = Pattern[pattern_name]
    except KeyError as exc:
        raise BadRequest(
            f"unknown pattern {pattern_name!r}; expected one of "
            f"{', '.join(p.name for p in Pattern)}") from exc
    fabric_name = params.get("fabric", "xlnx").lower()
    try:
        fabric = FabricKind(fabric_name)
    except ValueError as exc:
        raise BadRequest(
            f"unknown fabric {fabric_name!r}; expected one of "
            f"{', '.join(f.value for f in FabricKind)}") from exc
    try:
        return PatternPoint(
            fabric=fabric,
            pattern=pattern,
            burst_len=_parse_int(params, "burst", 16),
            rw=_parse_rw(params.get("rw", "2:1")),
            cycles=_parse_int(params, "cycles", default_cycles),
            outstanding=_parse_int(params, "outstanding", 32),
        )
    except ValueError as exc:  # RWRatio validation
        raise BadRequest(str(exc)) from exc


@dataclass
class HttpCounters:
    """Connections the server accepted and requests it answered since
    start; ``requests / connections`` is the reuse a client got."""

    connections: int = 0
    requests: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"connections": self.connections, "requests": self.requests}


def _point_inputs(point: PatternPoint) -> Dict[str, Any]:
    """The normalized query echoed into the response manifest."""
    return {"fabric": point.fabric.value, "pattern": point.pattern.name,
            "burst_len": point.burst_len, "rw": str(point.rw),
            "cycles": point.cycles, "outstanding": point.outstanding}


class SweepService:
    """The handler tier: query -> JSON body + status, no socket code.

    Split from the socket loop so tests can drive handlers directly
    (awaiting :meth:`handle`) and the HTTP framing stays a dumb shell.
    The result cache and the platform are the queue's, so a stored
    answer and a simulated one are keyed alike.
    """

    def __init__(self, queue: JobQueue, *,
                 surface: Optional[SweepSurface] = None,
                 default_cycles: int = DEFAULT_CYCLES) -> None:
        self.queue = queue
        self.cache = queue.cache
        self.platform = queue.platform
        self.surface = surface
        self.default_cycles = default_cycles
        self.estimator = BandwidthEstimator(self.platform)
        #: Counted by the :class:`ServiceServer` in front of this service.
        self.http = HttpCounters()

    # -- endpoint handlers -------------------------------------------------

    def _healthz(self, params: Dict[str, str]) -> Tuple[int, Dict]:
        return 200, {"ok": True, "api_version": SERVICE_API_VERSION}

    def _estimate(self, params: Dict[str, str]) -> Tuple[int, Dict]:
        point = _parse_point(params, default_cycles=self.default_cycles)
        try:
            est = self.estimator.estimate(EstimateInputs(
                fabric=point.fabric, pattern=point.pattern, rw=point.rw,
                burst_len=point.burst_len, outstanding=point.outstanding))
        except ConfigError as exc:
            raise BadRequest(str(exc)) from exc
        return 200, {
            "result": {
                "total_gbps": est.total_gbps,
                "read_gbps": est.read_gbps,
                "write_gbps": est.write_gbps,
                "bottleneck": est.bottleneck,
                "nch_eff": est.nch_eff,
                "notes": list(est.notes),
            },
            "source": "analytic",
            "manifest": service_manifest(
                "estimate", self.platform, source="analytic",
                inputs=_point_inputs(point)),
        }

    def _advise(self, params: Dict[str, str]) -> Tuple[int, Dict]:
        point = _parse_point(params, default_cycles=self.default_cycles)
        findings = evaluate_guidelines(
            DesignDescription(rw=point.rw, burst_len=point.burst_len,
                              outstanding=point.outstanding,
                              pattern=point.pattern, fabric=point.fabric),
            self.platform)
        return 200, {
            "result": {
                "findings": [{"rule": g.rule, "severity": g.severity.value,
                              "message": g.message} for g in findings],
                "worst_severity": worst_severity(findings).value,
            },
            "source": "analytic",
            "manifest": service_manifest(
                "advise", self.platform, source="analytic",
                inputs=_point_inputs(point)),
        }

    def _report_body(self, point: PatternPoint, report) -> Dict[str, Any]:
        sample = sample_from_report(point, report, self.platform)
        return {"total_gbps": sample.total_gbps,
                "read_gbps": sample.read_gbps,
                "write_gbps": sample.write_gbps,
                "fraction_of_peak": sample.fraction_of_peak}

    async def _sweep(self, params: Dict[str, str]) -> Tuple[int, Dict]:
        point = _parse_point(params, default_cycles=self.default_cycles)
        wait = params.get("wait", "1") not in ("0", "false", "no")
        inputs = _point_inputs(point)
        key = point_cache_key(point, self.platform)

        # Fast path 1: the shared result store.
        report = self.cache.lookup(key)
        if report is not MISS:
            return 200, {
                "result": self._report_body(point, report),
                "source": "store",
                "manifest": service_manifest(
                    "sweep", self.platform, source="store",
                    inputs=inputs, entry=entry_digest(key)),
            }
        # Fast path 2: the precomputed surface (exact or interpolated).
        if self.surface is not None:
            value = self.surface.lookup(point)
            if value is not None and value.interpolated:
                return 200, {
                    "result": {"total_gbps": value.total_gbps},
                    "source": "interpolated",
                    "interpolation": {
                        "axis": "burst_len",
                        "scale": "log2",
                        "lower_burst_len": value.lower.point.burst_len,
                        "lower_gbps": value.lower.total_gbps,
                        "upper_burst_len": value.upper.point.burst_len,
                        "upper_gbps": value.upper.total_gbps,
                    },
                    "manifest": service_manifest(
                        "sweep", self.platform, source="interpolated",
                        inputs=inputs),
                }
            if value is not None:
                return 200, {
                    "result": {"total_gbps": value.total_gbps},
                    "source": "surface",
                    "manifest": service_manifest(
                        "sweep", self.platform, source="surface",
                        inputs=inputs),
                }
        # Slow path: a real simulation through the dedup'ing queue.
        if not wait:
            digest = self.queue.enqueue_nowait(point)
            return 202, {
                "status": "pending",
                "entry": digest,
                "manifest": service_manifest(
                    "sweep", self.platform, source="pending",
                    inputs=inputs, entry=digest),
            }
        job = await self.queue.submit(point)
        return 200, {
            "result": self._report_body(point, job.report),
            "source": job.source,
            "manifest": service_manifest(
                "sweep", self.platform, source=job.source,
                inputs=inputs, entry=job.digest),
        }

    def _stats(self, params: Dict[str, str]) -> Tuple[int, Dict]:
        stats = self.cache.stats()
        return 200, {
            "queue": self.queue.counters.as_dict(),
            "inflight": self.queue.pending(),
            "store": {
                "directory": stats.directory,
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "orphan_tmp_files": stats.orphan_tmp_files,
                "memory_entries": self.cache.memory_entries(),
                "max_memory_entries": self.cache.max_memory_entries,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "surface_samples": len(self.surface) if self.surface else 0,
            "http": self.http.as_dict(),
            "manifest": service_manifest(
                "stats", self.platform, source="analytic"),
        }

    # -- dispatch ----------------------------------------------------------

    async def handle(self, method: str, path: str) -> Tuple[int, Dict]:
        """Route one request; always returns (status, JSON-able body)."""
        start = time.perf_counter()  # det-lint: allow (latency display)
        parsed = urllib.parse.urlsplit(path)
        params = dict(urllib.parse.parse_qsl(parsed.query))
        route = parsed.path.rstrip("/") or "/"
        try:
            if method != "GET":
                return 405, {"error": f"method {method} not allowed"}
            if route == "/healthz":
                status, body = self._healthz(params)
            elif route == "/v1/estimate":
                status, body = self._estimate(params)
            elif route == "/v1/advise":
                status, body = self._advise(params)
            elif route == "/v1/sweep":
                status, body = await self._sweep(params)
            elif route == "/v1/stats":
                status, body = self._stats(params)
            else:
                return 404, {"error": f"no such endpoint: {route}"}
        except BadRequest as exc:
            return 400, {"error": str(exc)}
        except QueueClosed as exc:
            return 503, {"error": str(exc)}
        except JobFailure as exc:
            return 500, {"error": str(exc),
                         "failure": {"kind": exc.kind, "detail": exc.detail,
                                     "entry": exc.digest}}
        elapsed_ms = (time.perf_counter() - start) * 1e3  # det-lint: allow
        body["latency_ms"] = round(elapsed_ms, 3)
        return status, body


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _parse_head(head: bytes) -> Optional[Tuple[str, str, bool]]:
    """``(method, target, keep_alive)`` of one request head, or ``None``
    if it is malformed.

    ``keep_alive`` holds only for an HTTP/1.1 GET without a body and
    without ``Connection: close``: after anything else the connection's
    next byte is not known to start a request head.
    """
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        return None
    method, target, version = parts
    keep_alive = version == "HTTP/1.1" and method == "GET"
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            return None
        name = name.strip().lower()
        if name == "connection":
            tokens = {t.strip().lower() for t in value.split(",")}
            keep_alive = keep_alive and "close" not in tokens
        elif name == "content-length":
            keep_alive = keep_alive and value.strip() == "0"
        elif name == "transfer-encoding":
            keep_alive = False
    return method, target, keep_alive


def _response(status: int, body: Dict, keep_alive: bool) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode()
    close = "" if keep_alive else "Connection: close\r\n"
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n{close}\r\n")
    return head.encode("latin-1") + payload


class ServiceServer:
    """The socket shell: framing, lifecycle, graceful drain."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port  #: actual bound port after :meth:`start`
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        #: Connections waiting for a request head: what :meth:`stop` closes.
        self._idle: Set[asyncio.StreamWriter] = set()

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        counters = self.service.http
        counters.connections += 1
        try:
            keep_alive = True
            while keep_alive and not self._stopping:
                self._idle.add(writer)
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), REQUEST_TIMEOUT_S)
                    request = _parse_head(head)
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        return  # closed between requests
                    request = None  # EOF inside a head
                except asyncio.LimitOverrunError:
                    request = None  # oversize head
                finally:
                    self._idle.discard(writer)
                counters.requests += 1
                if request is None:
                    status, body = 400, {"error": "incomplete, oversize or "
                                                  "malformed request head"}
                    keep_alive = False
                else:
                    method, target, keep_alive = request
                    status, body = await self.service.handle(method, target)
                keep_alive = keep_alive and not self._stopping
                writer.write(_response(status, body, keep_alive))
                await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass  # idle too long, or the client went away
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self) -> None:
        """Bind the socket and start the queue workers."""
        await self.service.queue.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close idle connections,
        drain the queue.  A connection with a request in flight closes
        after its response.

        Idle connections are closed here because from Python 3.12.1 on
        ``wait_closed`` also waits for every open connection.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.queue.close(drain=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()


def run_server(host: str = "127.0.0.1", port: int = 8321, *,
               cache: Optional[SimCache] = None,
               surface: Optional[SweepSurface] = None,
               workers: int = 1, default_cycles: int = DEFAULT_CYCLES,
               task_timeout: Optional[float] = None,
               isolate: bool = False,
               ready: Optional[Any] = None) -> None:
    """Blocking entry point used by ``repro-hbm serve``.

    Runs until SIGINT/SIGTERM, then drains the queue before returning.
    Signal handlers are installed explicitly on the event loop: a server
    backgrounded from a non-interactive shell inherits SIGINT as ignored
    (POSIX job-control rules), and Python leaves ignored signals ignored
    — so relying on KeyboardInterrupt alone would make ``kill -INT``
    (the CI stop step, systemd's default-with-SIGINT units) a no-op.
    ``ready`` (a ``threading.Event``-like object with a ``set()``
    method) is signalled once the socket is bound — the CI smoke test
    and the background-thread test harness key off it.
    """
    queue = JobQueue(cache if cache is not None else SimCache(),
                     workers=workers, task_timeout=task_timeout,
                     isolate=isolate)
    service = SweepService(queue, surface=surface,
                           default_cycles=default_cycles)
    server = ServiceServer(service, host, port)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        hooked = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, shutdown.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without loop signals
        await server.start()
        print(f"repro-hbm service listening on "
              f"http://{server.host}:{server.port}", flush=True)
        if ready is not None:
            ready.set()
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(shutdown.wait())
        try:
            await asyncio.wait({serving, stopping},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (serving, stopping):
                task.cancel()
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await server.stop()
            print("repro-hbm service stopped gracefully", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass  # fallback when loop signal handlers were unavailable
