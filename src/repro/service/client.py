"""Small synchronous HTTP client for the sweep service.

Stdlib ``http.client`` only — this is the helper the tests, the CI smoke
job and scripted consumers use; it adds no behaviour beyond URL building,
JSON decoding, typed errors and connection reuse.  Each method mirrors
one endpoint of :mod:`repro.service.http` and returns the decoded JSON
body verbatim (the ``manifest`` key included), so callers see exactly
what the wire carries.

Every thread that uses a client gets its own persistent connection, so
concurrent callers never queue behind one socket.  A GET that finds its
kept-alive connection closed before any response byte arrives (the
server dropped it while idle) is sent once more on a fresh connection.
Requests go straight to the base URL's host: proxy environment
variables such as ``http_proxy`` are not consulted.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Any, Dict, List, Optional

from ..errors import ReproError


class ServiceClientError(ReproError):
    """Non-2xx response; carries the status and the decoded error body."""

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        self.status = status
        self.body = body
        super().__init__(
            f"service returned {status}: {body.get('error', body)}")


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8321``).

    ``http`` and ``https`` URLs are accepted, with an optional path
    prefix that is put before every endpoint path.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        host = url.hostname
        if url.scheme not in ("http", "https") or not host:
            raise ValueError(
                f"service URL must be http:// or https://, got {base_url!r}")
        self._connection_type = (http.client.HTTPSConnection
                                 if url.scheme == "https"
                                 else http.client.HTTPConnection)
        self._host = host
        self._port = url.port
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (opened by its first request)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_type(self._host, self._port,
                                         timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close the connections of every thread; call it when no
        request is in flight.  A later request reconnects."""
        with self._lock:
            for conn in self._connections:
                conn.close()

    def _get(self, path: str,
             params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        target = self._prefix + path
        if params:
            target += "?" + urllib.parse.urlencode(
                {k: v for k, v in params.items() if v is not None})
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("GET", target)
                resp = conn.getresponse()
            except ConnectionError:
                # A reset, a broken pipe or ``RemoteDisconnected``: the
                # server closed the kept-alive connection before any
                # response byte, so the GET is safe to send once more.
                if not reused:
                    raise
                conn.close()
                conn.request("GET", target)
                resp = conn.getresponse()
            raw = resp.read()
        except BaseException:
            conn.close()  # its request/response state is unknown
            raise
        if 200 <= resp.status < 300:
            return json.loads(raw.decode())
        try:
            body = json.loads(raw.decode())
        except ValueError:
            body = {"error": f"HTTP Error {resp.status}: {resp.reason}"}
        raise ServiceClientError(resp.status, body)

    def healthz(self) -> Dict[str, Any]:
        """Liveness probe; raises on any non-2xx."""
        return self._get("/healthz")

    def estimate(self, *, pattern: str = "CCS", fabric: str = "xlnx",
                 rw: str = "2:1", burst: int = 16,
                 outstanding: int = 32) -> Dict[str, Any]:
        """Closed-form analytic bandwidth estimate for a design point."""
        return self._get("/v1/estimate", {
            "pattern": pattern, "fabric": fabric, "rw": rw,
            "burst": burst, "outstanding": outstanding})

    def advise(self, *, pattern: str = "CCS", fabric: str = "xlnx",
               rw: str = "2:1", burst: int = 16,
               outstanding: int = 32) -> Dict[str, Any]:
        """Design-guideline findings for a design point."""
        return self._get("/v1/advise", {
            "pattern": pattern, "fabric": fabric, "rw": rw,
            "burst": burst, "outstanding": outstanding})

    def sweep(self, *, pattern: str = "CCS", fabric: str = "xlnx",
              rw: str = "2:1", burst: int = 16, outstanding: int = 32,
              cycles: Optional[int] = None,
              wait: bool = True) -> Dict[str, Any]:
        """Measured bandwidth: store/surface fast path or a simulation.

        ``wait=False`` turns a cold point into a 202-"pending" warm-up
        enqueue instead of blocking on the simulation; the raised
        :class:`ServiceClientError` is *not* used for 202 (it is a
        success), so callers just check ``body.get("status")``.
        """
        return self._get("/v1/sweep", {
            "pattern": pattern, "fabric": fabric, "rw": rw,
            "burst": burst, "outstanding": outstanding,
            "cycles": cycles, "wait": 1 if wait else 0})

    def stats(self) -> Dict[str, Any]:
        """Queue counters, in-flight depth, store footprint, and the
        server's HTTP connection and request counts."""
        return self._get("/v1/stats")
