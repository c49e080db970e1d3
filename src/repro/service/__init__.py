"""Long-lived sweep service: dedup'ing job queue and an HTTP serving
tier for estimate / advise / sweep queries, over the shared result store.

The batch experiments regenerate the paper's figures; this package
serves the same numbers *on demand*.  Two layers, each usable alone,
over the :class:`~repro.sim.cache.SimCache` the batch sweeps spill to
(one directory shared across processes, entries named by their
:func:`~repro.sim.cache.entry_digest`):

* :class:`~repro.service.queue.JobQueue` — an asyncio queue that owns
  the cache and the platform, deduplicates concurrent identical
  requests into one simulation and writes every result through to the
  cache,
* :class:`~repro.service.http.SweepService` /
  :class:`~repro.service.http.ServiceServer` — a stdlib HTTP front end
  that builds a point's store key once per request and answers warm
  queries in sub-millisecond time from the cache or the precomputed
  :class:`~repro.experiments.surface.SweepSurface`, falling back to the
  queue for cold points.

Start one with ``repro-hbm serve``; talk to it with
:class:`~repro.service.client.ServiceClient`.
"""

from importlib import import_module
from typing import Any

#: Public name -> submodule defining it.  Names resolve on first use
#: (PEP 562), so importing the client loads no server or queue.
_EXPORTS = {
    "JobFailure": "queue",
    "JobQueue": "queue",
    "JobResult": "queue",
    "QueueClosed": "queue",
    "QueueCounters": "queue",
    "SERVICE_API_VERSION": "http",
    "BadRequest": "http",
    "HttpCounters": "http",
    "ServiceServer": "http",
    "SweepService": "http",
    "run_server": "http",
    "ServiceClient": "client",
    "ServiceClientError": "client",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
