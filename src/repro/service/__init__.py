"""Long-lived sweep service: shared result store, dedup'ing job queue,
and an HTTP serving tier for estimate / advise / sweep queries.

The batch experiments regenerate the paper's figures; this package
serves the same numbers *on demand*.  Three layers, each usable alone:

* :class:`~repro.service.store.ResultStore` — a content-addressed,
  point-typed view of the :class:`~repro.sim.cache.SimCache`, shareable
  across processes through one spill directory,
* :class:`~repro.service.queue.JobQueue` — an asyncio queue that
  deduplicates concurrent identical requests into one supervised
  simulation and writes every result through to the store,
* :class:`~repro.service.http.SweepService` /
  :class:`~repro.service.http.ServiceServer` — a stdlib HTTP front end
  answering warm queries in sub-millisecond time from the store or the
  precomputed :class:`~repro.experiments.surface.SweepSurface`, and
  falling back to the queue for cold points.

Start one with ``repro-hbm serve``; talk to it with
:class:`~repro.service.client.ServiceClient`.
"""

from importlib import import_module
from typing import Any

#: Public name -> submodule defining it.  Names resolve on first use
#: (PEP 562), so importing the client loads no server, queue or store.
_EXPORTS = {
    "ResultStore": "store",
    "entry_digest": "store",
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
