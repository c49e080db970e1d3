"""Async simulation job queue with request deduplication.

The serving tier's slow path: a query the store and the precomputed
surface cannot answer becomes a *job*.  The queue's contract, in order
of importance:

1. **Dedup by content address.**  Two concurrent requests for the same
   :class:`~repro.experiments.surface.PatternPoint` share one in-flight
   simulation — the second ``submit`` awaits the first's future instead
   of enqueueing.  The identity is the entry digest
   (:func:`~repro.sim.cache.entry_digest` of the point's store key), the
   same content address that names the stored result, so "in flight"
   and "already stored" can never disagree about what a point *is*.
2. **Structured failure.**  A job that raises, crashes its isolated
   worker or overruns ``task_timeout`` rejects its future with a typed
   :class:`JobFailure` (kind ``error``, ``crash`` or ``timeout``) —
   never a dead server or a silently dropped request.  A simulation is
   deterministic, so a failed job is not retried.
3. **Store write-through.**  A job writes its report to the shared
   :class:`~repro.sim.cache.SimCache` the moment it lands, so a result
   computed for one client is a store hit for every later one.  The
   queue itself never looks in the store: its caller (the HTTP
   handler) has already missed there.
4. **Graceful drain.**  ``close(drain=True)`` stops intake, lets queued
   and in-flight jobs finish, and only then cancels the workers — a
   server shutdown never strands a waiting client.

Priorities are smaller-first; ties preserve submission order.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..experiments.surface import PatternPoint, point_cache_key, simulate_point
from ..params import DEFAULT_PLATFORM, HbmPlatform
from ..runtime import run_isolated
from ..sim.cache import SimCache, entry_digest


class JobFailure(ReproError):
    """A queued simulation failed: ``kind`` is ``error`` (it raised),
    ``crash`` (its isolated worker died) or ``timeout``."""

    def __init__(self, digest: str, kind: str, detail: str) -> None:
        self.digest = digest
        self.kind = kind
        self.detail = detail
        super().__init__(f"job {digest[:12]} failed ({kind}): {detail}")


class QueueClosed(ReproError):
    """``submit`` was called on a queue that is draining or closed."""


@dataclass
class QueueCounters:
    """Observable accounting of everything the queue did.

    ``submitted`` counts every ``submit`` call; each one resolves as
    exactly one of ``deduped`` (attached to an identical in-flight job),
    ``simulated`` (ran a fresh simulation) or ``failed``.
    """

    submitted: int = 0
    deduped: int = 0
    simulated: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"submitted": self.submitted, "deduped": self.deduped,
                "simulated": self.simulated, "failed": self.failed}


@dataclass(frozen=True)
class JobResult:
    """One resolved submission: the report plus how it was satisfied."""

    report: Any
    source: str  #: ``simulated`` | ``deduped``
    digest: str


@dataclass(order=True)
class _Job:
    priority: int
    seq: int
    digest: str = field(compare=False)
    point: PatternPoint = field(compare=False)
    key: Tuple = field(compare=False)
    future: asyncio.Future = field(compare=False)


class JobQueue:
    """Deduplicating asyncio job queue over the shared result cache.

    ``workers`` asyncio worker tasks pull jobs in priority order and run
    each simulation in a thread (the simulation itself is synchronous
    CPU work), then write its report to ``cache`` under the point's key
    on ``platform``.  ``isolate=True`` runs each simulation once in a
    fresh single-worker *process* instead
    (:func:`~repro.runtime.run_isolated`), so a segfaulting point cannot
    take the server down; the default inline mode still reports
    exceptions as structured failures but shares the server process.

    ``task_timeout`` bounds each job in seconds.  Under ``isolate`` the
    worker process is killed at the deadline; inline it bounds only the
    await — the orphaned thread finishes in the background and its
    result still reaches the store.
    """

    def __init__(self, cache: SimCache,
                 platform: HbmPlatform = DEFAULT_PLATFORM, *,
                 workers: int = 1, task_timeout: Optional[float] = None,
                 isolate: bool = False) -> None:
        self.cache = cache
        self.platform = platform
        self.counters = QueueCounters()
        self.task_timeout = task_timeout
        self.isolate = isolate
        self._workers = max(1, workers)
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._tasks: list = []
        self._seq = itertools.count()
        self._closing = False

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        while len(self._tasks) < self._workers:
            self._tasks.append(asyncio.ensure_future(self._worker()))

    def _run_point(self, job: _Job) -> Any:
        """Synchronous job body (runs in a thread off the event loop):
        one simulation, written through to the cache, or a
        :class:`JobFailure`."""
        args = (job.point, self.platform)
        if self.isolate:
            kind, value = run_isolated(simulate_point, args,
                                       self.task_timeout)
        else:
            try:
                kind, value = None, simulate_point(args)
            except Exception as exc:  # noqa: BLE001 — a structured failure
                kind, value = "error", f"{type(exc).__name__}: {exc}"
        if kind is not None:
            raise JobFailure(job.digest, kind, value)
        self.cache.put(job.key, value)
        return value

    async def _worker(self) -> None:
        while True:
            job: _Job = await self._queue.get()
            try:
                coro = asyncio.to_thread(self._run_point, job)
                if self.task_timeout is not None and not self.isolate:
                    coro = asyncio.wait_for(coro, self.task_timeout)
                report = await coro
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.set_exception(QueueClosed(
                        "server shut down before the job ran"))
                raise
            except asyncio.TimeoutError:
                self.counters.failed += 1
                if not job.future.done():
                    job.future.set_exception(JobFailure(
                        job.digest, "timeout",
                        f"exceeded the {self.task_timeout}s task timeout"))
            except Exception as exc:  # noqa: BLE001 — forwarded, not hidden
                self.counters.failed += 1
                if not job.future.done():
                    job.future.set_exception(exc)
            else:
                self.counters.simulated += 1
                if not job.future.done():
                    job.future.set_result(report)
            finally:
                self._inflight.pop(job.digest, None)
                self._queue.task_done()

    def _enqueue(self, point: PatternPoint, priority: int,
                 ) -> Tuple[str, asyncio.Future, bool]:
        """``(digest, future, fresh)``: the in-flight job for ``point``,
        or a new one queued at ``priority`` (``fresh``)."""
        if self._closing:
            raise QueueClosed("queue is draining; no new jobs accepted")
        key = point_cache_key(point, self.platform)
        digest = entry_digest(key)
        existing = self._inflight.get(digest)
        if existing is not None:
            return digest, existing, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[digest] = future
        self._queue.put_nowait(_Job(priority=priority, seq=next(self._seq),
                                    digest=digest, point=point, key=key,
                                    future=future))
        return digest, future, True

    async def submit(self, point: PatternPoint, *,
                     priority: int = 0) -> JobResult:
        """Resolve ``point`` by a shared in-flight job or a new
        simulation, awaiting until the report is available."""
        digest, future, fresh = self._enqueue(point, priority)
        self.counters.submitted += 1
        if not fresh:
            self.counters.deduped += 1
        report = await asyncio.shield(future)
        return JobResult(report=report,
                         source="simulated" if fresh else "deduped",
                         digest=digest)

    def enqueue_nowait(self, point: PatternPoint, *,
                       priority: int = 10) -> str:
        """Fire-and-forget warm-up: enqueue unless already in flight.

        The cold-path ``wait=0`` HTTP answer uses this — the client gets
        an immediate "pending" and the result lands in the store for the
        next query.  Returns the point's digest either way.
        """
        digest, future, fresh = self._enqueue(point, priority)
        if fresh:
            # A fire-and-forget future has no awaiter; swallow its
            # outcome so a failed warm-up never surfaces as an
            # "exception was never retrieved" noise line.
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None)
        return digest

    def pending(self) -> int:
        """Jobs queued or running (dedup'd submissions count once)."""
        return len(self._inflight)

    async def close(self, *, drain: bool = True) -> None:
        """Stop intake; optionally finish all accepted jobs first."""
        self._closing = True
        if drain and self._tasks:
            await self._queue.join()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
