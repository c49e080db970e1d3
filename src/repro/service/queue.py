"""Async simulation job queue with request deduplication.

The serving tier's slow path: a query the store and the precomputed
surface cannot answer becomes a *job*.  The queue's contract, in order
of importance:

1. **Dedup by content address.**  Two concurrent requests for the same
   :class:`~repro.experiments.surface.PatternPoint` share one in-flight
   simulation — the second ``submit`` awaits the first's future instead
   of enqueueing.  The identity is the store digest, i.e. the same
   content address as the cache entry, so "in flight" and "already
   stored" can never disagree about what a point *is*.
2. **Structured failure.**  Jobs run through
   :func:`~repro.experiments.parallel.supervised_sweep` (optionally on a
   one-worker :class:`~repro.runtime.SupervisedPool` for crash
   isolation), so a crashing or hanging simulation surfaces as a typed
   :class:`JobFailure` carrying the
   :class:`~repro.runtime.TaskFailure` kind/detail — never a dead
   server or a silently dropped request.
3. **Store write-through.**  The sweep layer writes each result to the
   shared :class:`~repro.service.store.ResultStore` the moment it lands
   (same streaming-checkpoint path batch sweeps use), so a result
   computed for one client is a store hit for every later one.
4. **Graceful drain.**  ``close(drain=True)`` stops intake, lets queued
   and in-flight jobs finish, and only then cancels the workers — a
   server shutdown never strands a waiting client.

Priorities are smaller-first; ties preserve submission order.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ReproError
from ..experiments.parallel import supervised_sweep
from ..experiments.surface import PatternPoint, simulate_point, simulate_point_key
from .store import ResultStore


class JobFailure(ReproError):
    """A queued simulation failed; carries the supervised-sweep detail."""

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
    exactly one of ``store_hits`` (answered from the shared store),
    ``deduped`` (attached to an identical in-flight job), ``simulated``
    (ran a fresh simulation) or ``failed``.
    """

    submitted: int = 0
    store_hits: int = 0
    deduped: int = 0
    simulated: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"submitted": self.submitted, "store_hits": self.store_hits,
                "deduped": self.deduped, "simulated": self.simulated,
                "failed": self.failed}


@dataclass(frozen=True)
class JobResult:
    """One resolved submission: the report plus how it was satisfied."""

    report: Any
    source: str  #: ``store`` | ``simulated`` | ``deduped``
    digest: str


@dataclass(order=True)
class _Job:
    priority: int
    seq: int
    digest: str = field(compare=False)
    point: PatternPoint = field(compare=False)
    future: asyncio.Future = field(compare=False)


class JobQueue:
    """Deduplicating asyncio job queue over the supervised sweep runtime.

    ``workers`` asyncio worker tasks pull jobs in priority order and run
    each simulation in a thread (the simulation itself is synchronous
    CPU work).  ``isolate=True`` additionally runs every simulation in a
    one-worker supervised *process* pool, so a segfaulting point cannot
    take the server down; the default inline mode still reports
    exceptions as structured failures but shares the server process.

    ``task_timeout`` bounds each job in seconds.  Under ``isolate`` the
    pool enforces it preemptively (the worker process is killed); inline
    it bounds only the await — the orphaned thread finishes in the
    background and its result still reaches the store.
    """

    def __init__(self, store: ResultStore, *, workers: int = 1,
                 task_timeout: Optional[float] = None,
                 isolate: bool = False) -> None:
        self.store = store
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

    def _run_point(self, point: PatternPoint) -> Any:
        """Synchronous job body (runs in a thread off the event loop).

        One-point supervised sweep against the shared store: a prior
        result short-circuits, a fresh one is written through, and any
        failure comes back as a structured outcome instead of a raise.
        """
        outcome = supervised_sweep(
            simulate_point, [(point, self.store.platform)],
            workers=2 if self.isolate else 1,
            force_pool=self.isolate,
            cache=self.store.cache, key_fn=simulate_point_key,
            task_timeout=self.task_timeout if self.isolate else None)
        if outcome.failures:
            f = outcome.failures[0]
            raise JobFailure(self.store.digest_for(point), f.kind, f.detail)
        return outcome.results[0]

    async def _worker(self) -> None:
        while True:
            job: _Job = await self._queue.get()
            try:
                coro = asyncio.to_thread(self._run_point, job.point)
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
                        f"job exceeded {self.task_timeout}s"))
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

    async def submit(self, point: PatternPoint, *,
                     priority: int = 0) -> JobResult:
        """Resolve ``point``: store hit, shared in-flight job, or a new
        simulation — awaiting until the report is available."""
        if self._closing:
            raise QueueClosed("queue is draining; no new jobs accepted")
        self.counters.submitted += 1
        hit = self.store.get(point)
        digest = self.store.digest_for(point)
        if hit is not None:
            self.counters.store_hits += 1
            return JobResult(report=hit, source="store", digest=digest)
        existing = self._inflight.get(digest)
        if existing is not None:
            self.counters.deduped += 1
            report = await asyncio.shield(existing)
            return JobResult(report=report, source="deduped", digest=digest)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        await self._queue.put(_Job(priority=priority, seq=next(self._seq),
                                   digest=digest, point=point, future=future))
        report = await asyncio.shield(future)
        return JobResult(report=report, source="simulated", digest=digest)

    def enqueue_nowait(self, point: PatternPoint, *,
                       priority: int = 10) -> str:
        """Fire-and-forget warm-up: enqueue unless stored or in flight.

        The cold-path ``wait=0`` HTTP answer uses this — the client gets
        an immediate "pending" and the result lands in the store for the
        next query.  Returns the point's digest either way.
        """
        if self._closing:
            raise QueueClosed("queue is draining; no new jobs accepted")
        digest = self.store.digest_for(point)
        if digest in self._inflight or self.store.contains(point):
            return digest
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # A fire-and-forget future has no awaiter; swallow its outcome so
        # a failed warm-up never surfaces as an "exception was never
        # retrieved" noise line.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[digest] = future
        self._queue.put_nowait(_Job(priority=priority, seq=next(self._seq),
                                    digest=digest, point=point,
                                    future=future))
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
