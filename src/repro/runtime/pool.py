"""Supervised process-pool execution with crash recovery.

``concurrent.futures.ProcessPoolExecutor`` is all-or-nothing: one
OOM-killed worker raises :class:`BrokenProcessPool` out of ``pool.map``
and every other in-flight and queued task — hours of sweep work — is
gone.  :class:`SupervisedPool` replaces that with a dispatch loop built
on ``submit`` + bounded in-flight windows that

* survives **worker death** (``BrokenProcessPool``): the pool is
  rebuilt with capped-exponential backoff and the tasks that were in
  flight are retried,
* attributes a worker death **exactly**: a task is charged only when it
  kills its worker while running alone.  When a death leaves several
  suspects, none is charged; each is re-run alone, then the full
  window resumes, so an innocent neighbour of a crasher never uses up
  its crash budget,
* quarantines **poison tasks**: a task charged ``MAX_CRASH_RETRIES + 1``
  times is retried once through :func:`run_isolated` (which also
  rescues a task that only dies in shared pools) and, if it still
  fails, reported as a structured :class:`TaskFailure` instead of
  aborting the sweep — partial results with explicit holes, mirroring
  the NACK-and-degrade philosophy of :mod:`repro.faults`.

Everything lands in a :class:`SweepOutcome`: ordered results, the set of
holes, and the supervision accounting (retries, pool rebuilds,
quarantines).  Since simulations are deterministic, an *ordinary*
exception from the task function is reported immediately as a
``TaskFailure(kind="error")`` without retries — re-running a
deterministic failure buys nothing; retry is reserved for tasks lost to
worker death, which says nothing about the task itself.  The pool has
no task timeout: a sweep task that hangs holds its worker.

:func:`run_isolated` runs one call in a fresh single-worker process,
optionally under a wall-clock timeout; the sweep service runs each job
of ``repro-hbm serve --isolate`` through it.

The wall-clock reads below (the rebuild backoff, the isolated run's
timeout) are supervision plumbing, not simulated behaviour — simulation
results stay a pure function of their configuration regardless of
scheduling.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import SweepError

#: Environment marker set inside the worker of :func:`run_isolated`, so
#: a task (or a test) can tell it is running isolated.
ISOLATED_ENV = "REPRO_ISOLATED_TASK"

#: Worker deaths a task may be charged with before its isolated retry.
MAX_CRASH_RETRIES = 2

#: Pause before the n-th pool rebuild: ``BACKOFF_BASE_S * 2**(n-1)``
#: seconds, at most ``BACKOFF_CAP_S``.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 2.0


def _describe(item: Any, limit: int = 120) -> str:
    text = repr(item)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _mark_isolated() -> None:
    """Initializer of the isolated pool (module-level: picklable)."""
    os.environ[ISOLATED_ENV] = "1"


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a pool: SIGKILL its workers, discard the executor.

    Not SIGTERM: a forked worker inherits its parent's signal handlers
    and signal wakeup fd.  Under ``repro-hbm serve`` those are the event
    loop's, so a terminated worker would ignore the signal and pass it
    to the server's loop through the shared fd, as a shutdown request.
    """
    if pool is None:
        return
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except OSError:  # pragma: no cover — already dead
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover — broken pools may raise
        pass


def run_isolated(fn: Callable[[Any], Any], item: Any,
                 timeout: Optional[float] = None) -> Tuple[Optional[str], Any]:
    """Run ``fn(item)`` once in a fresh single-worker process.

    The worker sees ``REPRO_ISOLATED_TASK=1`` and is killed when the call
    returns, so a hang past ``timeout`` seconds (``None``: no limit)
    holds nothing.  Returns ``(None, value)`` on success and
    ``(kind, detail)`` on failure, ``kind`` being ``crash`` (the worker
    died), ``timeout`` or ``error`` (``fn`` raised).
    """
    pool = ProcessPoolExecutor(max_workers=1, initializer=_mark_isolated)
    try:
        future = pool.submit(fn, item)
        try:
            return None, future.result(timeout=timeout)
        except BrokenProcessPool:
            return "crash", "the worker process died"
        except FuturesTimeoutError:
            return "timeout", f"exceeded the {timeout}s task timeout"
        except Exception as exc:  # noqa: BLE001 — reported, not raised
            return "error", f"{type(exc).__name__}: {exc}"
    finally:
        _kill_pool(pool)


@dataclass(frozen=True)
class TaskFailure:
    """One sweep point that permanently failed under supervision."""

    index: int
    """Position of the task in the submitted item sequence."""

    task: str
    """``repr`` of the item (truncated) — enough to re-run it by hand."""

    kind: str
    """``error`` (the task function raised) or ``poison`` (the task kept
    killing its worker and failed its isolated retry too)."""

    detail: str
    attempts: int = 1

    def __str__(self) -> str:
        return (f"task[{self.index}] {self.kind} after {self.attempts} "
                f"attempt(s): {self.detail} ({self.task})")


@dataclass
class SweepOutcome:
    """Everything a supervised sweep produced, holes included."""

    total: int
    results: List[Any] = field(default_factory=list)
    """Input-ordered; the slot of a failed task holds ``None``.  Check
    :attr:`failures` before trusting a ``None``."""

    completed: List[int] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    rebuilds: int = 0
    quarantined: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def holes(self) -> List[int]:
        return sorted(f.index for f in self.failures)

    def summary(self) -> str:
        bits = [f"{len(self.completed)}/{self.total} completed"]
        if self.failures:
            bits.append(f"{len(self.failures)} failed "
                        f"({', '.join(sorted({f.kind for f in self.failures}))})")
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.rebuilds:
            bits.append(f"{self.rebuilds} pool rebuilds")
        if self.quarantined:
            bits.append(f"{self.quarantined} quarantined")
        return ", ".join(bits)

    def require_complete(self) -> "SweepOutcome":
        """Raise :class:`~repro.errors.SweepError` unless every task
        completed; the outcome rides on the exception so completed work
        is never lost to the raise."""
        if self.ok:
            return self
        lines = [f"sweep incomplete: {self.summary()}"]
        lines += [f"  {f}" for f in self.failures]
        raise SweepError("\n".join(lines), outcome=self)


class SupervisedPool:
    """Crash-supervised process-pool mapper (see module docstring).

    ``workers`` fixes both the pool size and the in-flight window: at
    most ``workers`` tasks are submitted at a time.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    # -- the supervised map --------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            indices: Optional[Sequence[int]] = None,
            outcome: Optional[SweepOutcome] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            ) -> SweepOutcome:
        """Map ``fn`` over ``items`` under supervision.

        ``indices`` restricts execution to a subset of positions (the
        cache layer skips already-stored points).  ``outcome`` is filled
        in place when given (the sweep layer passes the one that already
        holds its cache hits); otherwise a fresh one is returned.
        ``on_result(index, value)`` fires the moment each task completes
        — the streaming-checkpoint hook (``cache.put``).  The map
        returns once every index has completed or failed.
        """
        items = list(items)
        todo = list(range(len(items))) if indices is None else list(indices)
        if outcome is None:
            outcome = SweepOutcome(total=len(todo),
                                   results=[None] * len(items))

        queue: Deque[int] = deque(todo)
        # Suspects of a worker death that had company in flight, each
        # re-run alone before the full window resumes.  ``isolating``
        # stays set until the last of them has finished.
        solo: Deque[int] = deque()
        isolating = False
        crashes: Dict[int, int] = {}     # index -> worker deaths charged
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[Any, int] = {}    # Future -> index

        def record_result(i: int, value: Any) -> None:
            outcome.results[i] = value
            outcome.completed.append(i)
            if on_result is not None:
                on_result(i, value)

        def record_failure(i: int, kind: str, detail: str,
                           attempts: int) -> None:
            outcome.failures.append(TaskFailure(
                index=i, task=_describe(items[i]), kind=kind,
                detail=detail, attempts=attempts))

        def quarantine(i: int) -> None:
            """A task whose crash budget is exhausted: one isolated
            retry, and a ``poison`` hole if that fails too."""
            attempts = crashes[i]
            outcome.quarantined += 1
            outcome.retries += 1
            kind, payload = run_isolated(fn, items[i])
            if kind is None:
                record_result(i, payload)
            else:
                record_failure(i, "poison",
                               f"lost to {attempts} worker death(s); its "
                               f"isolated retry failed ({kind}): {payload}",
                               attempts=attempts + 1)

        def recover_death(suspects: List[int]) -> None:
            """A worker died with ``suspects`` in flight: rebuild the pool
            and requeue them at the front, so recovery precedes fresh
            dispatch.  A task that died alone is the culprit and is
            charged.  With company, nobody is charged: every suspect is
            re-run alone instead."""
            nonlocal pool, isolating
            inflight.clear()
            _kill_pool(pool)
            pool = None
            outcome.rebuilds += 1
            outcome.retries += len(suspects)
            into = queue
            if len(suspects) > 1:
                isolating = True
                into = solo
            else:
                for i in suspects:
                    crashes[i] = crashes.get(i, 0) + 1
            # A suspect whose budget is exhausted is intercepted at
            # dispatch time by quarantine().
            for i in sorted(suspects, reverse=True):
                into.appendleft(i)
            backoff = min(BACKOFF_CAP_S,
                          BACKOFF_BASE_S * (2 ** (outcome.rebuilds - 1)))
            if backoff > 0:
                time.sleep(backoff)

        try:
            while queue or solo or inflight:
                # -- dispatch ------------------------------------------------
                while True:
                    if isolating and not solo and not inflight:
                        isolating = False  # every suspect ran alone
                    if isolating:
                        if inflight:
                            break
                        source = solo
                    elif queue and len(inflight) < self.workers:
                        source = queue
                    else:
                        break
                    i = source.popleft()
                    if crashes.get(i, 0) > MAX_CRASH_RETRIES:
                        quarantine(i)
                        continue
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                    try:
                        future = pool.submit(fn, items[i])
                    except BrokenProcessPool:
                        # A worker died after the last wait(): this item
                        # never ran, so it is requeued uncharged, while
                        # the tasks in flight are suspects as usual.
                        source.appendleft(i)
                        recover_death(sorted(inflight.values()))
                        continue
                    inflight[future] = i
                if not inflight:
                    continue
                # -- wait: until a task completes (a worker death
                # completes every task in flight) -------------------------
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                # -- completions ---------------------------------------------
                crashed: List[int] = []
                for future in done:
                    i = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        crashed.append(i)
                    except Exception as exc:  # noqa: BLE001 — a finding
                        record_failure(
                            i, "error", f"{type(exc).__name__}: {exc}",
                            attempts=crashes.get(i, 0) + 1)
                    else:
                        record_result(i, value)
                if crashed:
                    # Worker death takes every in-flight task with it;
                    # all of them were at the scene, all are suspects.
                    recover_death(sorted(crashed + list(inflight.values())))
        finally:
            _kill_pool(pool)
        return outcome
