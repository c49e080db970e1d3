"""Supervised process-pool execution with crash recovery.

``concurrent.futures.ProcessPoolExecutor`` is all-or-nothing: one
OOM-killed worker raises :class:`BrokenProcessPool` out of ``pool.map``
and every other in-flight and queued task — hours of sweep work — is
gone.  :class:`SupervisedPool` replaces that with a dispatch loop built
on ``submit`` + bounded in-flight windows that

* enforces a per-task wall-clock **timeout** (a hung simulation cannot
  stall the whole sweep; the pool is rebuilt and the stuck task
  accounted),
* survives **worker death** (``BrokenProcessPool`` or a timeout kill):
  the pool is rebuilt with capped-exponential backoff and the tasks
  that were in flight are retried,
* quarantines **poison tasks**: a task in flight for ``max_crash_retries
  + 1`` pool deaths is retried once in an isolated single-task
  subprocess (so a crashy neighbour cannot defeat it) and, if it still
  fails, reported as a structured :class:`TaskFailure` instead of
  aborting the sweep — partial results with explicit holes, mirroring
  the NACK-and-degrade philosophy of :mod:`repro.faults`,
* supports **graceful interruption** via a ``should_stop`` predicate
  (wired to SIGINT/SIGTERM by :class:`repro.runtime.signals
  .GracefulShutdown`): dispatch stops, in-flight tasks drain against a
  deadline, and the never-started remainder is reported as ``pending``
  so a journaled run can resume exactly.

Everything lands in a :class:`SweepOutcome`: ordered results, the set of
holes, and the supervision accounting (retries, pool rebuilds,
quarantines).  Since simulations are deterministic, an *ordinary*
exception from the task function is reported immediately as a
``TaskFailure(kind="error")`` without retries — re-running a
deterministic failure buys nothing; retry is reserved for tasks lost to
worker death, which says nothing about the task itself.

Ordinary wall-clock reads below are supervision plumbing (timeouts,
backoff), not simulated behaviour — simulation results stay a pure
function of their configuration regardless of scheduling.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Set, Tuple)

from ..errors import SweepError

#: Environment marker set inside quarantine workers, so a task (or a
#: test) can tell it is running in the isolated retry.
ISOLATED_ENV = "REPRO_ISOLATED_TASK"


def _describe(item: Any, limit: int = 120) -> str:
    text = repr(item)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _mark_isolated() -> None:
    """Initializer of the quarantine pool (module-level: picklable)."""
    os.environ[ISOLATED_ENV] = "1"


@dataclass(frozen=True)
class TaskFailure:
    """One sweep point that permanently failed under supervision."""

    index: int
    """Position of the task in the submitted item sequence."""

    task: str
    """``repr`` of the item (truncated) — enough to re-run it by hand."""

    kind: str
    """``error`` (task function raised), ``timeout`` (exceeded the
    per-task wall-clock budget), ``crash`` (killed its worker), or
    ``poison`` (kept killing workers and failed the isolated retry)."""

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
    """Input-ordered; slots of failed/pending tasks hold ``None``.
    Check :attr:`failures`/:attr:`pending` before trusting a ``None``."""

    completed: List[int] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    pending: List[int] = field(default_factory=list)
    """Indices never (or not terminally) run — non-empty only when the
    sweep was interrupted; a resumed run re-executes exactly these."""

    retries: int = 0
    rebuilds: int = 0
    quarantined: int = 0
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    @property
    def holes(self) -> List[int]:
        return sorted(f.index for f in self.failures)

    def summary(self) -> str:
        bits = [f"{len(self.completed)}/{self.total} completed"]
        if self.failures:
            bits.append(f"{len(self.failures)} failed "
                        f"({', '.join(sorted({f.kind for f in self.failures}))})")
        if self.pending:
            bits.append(f"{len(self.pending)} pending")
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.rebuilds:
            bits.append(f"{self.rebuilds} pool rebuilds")
        if self.quarantined:
            bits.append(f"{self.quarantined} quarantined")
        if self.interrupted:
            bits.append("interrupted")
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
    most ``workers`` tasks are submitted at a time, so the per-task
    timeout clock starts ticking approximately when the task starts
    executing, and an interrupt never strands a deep submit queue.
    """

    def __init__(self, workers: int, *,
                 task_timeout: Optional[float] = None,
                 max_crash_retries: int = 2,
                 backoff_base: float = 0.1,
                 backoff_cap: float = 2.0,
                 quarantine: bool = True,
                 poll_interval: float = 0.05) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_crash_retries < 0:
            raise ValueError("max_crash_retries must be >= 0")
        self.workers = workers
        self.task_timeout = task_timeout
        self.max_crash_retries = max_crash_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.quarantine = quarantine
        self.poll_interval = poll_interval

    # -- pool lifecycle ------------------------------------------------------

    def _kill_pool(self, pool: Optional[ProcessPoolExecutor]) -> None:
        """Hard-stop a pool: terminate workers, discard the executor."""
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover — already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover — broken pools may raise
            pass

    def _run_isolated(self, fn: Callable[[Any], Any], item: Any,
                      ) -> Tuple[bool, Any]:
        """One isolated retry in a dedicated single-task pool.

        Returns ``(True, value)`` on success, ``(False, detail)`` on any
        failure (crash, timeout, or exception)."""
        pool = ProcessPoolExecutor(max_workers=1, initializer=_mark_isolated)
        try:
            future = pool.submit(fn, item)
            try:
                value = future.result(timeout=self.task_timeout)
            except BrokenProcessPool:
                return False, "crashed again in isolation"
            except FuturesTimeoutError:
                return False, (f"timed out again in isolation "
                               f"(> {self.task_timeout}s)")
            except Exception as exc:  # noqa: BLE001 — reported, not raised
                return False, f"raised in isolation: " \
                              f"{type(exc).__name__}: {exc}"
            return True, value
        finally:
            self._kill_pool(pool)

    # -- the supervised map --------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            indices: Optional[Sequence[int]] = None,
            results: Optional[List[Any]] = None,
            on_dispatch: Optional[Callable[[int], None]] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            on_failure: Optional[Callable[[TaskFailure], None]] = None,
            should_stop: Optional[Callable[[], bool]] = None,
            drain_timeout: float = 30.0) -> SweepOutcome:
        """Map ``fn`` over ``items`` under supervision.

        ``indices`` restricts execution to a subset of positions (the
        cache/journal layers skip already-satisfied points); ``results``
        seeds the outcome's result list (must have ``len(items)`` slots).
        ``on_dispatch(index)`` fires on first dispatch of each task (the
        journal's ``start`` hook); ``on_result(index, value)`` fires the
        moment each task completes — the streaming-checkpoint hook
        (``cache.put``, journal append) — and ``on_failure(failure)``
        when a task is given up on.
        ``should_stop()`` polled between dispatches requests a graceful
        stop: no new dispatch, in-flight drained for ``drain_timeout``
        seconds, remainder reported as ``pending``.
        """
        items = list(items)
        todo = list(range(len(items))) if indices is None else list(indices)
        outcome = SweepOutcome(
            total=len(todo),
            results=(list(results) if results is not None
                     else [None] * len(items)))
        if len(outcome.results) != len(items):
            raise ValueError("results seed must have one slot per item")

        queue: Deque[int] = deque(todo)
        dispatched: Set[int] = set()
        crashes: Dict[int, int] = {}     # index -> pool-fatal attempts
        fail_kind: Dict[int, str] = {}   # index -> "crash" | "timeout"
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[Any, int] = {}    # Future -> index
        deadlines: Dict[Any, float] = {}  # Future -> monotonic deadline
        stopping = False

        def record_result(i: int, value: Any) -> None:
            outcome.results[i] = value
            outcome.completed.append(i)
            if on_result is not None:
                on_result(i, value)

        def record_failure(i: int, kind: str, detail: str,
                           attempts: int) -> None:
            failure = TaskFailure(
                index=i, task=_describe(items[i]), kind=kind,
                detail=detail, attempts=attempts)
            outcome.failures.append(failure)
            if on_failure is not None:
                on_failure(failure)

        def handle_suspect(i: int) -> None:
            """A task whose crash budget is exhausted: isolate or fail."""
            attempts = crashes.get(i, 0)
            kind = fail_kind.get(i, "crash")
            history = (f"lost to {attempts} worker death(s)"
                       if kind == "crash"
                       else f"exceeded the {self.task_timeout}s task "
                            f"timeout {attempts} time(s)")
            if self.quarantine:
                outcome.quarantined += 1
                outcome.retries += 1
                ok, payload = self._run_isolated(fn, items[i])
                if ok:
                    record_result(i, payload)
                    return
                record_failure(i, "poison", f"{history}; {payload}",
                               attempts=attempts + 1)
            else:
                record_failure(i, kind, history, attempts=attempts)

        def recover_lost(offenders: Sequence[int]) -> None:
            """Pool died (crash or timeout kill): requeue every in-flight
            task, charging the crash budget of the ``offenders``."""
            nonlocal pool
            lost = sorted(inflight.values())
            inflight.clear()
            deadlines.clear()
            self._kill_pool(pool)
            pool = None
            outcome.rebuilds += 1
            for i in offenders:
                crashes[i] = crashes.get(i, 0) + 1
            outcome.retries += len(lost)
            # Requeue at the front so recovery precedes fresh dispatch;
            # suspects whose budget is exhausted are intercepted at
            # dispatch time by handle_suspect().
            for i in reversed(lost):
                queue.appendleft(i)
            backoff = min(self.backoff_cap,
                          self.backoff_base * (2 ** (outcome.rebuilds - 1)))
            if backoff > 0:
                time.sleep(backoff)

        drain_deadline: Optional[float] = None
        try:
            while queue or inflight:
                if (should_stop is not None and should_stop()
                        and not stopping):
                    stopping = True
                    outcome.interrupted = True
                    drain_deadline = (time.monotonic()  # det-lint: allow
                                      + drain_timeout)
                # -- dispatch ------------------------------------------------
                while (queue and len(inflight) < self.workers
                       and not stopping):
                    i = queue.popleft()
                    if crashes.get(i, 0) > self.max_crash_retries:
                        handle_suspect(i)
                        continue
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                    if on_dispatch is not None and i not in dispatched:
                        dispatched.add(i)
                        on_dispatch(i)
                    try:
                        future = pool.submit(fn, items[i])
                    except BrokenProcessPool:
                        # A worker died after the last wait(): this item
                        # never ran, so it is requeued uncharged, while
                        # the tasks in flight are suspects as usual.
                        queue.appendleft(i)
                        suspects = sorted(inflight.values())
                        for j in suspects:
                            fail_kind.setdefault(j, "crash")
                        recover_lost(suspects)
                        continue
                    inflight[future] = i
                    if self.task_timeout is not None:
                        deadlines[future] = (
                            time.monotonic()  # det-lint: allow
                            + self.task_timeout)
                if not inflight:
                    if stopping:
                        break
                    continue
                # -- wait ----------------------------------------------------
                now = time.monotonic()  # det-lint: allow
                timeout = self.poll_interval
                if deadlines:
                    timeout = min(timeout,
                                  max(0.0, min(deadlines.values()) - now))
                if drain_deadline is not None:
                    timeout = min(timeout,
                                  max(0.0, drain_deadline - now))
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                # -- completions ---------------------------------------------
                crashed: List[int] = []
                for future in done:
                    i = inflight.pop(future)
                    deadlines.pop(future, None)
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
                    suspects = sorted(crashed) + sorted(inflight.values())
                    for i in suspects:
                        fail_kind.setdefault(i, "crash")
                    for i in reversed(sorted(crashed)):
                        queue.appendleft(i)
                    recover_lost(suspects)
                    outcome.retries += len(crashed)
                    continue
                # -- timeouts ------------------------------------------------
                now = time.monotonic()  # det-lint: allow
                expired = [f for f, dl in deadlines.items() if dl <= now]
                if expired:
                    offenders = sorted(inflight[f] for f in expired)
                    for i in offenders:
                        fail_kind[i] = "timeout"
                    for i in reversed(offenders):
                        queue.appendleft(i)
                    for f in expired:
                        inflight.pop(f, None)
                        deadlines.pop(f, None)
                    recover_lost(offenders)
                    outcome.retries += len(offenders)
                    continue
                # -- drain deadline ------------------------------------------
                if (drain_deadline is not None
                        and time.monotonic() > drain_deadline):  # det-lint: allow
                    break
            # Anything still queued or in flight after an interrupt is
            # pending work for a resumed run, not a failure.
            if stopping:
                leftovers = sorted(set(queue) | set(inflight.values()))
                outcome.pending = [i for i in leftovers
                                   if i not in outcome.completed]
        finally:
            self._kill_pool(pool)
        outcome.pending.extend(
            i for i in todo
            if i not in outcome.completed
            and i not in {f.index for f in outcome.failures}
            and i not in outcome.pending)
        outcome.pending.sort()
        return outcome
