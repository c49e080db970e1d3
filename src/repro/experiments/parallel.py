"""Crash-safe process-level parallelism for experiment sweeps.

Every sweep in the harness is embarrassingly parallel — each point builds
its own fabric and traffic and shares no state — so they scale linearly
over worker processes.  :func:`parallel_sweep`, the one sweep entry
point, maps a *module-level* function over the sweep points on the
supervised runtime (:class:`repro.runtime.SupervisedPool`) while
preserving input order; with ``workers <= 1`` (or in an environment
where forking is undesirable) it degrades to a plain loop, so callers
need no fallback logic.

Crash safety:

* every finished point is checkpointed the moment it completes — the
  ``cache.put`` happens per-completion in the parent, never deferred to
  the end of the sweep, so a crash at point 99/100 loses at most the
  points still in flight;
* a worker killed mid-run (OOM, SIGKILL) does not abort the sweep with
  ``BrokenProcessPool``: the pool is rebuilt, lost tasks are retried
  with backoff, and a task that keeps killing workers is quarantined
  and reported as a structured :class:`~repro.runtime.TaskFailure`;
* a sweep with holes raises :class:`~repro.errors.SweepError` once every
  other point has finished, and its ``outcome`` holds every completed
  result.

The result store (the ``cache``, spilled to ``REPRO_SIM_CACHE_DIR``) is
the sweep's only resume record: re-running an interrupted sweep command
against the same directory answers every checkpointed point from the
store and simulates only the rest.

Only module-level functions and picklable arguments may be passed (the
standard multiprocessing contract); the experiment modules define their
per-point workers at module scope for exactly this reason.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, List, Optional, Sequence, TypeVar

from ..runtime import SupervisedPool, SweepOutcome, TaskFailure
from ..runtime.pool import _describe
from ..sim.cache import MISS

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` or the CPU count (capped)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring invalid REPRO_WORKERS={env!r} (not an integer); "
                f"falling back to the CPU count",
                RuntimeWarning, stacklevel=2)
    return max(1, min(8, os.cpu_count() or 1))


def parallel_sweep(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    *,
    cache=None,
    key_fn: Optional[Callable[[T], tuple]] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    Results come back in input order.  ``workers=None`` uses
    :func:`default_workers`; ``workers<=1`` or a single point left to
    run runs inline.

    With ``cache`` (a :class:`~repro.sim.cache.SimCache`) and ``key_fn``
    (item -> cache key), cached points are satisfied in the parent
    process and only the misses are dispatched to the pool; each fresh
    result is stored back under its key *the moment it completes*, so a
    crash mid-sweep never discards already-computed points.  This keeps
    memoization effective across process-pool sweeps, where worker-local
    caches die with the workers.

    Runs on the supervised runtime: worker death surfaces as a
    structured hole, not ``BrokenProcessPool``.  An incomplete sweep
    raises :class:`~repro.errors.SweepError` carrying the
    :class:`~repro.runtime.SweepOutcome`, whose results keep every
    completed point and ``None`` in the holes, for a caller that
    degrades.
    """
    n = default_workers() if workers is None else workers
    items = list(items)
    keys = ([key_fn(item) for item in items]
            if cache is not None and key_fn is not None else None)

    outcome = SweepOutcome(total=len(items), results=[None] * len(items))
    todo: List[int] = []
    for i in range(len(items)):
        if keys is not None:
            hit = cache.lookup(keys[i])
            if hit is not MISS:
                outcome.results[i] = hit
                outcome.completed.append(i)
                continue
        todo.append(i)

    def on_result(i: int, value) -> None:
        # Streaming checkpoint: durable the moment it completes.
        if keys is not None:
            cache.put(keys[i], value)

    if n <= 1 or len(todo) <= 1:
        # Inline path: the same streaming checkpoint, no subprocesses
        # (and therefore no crash isolation).
        for i in todo:
            try:
                value = fn(items[i])
            except Exception as exc:  # noqa: BLE001 — structured failure
                outcome.failures.append(TaskFailure(
                    index=i, task=_describe(items[i]), kind="error",
                    detail=f"{type(exc).__name__}: {exc}", attempts=1))
                continue
            outcome.results[i] = value
            outcome.completed.append(i)
            on_result(i, value)
    else:
        SupervisedPool(workers=min(n, len(todo))).map(
            fn, items, indices=todo, outcome=outcome, on_result=on_result)
    return outcome.require_complete().results  # type: ignore[return-value]
