"""Worker-crash recovery tests for the supervised pool.

These tests kill real worker processes (``os._exit``), hang them, and
raise from them, then assert the supervision contract: the sweep
completes, survivors' results are intact, and the casualties surface as
structured :class:`~repro.runtime.TaskFailure` holes — never as a
``BrokenProcessPool`` traceback that discards finished work.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import SweepError
from repro.runtime import (ISOLATED_ENV, SupervisedPool, SweepOutcome,
                           TaskFailure)
from repro.runtime import pool as pool_mod


def _square(x):
    return x * x


def _crash_on(x):
    """Kill the worker process for the marked item (simulated OOM kill)."""
    value, crash = x
    if crash:
        os._exit(137)
    return value * value


def _crash_unless_isolated(x):
    """Crashy in a shared pool, fine alone: the quarantine rescue case
    (models a task whose memory footprint only fits a dedicated worker)."""
    value, crash = x
    if crash and os.environ.get(ISOLATED_ENV) != "1":
        os._exit(137)
    return value * value


def _raise_on(x):
    value, bad = x
    if bad:
        raise ValueError(f"deterministic failure for {value}")
    return value * value


def _hang_on(x):
    value, hang = x
    if hang:
        time.sleep(600)
    return value * value


def _fast_pool(**kwargs) -> SupervisedPool:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backoff_base", 0.01)
    return SupervisedPool(**kwargs)


class TestHappyPath:
    def test_map_preserves_order(self):
        outcome = _fast_pool().map(_square, list(range(8)))
        assert outcome.results == [x * x for x in range(8)]
        assert outcome.ok and not outcome.holes
        assert sorted(outcome.completed) == list(range(8))
        assert outcome.retries == 0 and outcome.rebuilds == 0

    def test_indices_subset_and_seeded_results(self):
        results = ["keep", None, None, "keep2"]
        outcome = _fast_pool().map(_square, [9, 2, 3, 9],
                                   indices=[1, 2], results=results)
        assert outcome.results == ["keep", 4, 9, "keep2"]
        assert outcome.total == 2

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(workers=0)
        with pytest.raises(ValueError, match="max_crash_retries"):
            SupervisedPool(workers=1, max_crash_retries=-1)
        with pytest.raises(ValueError, match="one slot per item"):
            _fast_pool().map(_square, [1, 2], results=[None])


class TestCrashRecovery:
    def test_worker_kill_does_not_abort_the_sweep(self):
        """The acceptance scenario: one point SIGKILLs its worker; every
        other point completes and the casualty is a structured hole."""
        items = [(i, i == 3) for i in range(8)]
        outcome = _fast_pool().map(_crash_on, items)
        assert [outcome.results[i] for i in range(8) if i != 3] == \
               [i * i for i in range(8) if i != 3]
        assert outcome.holes == [3]
        failure = outcome.failures[0]
        assert failure.kind == "poison"  # crashed in quarantine too
        assert "worker death" in failure.detail
        assert failure.attempts > 1
        assert outcome.rebuilds >= 1 and outcome.retries >= 1
        assert outcome.quarantined == 1

    def test_innocent_inflight_tasks_are_retried_not_failed(self):
        """Tasks co-resident with a crasher are lost with the pool but
        must be transparently re-run, not reported."""
        items = [(i, i == 0) for i in range(6)]
        outcome = _fast_pool().map(_crash_on, items)
        assert outcome.holes == [0]
        assert sorted(outcome.completed) == [1, 2, 3, 4, 5]

    def test_quarantine_rescues_shared_pool_casualty(self):
        items = [(i, i == 2) for i in range(5)]
        outcome = _fast_pool().map(_crash_unless_isolated, items)
        assert outcome.results == [i * i for i in range(5)]
        assert not outcome.failures
        assert outcome.quarantined == 1  # rescued on the isolated retry

    def test_pool_broken_at_dispatch_is_rebuilt(self, monkeypatch):
        """A worker that dies between ``wait()`` and the next dispatch
        breaks the pool inside ``submit``: the undispatched item is
        requeued, the pool rebuilt, and every result still arrives."""
        submits = []

        class BreaksAtSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died before dispatch")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            BreaksAtSecondSubmit)
        outcome = _fast_pool().map(_square, list(range(6)))
        assert outcome.results == [x * x for x in range(6)]
        assert outcome.ok and not outcome.failures
        assert outcome.rebuilds == 1

    def test_quarantine_disabled_reports_crash_kind(self):
        items = [(i, i == 1) for i in range(4)]
        outcome = _fast_pool(quarantine=False).map(_crash_on, items)
        assert outcome.holes == [1]
        assert outcome.failures[0].kind == "crash"
        assert outcome.quarantined == 0


class TestDeterministicErrors:
    def test_task_exception_fails_immediately_without_retry(self):
        """Simulations are deterministic: re-running a raise buys
        nothing, so kind='error' is terminal on the first attempt."""
        items = [(i, i == 2) for i in range(5)]
        outcome = _fast_pool().map(_raise_on, items)
        assert outcome.holes == [2]
        failure = outcome.failures[0]
        assert failure.kind == "error"
        assert "deterministic failure for 2" in failure.detail
        assert outcome.rebuilds == 0  # the pool never died

    def test_failure_str_is_actionable(self):
        failure = TaskFailure(index=4, task="(4, True)", kind="error",
                              detail="ValueError: boom", attempts=1)
        text = str(failure)
        assert "task[4]" in text and "error" in text and "boom" in text


class TestTimeouts:
    def test_hung_task_is_killed_and_reported(self):
        items = [(i, i == 1) for i in range(4)]
        outcome = _fast_pool(task_timeout=1.5, quarantine=False).map(
            _hang_on, items)
        assert outcome.holes == [1]
        assert outcome.failures[0].kind == "timeout"
        assert "task timeout" in outcome.failures[0].detail
        assert [outcome.results[i] for i in (0, 2, 3)] == [0, 4, 9]


class TestGracefulStop:
    def test_should_stop_drains_and_reports_pending(self):
        stop_after = 3
        seen = []

        def should_stop():
            return len(seen) >= stop_after

        def on_result(i, value):
            seen.append(i)

        outcome = SupervisedPool(workers=1, backoff_base=0.01).map(
            _square, list(range(10)), on_result=on_result,
            should_stop=should_stop)
        assert outcome.interrupted
        assert len(outcome.completed) >= stop_after
        assert outcome.pending  # the remainder is resumable work
        assert sorted(outcome.completed + outcome.pending) == list(range(10))
        assert not outcome.failures


class TestOutcomeContract:
    def test_require_complete_passes_through_when_ok(self):
        outcome = _fast_pool().map(_square, [1, 2, 3])
        assert outcome.require_complete() is outcome

    def test_require_complete_raises_with_outcome_attached(self):
        items = [(i, i == 0) for i in range(3)]
        outcome = _fast_pool(quarantine=False).map(_crash_on, items)
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            outcome.require_complete()
        # Completed work rides on the exception — never lost to the raise.
        assert info.value.outcome is outcome
        assert sorted(info.value.outcome.completed) == [1, 2]

    def test_summary_mentions_every_anomaly(self):
        outcome = SweepOutcome(total=5, results=[None] * 5)
        outcome.completed = [0, 1]
        outcome.failures = [TaskFailure(2, "t", "poison", "d", 3)]
        outcome.pending = [3, 4]
        outcome.retries, outcome.rebuilds = 4, 2
        outcome.quarantined, outcome.interrupted = 1, True
        text = outcome.summary()
        for needle in ("2/5", "1 failed", "poison", "2 pending",
                       "4 retries", "2 pool rebuilds", "1 quarantined",
                       "interrupted"):
            assert needle in text
