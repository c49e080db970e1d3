"""Worker-crash recovery tests for the supervised pool.

These tests kill real worker processes (``os._exit``) and raise from
them, then assert the supervision contract: the sweep completes,
survivors' results are intact, and the casualties surface as structured
:class:`~repro.runtime.TaskFailure` holes — never as a
``BrokenProcessPool`` traceback that discards finished work.
"""

from __future__ import annotations

import os
import signal
import socket
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


def _crash_beside_lingerers(x):
    """Kill the worker for the marked item at once, while every other
    item lingers, so a crash always has innocent company in flight."""
    value, crash = x
    if crash:
        os._exit(137)
    time.sleep(0.2)
    return value * value


def _raise_on(x):
    value, bad = x
    if bad:
        raise ValueError(f"deterministic failure for {value}")
    return value * value


def _hang(x):
    time.sleep(600)


def _hang_reporting_pid(path):
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(600)


def _alive(pid):
    """Whether ``pid`` runs (a zombie is dead, only not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Rebuild the pool after 10 ms instead of 100 ms."""
    monkeypatch.setattr(pool_mod, "BACKOFF_BASE_S", 0.01)


class TestHappyPath:
    def test_map_preserves_order(self):
        outcome = SupervisedPool(2).map(_square, list(range(8)))
        assert outcome.results == [x * x for x in range(8)]
        assert outcome.ok and not outcome.holes
        assert sorted(outcome.completed) == list(range(8))
        assert outcome.retries == 0 and outcome.rebuilds == 0

    def test_indices_subset_and_seeded_results(self):
        """Only the listed indices run, and a passed outcome is filled
        in place around the results it already holds."""
        alone = SupervisedPool(2).map(_square, [9, 2, 3, 9], indices=[1, 2])
        assert alone.results == [None, 4, 9, None]
        assert alone.total == 2
        seeded = SweepOutcome(total=4, results=["keep", None, None, "keep2"],
                              completed=[0, 3])
        outcome = SupervisedPool(2).map(_square, [9, 2, 3, 9], indices=[1, 2],
                                   outcome=seeded)
        assert outcome is seeded
        assert outcome.results == ["keep", 4, 9, "keep2"]
        assert sorted(outcome.completed) == [0, 1, 2, 3]

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(workers=0)


class TestCrashRecovery:
    def test_worker_kill_does_not_abort_the_sweep(self):
        """The acceptance scenario: one point SIGKILLs its worker; every
        other point completes and the casualty is a structured hole."""
        items = [(i, i == 3) for i in range(8)]
        outcome = SupervisedPool(2).map(_crash_on, items)
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
        outcome = SupervisedPool(2).map(_crash_on, items)
        assert outcome.holes == [0]
        assert sorted(outcome.completed) == [1, 2, 3, 4, 5]

    def test_quarantine_rescues_shared_pool_casualty(self):
        items = [(i, i == 2) for i in range(5)]
        outcome = SupervisedPool(2).map(_crash_unless_isolated, items)
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
        outcome = SupervisedPool(2).map(_square, list(range(6)))
        assert outcome.results == [x * x for x in range(6)]
        assert outcome.ok and not outcome.failures
        assert outcome.rebuilds == 1

    def test_crash_charges_only_the_task_that_dies_alone(self, monkeypatch):
        """Innocent neighbours in flight when a worker dies are re-run
        alone, never charged: with no crash budget to spare, a charged
        task goes straight to quarantine, and only the crasher does."""
        monkeypatch.setattr(pool_mod, "MAX_CRASH_RETRIES", 0)
        items = [(i, i == 1) for i in range(6)]
        outcome = SupervisedPool(3).map(_crash_beside_lingerers, items)
        assert outcome.holes == [1]
        assert outcome.failures[0].kind == "poison"
        assert outcome.failures[0].attempts == 2  # alone, then isolated
        assert outcome.quarantined == 1
        assert sorted(outcome.completed) == [0, 2, 3, 4, 5]
        assert [outcome.results[i] for i in (0, 2, 3, 4, 5)] == \
               [0, 4, 9, 16, 25]


class TestDeterministicErrors:
    def test_task_exception_fails_immediately_without_retry(self):
        """Simulations are deterministic: re-running a raise buys
        nothing, so kind='error' is terminal on the first attempt."""
        items = [(i, i == 2) for i in range(5)]
        outcome = SupervisedPool(2).map(_raise_on, items)
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


class TestRunIsolated:
    def test_one_call_in_a_fresh_worker_reports_its_failure_kind(self):
        """The call runs in a marked worker and comes back as a value or
        as the kind of its failure; a hang ends at the timeout."""
        assert pool_mod.run_isolated(_crash_unless_isolated,
                                     (3, True)) == (None, 9)
        assert pool_mod.run_isolated(_crash_on, (3, True))[0] == "crash"
        assert pool_mod.run_isolated(_raise_on, (3, True)) == (
            "error", "ValueError: deterministic failure for 3")
        start = time.monotonic()
        kind, detail = pool_mod.run_isolated(_hang, None, timeout=0.5)
        assert (kind, detail) == ("timeout",
                                  "exceeded the 0.5s task timeout")
        assert time.monotonic() - start < 5.0

    def test_a_killed_worker_neither_survives_nor_signals_its_parent(
            self, tmp_path):
        """An asyncio server handles SIGTERM with a handler that does
        nothing and a signal wakeup fd, and a forked worker inherits
        both.  A worker killed at its timeout must die all the same, and
        must not wake the parent's loop, which would read the signal as
        a shutdown request."""
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        old_fd = signal.set_wakeup_fd(wake_w.fileno())
        old_handler = signal.signal(signal.SIGTERM, lambda *args: None)
        pidfile = tmp_path / "pid"
        try:
            kind, _ = pool_mod.run_isolated(_hang_reporting_pid,
                                            str(pidfile), timeout=0.5)
        finally:
            signal.signal(signal.SIGTERM, old_handler)
            signal.set_wakeup_fd(old_fd)
        try:
            assert kind == "timeout"
            with pytest.raises(BlockingIOError):
                wake_r.recv(16)  # no signal reached this process's fd
        finally:
            wake_r.close()
            wake_w.close()
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 5.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)


class TestOutcomeContract:
    def test_require_complete_passes_through_when_ok(self):
        outcome = SupervisedPool(2).map(_square, [1, 2, 3])
        assert outcome.require_complete() is outcome

    def test_require_complete_raises_with_outcome_attached(self):
        items = [(i, i == 0) for i in range(3)]
        outcome = SupervisedPool(2).map(_crash_on, items)
        with pytest.raises(SweepError, match="sweep incomplete") as info:
            outcome.require_complete()
        # Completed work rides on the exception — never lost to the raise.
        assert info.value.outcome is outcome
        assert sorted(info.value.outcome.completed) == [1, 2]

    def test_summary_mentions_every_anomaly(self):
        outcome = SweepOutcome(total=5, results=[None] * 5)
        outcome.completed = [0, 1]
        outcome.failures = [TaskFailure(2, "t", "poison", "d", 3),
                            TaskFailure(3, "u", "error", "e", 1)]
        outcome.retries, outcome.rebuilds, outcome.quarantined = 4, 2, 1
        text = outcome.summary()
        for needle in ("2/5", "2 failed (error, poison)", "4 retries",
                       "2 pool rebuilds", "1 quarantined"):
            assert needle in text
