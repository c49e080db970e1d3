"""Watchdogs: turning silent loss into typed errors.

Two detectors guard a run (both off by default, enabled through
:class:`~repro.sim.config.SimConfig`):

* :class:`TransactionWatchdog` — every issued transaction must complete
  (or be NACKed for retry) within ``txn_timeout_cycles``.  A channel that
  silently swallows requests — e.g. a PCH taken offline without a
  degradation policy — therefore surfaces as a typed
  :class:`~repro.errors.TransactionTimeout` naming the stuck transaction,
  instead of a run that merely reports missing bandwidth or a drain that
  spins to its deadline.
* :class:`ProgressWatchdog` — the global deadlock detector: in-flight
  work with no completion for ``progress_timeout_cycles`` raises
  :class:`~repro.errors.DeadlockError`.  This deliberately distinguishes
  *deadlock* (work stuck) from *quiescence* (no work), which matters on
  the engine's fast path where long quiescent stretches are legitimately
  skipped in one jump.

Both watchdogs are cycle-deterministic: they trip at an exact cycle
derived from issue/completion times, and the fast path clamps its clock
jumps to the next deadline, so fast and legacy loops raise identically.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Tuple

from ..axi.transaction import AxiTransaction
from ..errors import DeadlockError, SimulationError, TransactionTimeout


class TransactionWatchdog:
    """Per-transaction deadline tracker.

    Every deadline is its issue cycle plus the one fixed ``timeout``, and
    the engine issues at non-decreasing cycles, so deadlines queued in
    issue order are sorted: the earliest is at the head, and
    :meth:`check` returns at once while the head's deadline is still
    ahead.  :meth:`note_issue` checks the order instead of assuming it.
    """

    __slots__ = ("timeout", "_queue", "_alive", "_last")

    def __init__(self, timeout: int) -> None:
        self.timeout = timeout
        #: (deadline, uid) in issue order; entries of finished or
        #: re-armed transactions are dropped when they reach the head,
        #: so after a :meth:`check` every entry's deadline is ahead.
        self._queue: Deque[Tuple[int, int]] = deque()
        #: uid -> (txn, armed deadline).  The deadline disambiguates a
        #: *re-armed* uid (retry resubmit) from its stale queue entries:
        #: matching on uid alone would resurrect the old, earlier deadline
        #: and time a retried transaction out against its first attempt.
        self._alive: Dict[int, Tuple[AxiTransaction, int]] = {}
        #: The last deadline queued (every deadline is at least 1).
        self._last = 0

    def note_issue(self, txn: AxiTransaction, cycle: int) -> None:
        """Arm (or re-arm, for a retry) the deadline of one transaction."""
        deadline = cycle + self.timeout
        if deadline < self._last:
            raise SimulationError(
                f"transaction {txn!r} issued at cycle {cycle}, before the "
                f"last issue at cycle {self._last - self.timeout}")
        self._last = deadline
        self._alive[txn.uid] = (txn, deadline)
        self._queue.append((deadline, txn.uid))

    def note_done(self, txn: AxiTransaction) -> None:
        """Disarm on completion or NACK (a retry re-arms at resubmit)."""
        self._alive.pop(txn.uid, None)

    def next_deadline(self) -> float:
        """Earliest armed deadline, ``inf`` when nothing is watched."""
        queue = self._queue
        alive = self._alive
        while queue:
            deadline, uid = queue[0]
            entry = alive.get(uid)
            if entry is not None and entry[1] == deadline:
                return deadline
            queue.popleft()
        return math.inf

    def check(self, cycle: int) -> None:
        """Raise :class:`TransactionTimeout` when a deadline has passed."""
        queue = self._queue
        if not queue or queue[0][0] > cycle:
            return
        if self.next_deadline() <= cycle:
            txn = self._alive[queue[0][1]][0]
            raise TransactionTimeout(
                f"transaction {txn!r} saw no completion within "
                f"{self.timeout} cycles (issued {txn.issue_cycle}, "
                f"now {cycle}); pch {txn.pch} unresponsive?")

    @property
    def watched(self) -> int:
        return len(self._alive)


class ProgressWatchdog:
    """Global forward-progress detector."""

    __slots__ = ("timeout", "last_progress")

    def __init__(self, timeout: int) -> None:
        self.timeout = timeout
        self.last_progress = 0

    def note_progress(self, cycle: int) -> None:
        self.last_progress = cycle

    def deadline(self) -> int:
        return self.last_progress + self.timeout

    def check(self, cycle: int, in_flight: int) -> None:
        """Raise :class:`DeadlockError` on stalled in-flight work.

        ``in_flight`` is the number of transactions currently owed a
        completion; zero in-flight work is quiescence, never deadlock.
        """
        if in_flight > 0 and cycle >= self.deadline():
            raise DeadlockError(
                f"{in_flight} transactions in flight but no completion "
                f"for {self.timeout} cycles (last progress at "
                f"{self.last_progress}, now {cycle})")
