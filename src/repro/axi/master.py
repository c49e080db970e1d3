"""Bus-master (BM) port model.

A bus master wraps a traffic source and issues its transactions into the
fabric, modeling the two accelerator-side constraints the paper analyzes:

* **clock pacing** — the accelerator runs at 300 MHz while the HBM ports
  run at 450 MHz; a master can move at most one beat per *accelerator*
  cycle per direction.  Issuing a write costs ``burst_len`` accelerator
  cycles of the data channel, issuing a read address costs one.
* **outstanding-transaction credits** (``Not`` in the paper) — "accelerators
  must always have multiple active AXI transactions on every bus to
  prefetch data" (Sec. IV-A).  The credit count bounds in-flight
  transactions; the paper's *Single* latency scenario uses 1, the *Burst*
  scenario 32.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Tuple

from ..axi.transaction import AxiTransaction, STATUS_OK
from ..params import HbmPlatform

if TYPE_CHECKING:  # pragma: no cover
    from ..fabric.base import BaseFabric


class TrafficSource(Protocol):
    """Protocol for per-master transaction generators."""

    def next_txn(self, cycle: int) -> Optional[AxiTransaction]:
        """Produce the next transaction, or ``None`` when (currently)
        exhausted.  Implementations must set ``master``/``direction``/
        ``address``/``burst_len``."""
        ...


class MasterPort:
    """One accelerator bus master attached to the fabric."""

    __slots__ = ("index", "platform", "source", "outstanding_limit",
                 "outstanding", "next_issue", "_staged", "issued", "completed",
                 "read_issued", "write_issued", "exhausted",
                 "_retry", "_retry_seq", "retries", "nacks", "unrecoverable",
                 "max_retries", "backoff_base", "backoff_cap", "on_issue",
                 "draining")

    def __init__(
        self,
        index: int,
        platform: HbmPlatform,
        source: TrafficSource,
        outstanding_limit: int = 32,
        max_retries: int = 8,
        backoff_base: int = 16,
        backoff_cap: int = 1024,
    ) -> None:
        self.index = index
        self.platform = platform
        self.source = source
        self.outstanding_limit = outstanding_limit
        self.outstanding = 0
        #: Accelerator-clock pacing meter, in fabric cycles.
        self.next_issue: float = 0.0
        self._staged: Optional[AxiTransaction] = None
        self.issued = 0
        self.completed = 0
        self.read_issued = 0
        self.write_issued = 0
        #: The source returned None at least once (finite workloads).
        self.exhausted = False
        #: Retry queue of NACKed/poisoned transactions: (due, seq, txn)
        #: min-heap; a transaction waits out its capped exponential
        #: backoff before re-entering the issue path.
        self._retry: List[Tuple[int, int, AxiTransaction]] = []
        self._retry_seq = 0
        self.retries = 0
        self.nacks = 0
        #: Transactions abandoned after ``max_retries`` failed attempts.
        self.unrecoverable = 0
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Optional hook called with ``(txn, cycle)`` on every issue and
        #: re-issue (the engine wires the transaction watchdog here).
        self.on_issue: Optional[Callable[[AxiTransaction, int], None]] = None
        #: Engine drain mode: retries still re-issue (they hold work the
        #: fabric owes a completion for), fresh source traffic stops.
        self.draining = False

    # -- simulation ----------------------------------------------------------

    def step(self, cycle: int, fabric: "BaseFabric") -> None:
        """Issue as many transactions as credits and pacing allow.

        Due retries go first — they are older traffic and re-use the
        ordinary credit and pacing budget, so a retry storm self-throttles
        exactly like fresh traffic.
        """
        ratio = self.platform.clock_ratio
        retry = self._retry
        while (retry and retry[0][0] <= cycle
               and self.outstanding < self.outstanding_limit
               and self.next_issue <= cycle):
            txn = retry[0][2]
            if not fabric.submit(txn, cycle):
                break
            heapq.heappop(retry)
            # The attempt ordinal bumps at *resubmit*, not at NACK time,
            # so observers of the failed completion still see the ordinal
            # of the attempt that actually failed.
            txn.retries += 1
            txn.status = STATUS_OK
            self.outstanding += 1
            self.retries += 1
            cost = txn.burst_len / ratio if txn.is_write else 1.0 / ratio
            base = (self.next_issue if self.next_issue > cycle - 1.0
                    else float(cycle))
            self.next_issue = base + cost
            if self.on_issue is not None:
                self.on_issue(txn, cycle)
        if self.draining:
            return
        while (self.outstanding < self.outstanding_limit
               and self.next_issue <= cycle):
            txn = self._staged
            if txn is None:
                txn = self.source.next_txn(cycle)
                if txn is None:
                    self.exhausted = True
                    return
            if not fabric.submit(txn, cycle):
                # Ingress backpressure: retry the same transaction later.
                self._staged = txn
                return
            self._staged = None
            self.outstanding += 1
            self.issued += 1
            if txn.is_write:
                self.write_issued += 1
                cost = txn.burst_len / ratio
            else:
                self.read_issued += 1
                cost = 1.0 / ratio
            # Keep fractional pacing credit across cycle boundaries (the
            # issue check is integer-cycle, the budget is fractional);
            # only a genuinely idle port resets its meter.
            base = (self.next_issue if self.next_issue > cycle - 1.0
                    else float(cycle))
            self.next_issue = base + cost
            if self.on_issue is not None:
                self.on_issue(txn, cycle)

    def wake_after(self, cycle: int) -> float:
        """Earliest future cycle at which :meth:`step` could do anything.

        Used by the engine's fast path to skip masters that provably
        cannot issue: a credit-blocked master sleeps until a completion
        (``inf`` — the engine wakes it explicitly), a pacing-blocked one
        until its meter expires.  A master with a refused transaction
        (:attr:`held_txn`) or a (possibly temporarily) exhausted source
        is due every cycle; for the former the engine asks the fabric's
        ``admits`` first instead of stepping it.
        """
        if self.outstanding >= self.outstanding_limit:
            return math.inf
        if self.next_issue > cycle:
            return math.ceil(self.next_issue)
        return cycle + 1

    def on_complete(self, txn: AxiTransaction, cycle: int) -> None:
        """Called by the engine when one of this master's transactions
        finishes (last read beat / write response)."""
        self.outstanding -= 1
        self.completed += 1
        if self.outstanding < 0:
            from ..errors import SimulationError
            raise SimulationError(
                f"master {self.index} completed more transactions than issued")

    def on_nack(self, txn: AxiTransaction, cycle: int) -> bool:
        """A failed completion (NACK or poisoned read) came back.

        The credit returns immediately; the transaction waits out a capped
        exponential backoff (``backoff_base * 2**attempt``, at most
        ``backoff_cap`` cycles) and re-issues through :meth:`step`, which
        bumps the attempt ordinal.  After ``max_retries`` failed attempts
        it is abandoned and counted as unrecoverable.  Returns whether a
        retry was scheduled.
        """
        self.outstanding -= 1
        self.nacks += 1
        if txn.retries >= self.max_retries:
            self.unrecoverable += 1
            return False
        delay = self.backoff_base << txn.retries
        if delay > self.backoff_cap:
            delay = self.backoff_cap
        self._retry_seq += 1
        heapq.heappush(self._retry, (cycle + delay, self._retry_seq, txn))
        return True

    def next_retry(self) -> float:
        """Due cycle of the earliest queued retry, ``inf`` when none."""
        return self._retry[0][0] if self._retry else math.inf

    @property
    def retry_pending(self) -> bool:
        return bool(self._retry)

    @property
    def held_txn(self) -> Optional[AxiTransaction]:
        """The transaction the fabric refused, which the next fresh
        issue offers again before asking the source; ``None`` when the
        fabric took every offer."""
        return self._staged

    @property
    def retry_queue_depth(self) -> int:
        """Transactions currently parked in the backoff queue (a
        telemetry gauge: sustained depth means the fabric keeps NACKing
        faster than the backoff drains)."""
        return len(self._retry)

    @property
    def idle(self) -> bool:
        """No credit in use, no staged retry, no backoff queue."""
        return (self.outstanding == 0 and self._staged is None
                and not self._retry)
