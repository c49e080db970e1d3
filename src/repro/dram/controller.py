"""Memory controller: AXI-to-DDR conversion and transaction scheduling.

On the Xilinx device every two pseudo-channels share one memory controller
(Fig. 1).  The controller model owns

* a shared **request FIFO** (the landing zone of the interconnect),
* a shared **command path** meter: each transaction occupies it for
  ``cmd_cycles_per_txn`` cycles, which bounds small-burst transaction rates
  (the burst-length-1 penalty of Fig. 3),
* one **scheduler queue per PCH** with an FR-FCFS-style pick inside a
  bounded reorder ``window``: open-row hits and direction-grouping are
  preferred, which is how real controllers "more efficiently coalesce
  accesses and increase DRAM page hits" (Sec. IV-B).

The per-master ``reorder_depth`` models the number of independent AXI IDs
(and the MAO's reorder buffers): a transaction may only be picked ahead of
at most ``reorder_depth - 1`` earlier transactions of the *same* master.
Depth 1 forces strict per-master order — the leftmost point of Fig. 6.

Write responses are *posted*: the B handshake is generated when the write
is accepted into a scheduler queue (the Xilinx controller acknowledges
bufferable writes early); flow control still applies because the queues
are bounded.

Read data needs room on the way back.  A fabric with bounded response
FIFOs hands the controller each fronted PCH's FIFO as data; a read is
only picked while that FIFO's occupancy plus the PCH's booked-but-
undelivered reads is below its capacity.  The controller counts those
booked reads per PCH as it books and delivers them, so the test is
O(1).  Fabrics that accept read data unconditionally (the MAO's reorder
buffers, the ideal fabric) pass no FIFOs.

A controller that cannot act sleeps.  Each :meth:`MemoryController.step`
ends by storing :attr:`~MemoryController.wake`, the earliest cycle at
which the next step can change state, computed from what the step just
touched; the fabrics skip the call before it and read it as the
controller's term of their event horizon.  A PCH whose reads wait only
for room in its response FIFO is woken by the pop that makes it.

A fabric whose offer a full queue refused need not offer again before
the queue has room.  It arms that PCH's *room signal*
(:meth:`MemoryController.arm_room`), and the next scheduler pop from the
queue, or a flush of it, fires the signal once.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..axi.transaction import AxiTransaction
from ..errors import ConfigError
from ..params import DramTiming
from ..types import Direction
from .pch import PseudoChannel

#: Callback signature: (txn, time) for completed read data / accepted write.
CompletionFn = Callable[[AxiTransaction, float], None]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the controller's transaction scheduler."""

    window: int = 16
    """Entries of each PCH queue the scheduler may pick from (the
    controller-internal reordering Wang et al. configure)."""

    reorder_depth: int = 32
    """Max per-master out-of-order distance (independent AXI IDs).  This is
    the x-axis of Fig. 6."""

    queue_capacity: int = 48
    """Per-PCH scheduler queue depth (backpressure boundary)."""

    horizon: float = 48.0
    """How many cycles ahead of the data bus the scheduler commits work, so
    activates overlap with ongoing transfers."""

    hit_bonus: int = 2
    """Score bonus for open-row hits (FR part of FR-FCFS)."""

    dir_bonus: int = 1
    """Score bonus for keeping the bus direction (turnaround grouping)."""

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError("scheduler window must be >= 1")
        if self.reorder_depth < 1:
            raise ConfigError("reorder_depth must be >= 1")
        if self.queue_capacity < self.window:
            raise ConfigError("queue_capacity must be >= window")


class MemoryController:
    """One memory controller fronting ``len(pchs)`` pseudo-channels.

    ``response_fifos`` gives, in ``pchs`` order, the read-data FIFO each
    fronted PCH returns into (anything with ``items`` and ``capacity``,
    in practice a :class:`~repro.fabric.links.Fifo`), or is ``None`` when
    the fabric accepts read data unconditionally.  The scheduler reads
    the FIFOs' occupancy; it never pushes into them — delivered read
    data still goes through ``on_read_data``.  It sets a FIFO's
    ``waiter`` while the PCH is parked (below), and the grant that pops
    the FIFO wakes it.

    :attr:`wake` is the earliest cycle at which :meth:`step` can change
    state.  The step that stores it takes the minimum of the due cycle
    of the next booked read and, per live PCH with a non-empty queue,
    ``floor(bus_free - horizon) + 1`` when the bus is booked past the
    horizon or ``cycle + 1`` when a pick failed (a closed port gate must
    be probed again every cycle, since each probe counts in
    ``port_stalls``).  Queues of an offline PCH add no term: they stay
    parked until a fault event, to which every engine jump is clamped.
    Nor does a parked PCH's queue, which waits for its response FIFO to
    pop.  :meth:`try_accept` lowers it to the current cycle.  A step
    before :attr:`wake` is a no-op, so the fabrics skip it.

    A PCH is *reads-only* when its last pick failed on a full response
    path and its window held no write that passes the per-master order
    filter.  Until an accept into its queue or a flush of it, every
    pick fails the same way while the response path stays full, and
    makes exactly one port-gate probe: the read gate, because the
    window's first entry always passes the order filter.  The
    scheduling loop then replays that probe instead of scanning.  When
    the read gate is open the replay has no effect, and the gate stays
    open until the PCH is served, so the PCH is *parked*: it adds no
    term to :attr:`wake` until its response FIFO pops, an accept or a
    flush clears the flag, or the channel goes offline.

    Each PCH has a *room signal* for the fabric: :meth:`arm_room` arms
    it when an offer waits for room in the PCH's queue, and the next
    scheduler pop from that queue, or :meth:`flush_offline`, fires it
    once by calling ``on_room`` with the PCH's index.  Nothing else
    frees room: the queue shrinks only there, and the one other change
    to :meth:`room`, a channel that starts bouncing requests, is always
    followed by a flush.  Code that shrinks a queue elsewhere must fire
    the signal itself.
    """

    def __init__(
        self,
        index: int,
        pchs: List[PseudoChannel],
        timing: DramTiming,
        sched: SchedulerConfig,
        *,
        on_read_data: CompletionFn,
        on_write_accept: CompletionFn,
        response_fifos: Optional[Sequence[Any]] = None,
        mc_latency: int = 0,
        on_nack: Optional[CompletionFn] = None,
        on_room: Callable[[int], None] = lambda pch: None,
    ) -> None:
        self.index = index
        self.pchs = pchs
        self.timing = timing
        self.sched = sched
        self.on_read_data = on_read_data
        self.on_write_accept = on_write_accept
        #: Per local PCH: its bounded response FIFO, or ``None``.
        self.response_fifos: List[Any] = (
            list(response_fifos) if response_fifos is not None
            else [None] * len(pchs))
        self.mc_latency = mc_latency
        #: Bounce path for requests that hit an offline pseudo-channel
        #: (wired by the fabric; used only under a degradation policy).
        self.on_nack = on_nack
        #: Degradation policy flag, set by the fault injector: when true,
        #: requests arriving at an offline PCH are NACKed back to their
        #: master instead of queueing forever.
        self.degrade_offline = False
        #: Shared command-path meter.
        self.cmd_free: float = 0.0
        #: Per-PCH scheduler queues (txns with .pch/.local already set).
        self.queues: List[List[AxiTransaction]] = [[] for _ in pchs]
        #: Pending read-data events: (exit_time, seq, txn, local_pch_idx).
        self._pending: List[tuple] = []
        #: Per local PCH: how many of :attr:`_pending` are its reads.
        self._pending_reads: List[int] = [0] * len(pchs)
        self._seq = 0
        self.accepts = 0
        #: Called with a PCH's index when its room signal fires (wired
        #: by the fabric; see :meth:`arm_room`).
        self.on_room = on_room
        #: Per local PCH: whether its room signal is armed.
        self._room_armed: List[bool] = [False] * len(pchs)
        #: Earliest cycle at which :meth:`step` can change state
        #: (``math.inf``: not until an accept).
        self.wake: float = math.inf
        #: Per local PCH: whether it is reads-only (see the class doc).
        self._reads_only: List[bool] = [False] * len(pchs)
        me = weakref.ref(self)

        def wake_next(cycle: int) -> None:
            mc = me()
            if mc is not None and mc.wake > cycle + 1:
                mc.wake = cycle + 1
        #: What a parked PCH's response FIFO holds as its ``waiter``: it
        #: wakes this controller for the cycle after the pop, and refers
        #: to it weakly, so the FIFO does not keep it alive.
        self._wake_on_pop = wake_next
        self._local_index = {p.index: i for i, p in enumerate(pchs)}

    # -- fabric-facing -------------------------------------------------------

    def local_index(self, pch: int) -> int:
        try:
            return self._local_index[pch]
        except KeyError:
            raise ConfigError(
                f"PCH {pch} not fronted by MC {self.index}") from None

    def _bounce(self, li: int) -> Optional[CompletionFn]:
        """The NACK path of requests for local PCH ``li`` while the
        channel is offline under a degradation policy, else ``None``
        (requests queue).  :meth:`room` and :meth:`try_accept` both
        decide through it, so they cannot disagree; both skip the call
        while the channel has no fault state, the common case."""
        fault = self.pchs[li].fault
        if fault is not None and fault.offline and self.degrade_offline:
            return self.on_nack
        return None

    def room(self, pch: int) -> float:
        """How many transactions :meth:`try_accept` takes for ``pch``
        before the next scheduler pop: the free slots of its queue, or
        ``math.inf`` while the channel bounces every request."""
        li = self._local_index[pch]
        if self.pchs[li].fault is not None and self._bounce(li) is not None:
            return math.inf
        return self.sched.queue_capacity - len(self.queues[li])

    def arm_room(self, pch: int) -> None:
        """Arm ``pch``'s room signal: an offer waits for room in its
        queue.  The next scheduler pop from the queue, or a flush of it,
        disarms the signal and calls ``on_room(pch)``; arming an armed
        signal changes nothing, so it fires once however often it was
        armed."""
        self._room_armed[self._local_index[pch]] = True

    def try_accept(self, txn: AxiTransaction, cycle: int) -> bool:
        """Accept a transaction into its PCH scheduler queue.

        Returns ``False`` (backpressure) when the queue is full; the fabric
        leaves the flit in its landing FIFO and offers it again once the
        PCH's room signal fires (:meth:`arm_room`).
        """
        li = self.local_index(txn.pch)
        bounce = (None if self.pchs[li].fault is None
                  else self._bounce(li))
        if bounce is not None:
            # Dead channel under a degradation policy: bounce the request
            # so the master's retry re-resolves through the remap table.
            bounce(txn, float(cycle))
            return True
        q = self.queues[li]
        if len(q) >= self.sched.queue_capacity:
            return False
        txn.accept_cycle = cycle
        # Decode the DRAM coordinates once, for every pick that scores
        # this transaction while it waits in the queue.
        t = self.timing
        row = txn.local // t.row_bytes
        txn.row = row
        txn.bank = row % t.num_banks
        q.append(txn)
        if self._reads_only[li]:
            self._clear_reads_only(li)
        if cycle < self.wake:
            self.wake = cycle
        self.accepts += 1
        if txn.is_write:
            # Posted write: B response on acceptance into the queue.
            self.on_write_accept(txn, float(cycle))
        return True

    # -- simulation ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        wake = math.inf
        for q in self.queues:
            if q:
                wake = self._schedule(cycle)
                break
        pending = self._pending
        if pending:
            self._deliver_read_data(cycle)
            if pending:
                due = math.ceil(pending[0][0])
                if due < wake:
                    wake = due
        self.wake = wake

    def _schedule(self, cycle: int) -> float:
        """Book work on every live PCH; returns the scheduling part of
        :attr:`wake`."""
        s = self.sched
        horizon = s.horizon
        commit_horizon = cycle + horizon
        reads_only = self._reads_only
        room_armed = self._room_armed
        wake = math.inf
        for li, pch in enumerate(self.pchs):
            fault = pch.fault
            if fault is not None and fault.offline:
                # A dead channel services nothing; without a degradation
                # policy its queued requests sit here until the watchdog
                # turns the silence into a TransactionTimeout.
                if reads_only[li]:
                    self._clear_reads_only(li)
                continue
            q = self.queues[li]
            while q:
                # Inlined pch.ready_for_service(cycle, s.horizon) — this
                # loop runs on every step for every pseudo-channel.
                if pch.bus_free >= commit_horizon:
                    t = math.floor(pch.bus_free - horizon) + 1
                    if t < wake:
                        wake = t
                    break
                if reads_only[li]:
                    fifo = self.response_fifos[li]
                    if (len(fifo.items) + self._pending_reads[li]
                            >= fifo.capacity):
                        # The pick would fail again; replay its one
                        # side effect, the read-gate probe.  A closed
                        # gate counts a port stall, so probe again next
                        # cycle.  An open gate stays open until this PCH
                        # is served, so the replay is a no-op until the
                        # FIFO pops: park the PCH, and let that pop wake
                        # this controller.
                        if pch.channel_open(True, cycle):
                            fifo.waiter = self._wake_on_pop
                        else:
                            wake = cycle + 1
                        break
                    self._clear_reads_only(li)
                idx = self._pick(q, pch, li, cycle)
                if idx is None:
                    wake = cycle + 1
                    break
                txn = q.pop(idx)
                if room_armed[li]:
                    room_armed[li] = False
                    self.on_room(pch.index)
                start, exit_time = pch.service(txn, cycle, self.cmd_free)
                base = float(cycle) if cycle > self.cmd_free else self.cmd_free
                self.cmd_free = base + self.timing.cmd_cycles_per_txn
                if txn.is_read:
                    self._seq += 1
                    self._pending_reads[li] += 1
                    heapq.heappush(
                        self._pending,
                        (exit_time + self.mc_latency, self._seq, txn, li))
        return wake

    def _pick(self, q: List[AxiTransaction], pch: PseudoChannel, li: int,
              cycle: int) -> Optional[int]:
        """FR-FCFS-style pick inside the reorder window.

        ``li`` is ``pch``'s local index.  Returns the queue index to
        service, or ``None`` if nothing is eligible (e.g. the response path
        is full for every candidate read, or both direction gates are
        exhausted).  A failing pick that found the response path full
        and probed no write gate marks the PCH reads-only: the write
        gate is probed at the first write that passes the order filter.
        An entry scores a row hit from the ``row`` and ``bank``
        :meth:`try_accept` decoded.
        """
        s = self.sched
        open_row = pch.banks.open_row
        last_dir = pch.last_dir
        hit_bonus = s.hit_bonus
        dir_bonus = s.dir_bonus
        depth = s.reorder_depth
        best_idx: Optional[int] = None
        best_score = -1
        limit = min(len(q), s.window)
        # The per-master order constraint can only bind when a master may
        # have more than ``reorder_depth`` entries inside the window.
        track_order = depth < limit
        seen: dict = {} if track_order else None
        # Room for one more read's data: the FIFO's occupancy plus the
        # reads already booked to land in it.
        fifo = self.response_fifos[li]
        resp_ok = fifo is None or (
            len(fifo.items) + self._pending_reads[li] < fifo.capacity)
        # Each port gate is probed once, at the first entry that needs it.
        read_ok: Optional[bool] = None
        write_ok: Optional[bool] = None
        max_score = hit_bonus + dir_bonus
        read_dir = Direction.READ
        for i in range(limit):
            txn = q[i]
            if track_order:
                m = txn.master
                order = seen.get(m, 0)
                seen[m] = order + 1
                if order >= depth:
                    continue
            if txn.direction is read_dir:
                if read_ok is None:
                    read_ok = pch.channel_open(True, cycle)
                if not read_ok or not resp_ok:
                    continue
                d = 0
            else:
                if write_ok is None:
                    write_ok = pch.channel_open(False, cycle)
                if not write_ok:
                    continue
                d = 1
            score = hit_bonus if open_row[txn.bank] == txn.row else 0
            if d == last_dir:
                score += dir_bonus
            if score > best_score:
                best_score = score
                best_idx = i
                if score == max_score:
                    break  # cannot do better
        if best_idx is None and not resp_ok and write_ok is None:
            self._reads_only[li] = True
        return best_idx

    def _deliver_read_data(self, cycle: int) -> None:
        pending = self._pending
        while pending and pending[0][0] <= cycle:
            _, _, txn, li = heapq.heappop(pending)
            self._pending_reads[li] -= 1
            self.on_read_data(txn, float(cycle))

    # -- invariants / reporting ----------------------------------------------

    def flush_offline(self, pch_index: int, cycle: int) -> List[AxiTransaction]:
        """Evict everything queued for a (newly offline) pseudo-channel.

        Returns the evicted transactions; the caller (the fault injector,
        under a degradation policy) NACKs them back to their masters.
        Read data already committed to the DRAM bus (``_pending``) still
        delivers — the failure point is the command interface, not data
        in flight out of the channel.
        """
        li = self.local_index(pch_index)
        q = self.queues[li]
        flushed = list(q)
        q.clear()
        if self._reads_only[li]:
            self._clear_reads_only(li)
        if self._room_armed[li]:
            self._room_armed[li] = False
            self.on_room(pch_index)
        return flushed

    def _clear_reads_only(self, li: int) -> None:
        """Local PCH ``li`` is no longer reads-only, nor parked on its
        response FIFO."""
        self._reads_only[li] = False
        self.response_fifos[li].waiter = None

    def queued(self, pch_index: int) -> int:
        """Scheduler-queue depth of one fronted PCH (telemetry gauge)."""
        return len(self.queues[self.local_index(pch_index)])

    def in_flight(self) -> int:
        """Transactions buffered anywhere inside this controller."""
        return sum(len(q) for q in self.queues) + len(self._pending)
