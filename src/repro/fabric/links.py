"""Low-level interconnect building blocks for the cycle simulation.

The fabrics are built from two primitives:

* :class:`Fifo` — a bounded FIFO of :class:`Flit` objects.  Input queues of
  a switch are FIFOs, which is what produces head-of-line blocking: only
  the head of a queue is eligible for arbitration, so a blocked head stalls
  everything behind it (one of the throughput impediments of Sec. IV-A).
* :class:`ArbOutput` — one output bus of a switch.  Every cycle it
  round-robin arbitrates over its input FIFOs, granting the head flit whose
  route names this output.  A granted flit occupies the bus for
  ``weight / rate`` cycles (a flit's weight is its data-beat count) and
  arrives at the destination FIFO ``latency`` cycles after transmission
  completes.  Changing the granted input inserts ``dead_cycles`` of bus
  turnaround — the "additional dead cycles for bus multiplexing" the paper
  identifies as a contention source.

Each output counts the flits routed to it in two ways, both kept by
:class:`Fifo` wherever a flit enters or leaves a queue: ``pending_in``
(anywhere in an input FIFO) and ``ready_in`` (at the *head* of one).
``pending_in == 0`` means there is nothing to arbitrate;
``ready_in == 0`` with work pending is head-of-line blocking — every flit
for this output sits behind another output's head — and the output
records its grant stall without scanning its inputs.

An output that cannot act sleeps until its ``wake`` cycle: the end of
its transmission, its next delivery, the end of the partner direction's
hold on a shared lateral bus, or — for head-of-line blocking and a full
destination — never, until a FIFO event lowers it.  :class:`Fifo` makes
those events: a new eligible head, new work for an idle output, and a
freed slot in the FIFO an output feeds (the popped flit's previous hop).
A stalled output counts the stall of the cycle it fell asleep in and
marks ``stalled_from``; on waking it adds every cycle it slept through,
so ``grant_stalls`` lags mid-run: :meth:`ArbOutput.stalls` reads the
settled count without changing anything, and :meth:`ArbOutput.settle`
(called where an engine loop stops) brings the field up to date.  A
step before ``wake`` changes nothing but when those stalls are added,
so stepping every output every cycle remains a correct reference.
Whatever else waits for a FIFO to pop registers a ``Fifo.waiter``, and
the grant that pops the FIFO calls it: a memory controller parked on a
full read-data FIFO, and a master the fast engine tier holds on a full
ingress FIFO.

Backpressure is credit-based: a grant is only issued when the destination
FIFO has a free slot, which the output reserves until delivery.  Every
destination FIFO is fed by exactly one :class:`ArbOutput` (a structural
invariant of the topologies built here), so the reservation count can live
on the output.

These classes are on the simulation's innermost loop; they use
``__slots__``, plain attribute access and early-outs rather than nested
abstractions (see the optimizing-code guide).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..axi.transaction import AxiTransaction
from ..errors import SimulationError

#: Flit phases.
REQUEST = 0
RESPONSE = 1


class Flit:
    """One transaction's traversal of one network phase.

    ``weight`` is the number of data beats the flit occupies on a bus:
    1 for a read request (address only), ``burst_len`` for write requests
    (address + write data) and read responses (read data).
    """

    __slots__ = ("txn", "weight", "phase", "route", "hop")

    def __init__(
        self,
        txn: AxiTransaction,
        weight: int,
        phase: int,
        route: Sequence["ArbOutput"],
    ) -> None:
        self.txn = txn
        self.weight = weight
        self.phase = phase
        self.route = route
        self.hop = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "REQ" if self.phase == REQUEST else "RSP"
        return f"Flit({kind} w={self.weight} hop={self.hop}/{len(self.route)} {self.txn!r})"


class SharedBus:
    """A capacity meter shared by several :class:`ArbOutput` instances.

    A lateral connection of the segmented fabric is one AXI interface: its
    W channel carries write data in the request direction while its R
    channel returns read data for the *same* flows.  The paper's own
    Fig. 4 arithmetic ("two BMs get 100 % ... the contending ones
    effectively only 50 %") treats a lateral connection as a single
    one-PCH-bandwidth resource, so the forward (request) and backward
    (response) ArbOutputs of one lateral bus share this meter.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until: float = 0.0


class Fifo:
    """A bounded FIFO of flits."""

    __slots__ = ("items", "capacity", "name", "waiter")

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("fifo capacity must be >= 1")
        self.items: Deque[Flit] = deque()
        self.capacity = capacity
        self.name = name
        #: What waits for this FIFO to pop, else ``None``: a callable
        #: that the grant that pops it clears and calls with the cycle
        #: (:meth:`ArbOutput._try_grant`).  A memory controller parks a
        #: PCH's read-data FIFO on it while that PCH's reads wait for
        #: room, and the vendor fabric a held master's ingress FIFO.
        #: Neither callable keeps its owner alive.
        self.waiter: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def head(self) -> Optional[Flit]:
        return self.items[0] if self.items else None

    def append(self, flit: Flit) -> None:
        items = self.items
        if len(items) >= self.capacity:
            raise SimulationError(f"overflow on fifo {self.name!r}")
        # Book the flit with the output that must grant it next, so idle
        # and head-of-line-blocked outputs can skip their scan.  A new
        # eligible head, or work for an idle output, can let it grant:
        # wake it for the earliest cycle its bus is free.
        if flit.hop < len(flit.route):
            out = flit.route[flit.hop]
            out.pending_in += 1
            if not items:
                out.ready_in += 1
            if ((not items or out.pending_in == 1)
                    and out.busy_until < out.wake):
                out.wake = out.busy_until
        items.append(flit)

    def popleft(self) -> Flit:
        """Remove the head flit; the only way a head leaves a queue.

        Un-books the flit from its next output and books the new head, so
        every output's ``pending_in`` and ``ready_in`` stay exact.  It
        wakes the two outputs the pop can let grant: the new head's next
        output, and the output that fed this FIFO — the popped flit's
        previous hop — if it has work waiting for the freed slot.
        """
        items = self.items
        flit = items.popleft()
        route = flit.route
        hop = flit.hop
        if hop < len(route):
            out = route[hop]
            out.pending_in -= 1
            out.ready_in -= 1
        if hop:
            out = route[hop - 1]
            if out.pending_in and out.busy_until < out.wake:
                out.wake = out.busy_until
        if items:
            head = items[0]
            if head.hop < len(head.route):
                out = head.route[head.hop]
                out.ready_in += 1
                if out.busy_until < out.wake:
                    out.wake = out.busy_until
        return flit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fifo({self.name!r} {len(self.items)}/{self.capacity})"


class ArbOutput:
    """One arbitrated output bus of a switch.

    Parameters
    ----------
    inputs:
        The input FIFOs this output arbitrates over (round-robin).
    dest:
        Destination FIFO flits are delivered into.
    latency:
        Pipeline latency in cycles between the end of transmission and
        arrival at ``dest``.
    rate:
        Beats per cycle the bus can move (1.0 for fabric-clock buses, the
        accelerator/fabric clock ratio for master-adjacent buses).
    dead_cycles:
        Bus-multiplexing dead cycles inserted when the granted input
        differs from the previously granted one.
    """

    __slots__ = ("name", "inputs", "dest", "latency", "rate", "dead_cycles",
                 "busy_until", "last_input", "reserved", "in_flight",
                 "granted_flits", "busy_weight", "shared", "pending_in",
                 "ready_in", "grant_stalls", "wake", "stalled_from")

    def __init__(
        self,
        name: str,
        inputs: List[Fifo],
        dest: Fifo,
        latency: int,
        rate: float = 1.0,
        dead_cycles: int = 0,
        shared: Optional[SharedBus] = None,
    ) -> None:
        if rate <= 0:
            raise SimulationError("bus rate must be positive")
        self.name = name
        self.inputs = inputs
        self.dest = dest
        self.latency = latency
        self.rate = rate
        self.dead_cycles = dead_cycles
        self.shared = shared
        self.busy_until: float = 0.0
        self.last_input: int = -1
        self.reserved: int = 0
        #: (arrival_cycle, flit) in non-decreasing arrival order.
        self.in_flight: Deque[Tuple[float, Flit]] = deque()
        #: Total flits granted (diagnostics).
        self.granted_flits: int = 0
        #: Total beat-weight granted (diagnostics / utilization).
        self.busy_weight: float = 0.0
        #: Flits currently buffered in input FIFOs whose next hop is this
        #: output (maintained by :meth:`Fifo.append` and
        #: :meth:`Fifo.popleft`).  Zero means there is nothing to
        #: arbitrate: the output sleeps until its next delivery.
        self.pending_in: int = 0
        #: Input FIFOs whose *head* flit's next hop is this output (kept
        #: by the same two methods).  Zero with ``pending_in`` non-zero is
        #: head-of-line blocking: a scan cannot grant, so :meth:`step`
        #: records the stall without one.
        self.ready_in: int = 0
        #: Cycles a pending flit waited while this bus was *idle* —
        #: the shared lateral bus was held by the partner direction, the
        #: destination FIFO was full, or head-of-line blocking hid every
        #: eligible head.  Transmission cycles are occupancy, not stalls.
        #: Lags by the cycles a stalled output has slept through; read
        #: it mid-run through :meth:`stalls`.
        self.grant_stalls: int = 0
        #: Earliest cycle at which :meth:`step` can change state; the
        #: fabric skips the call before it.  With nothing pending it is
        #: the ``ceil`` of the next delivery (``math.inf``: none).
        self.wake: float = math.inf
        #: First cycle of the stall this output sleeps in whose stall is
        #: not yet in :attr:`grant_stalls`, or ``None`` when not stalled.
        self.stalled_from: Optional[int] = None

    # -- simulation ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance to ``cycle``: deliver due arrivals, count the stalls
        slept through, try to grant, and store the next :attr:`wake`.

        An output that cannot act sleeps: while transmitting, until its
        bus frees; while the partner direction holds the shared lateral
        bus, until that frees; behind head-of-line blocking or a full
        destination, until a :class:`Fifo` event lowers ``wake``.  Every
        cycle of a stalled sleep was a stall, so the step that wakes it
        adds them.  Stepping before ``wake`` changes nothing but the
        moment those stalls are added.
        """
        inflight = self.in_flight
        if inflight:
            dest = self.dest
            while inflight and inflight[0][0] <= cycle:
                _, flit = inflight.popleft()
                self.reserved -= 1
                flit.hop += 1
                dest.append(flit)
        since = self.stalled_from
        if since is not None:
            self.grant_stalls += cycle - since
            self.stalled_from = None
        wake = math.inf
        if self.pending_in:
            if self.busy_until > cycle:
                # Transmitting: the bus is occupied, not stalled.
                wake = self.busy_until
            elif self.shared is not None and self.shared.busy_until > cycle:
                # The partner direction holds the lateral.
                self.grant_stalls += 1
                self.stalled_from = cycle + 1
                wake = self.shared.busy_until
            elif self.ready_in == 0 or not self._try_grant(cycle):
                # HOL blocking / dest backpressure: only a FIFO event
                # can end it, and that lowers ``wake``.
                self.grant_stalls += 1
                self.stalled_from = cycle + 1
            elif self.pending_in:
                wake = self.busy_until
        if inflight:
            t = math.ceil(inflight[0][0])
            if t < wake:
                wake = t
        self.wake = wake

    def stalls(self, cycle: int) -> int:
        """:attr:`grant_stalls` settled through ``cycle``, the last cycle
        the fabric stepped: a pure read for probes mid-run."""
        since = self.stalled_from
        if since is None:
            return self.grant_stalls
        return self.grant_stalls + cycle + 1 - since

    def settle(self, cycle: int) -> None:
        """Add the stalls slept through up to ``cycle`` to
        :attr:`grant_stalls`; the output sleeps on."""
        since = self.stalled_from
        if since is not None:
            self.grant_stalls += cycle + 1 - since
            self.stalled_from = cycle + 1

    def _try_grant(self, cycle: int) -> bool:
        """Attempt one round-robin grant; returns whether one was issued."""
        inputs = self.inputs
        n = len(inputs)
        if n == 0:
            return False
        if len(self.dest.items) + self.reserved >= self.dest.capacity:
            return False
        idx = self.last_input
        for _ in range(n):
            idx += 1
            if idx >= n:
                idx = 0
            fifo = inputs[idx]
            items = fifo.items
            if not items:
                continue
            flit = items[0]
            if flit.route[flit.hop] is not self:
                continue
            # Grant.
            fifo.popleft()
            waiter = fifo.waiter
            if waiter is not None:
                # The freed slot is what the waiter waits for.
                fifo.waiter = None
                waiter(cycle)
            start = float(cycle)
            if self.last_input != idx and self.last_input != -1 and self.dead_cycles:
                start += self.dead_cycles
            duration = flit.weight / self.rate
            self.busy_until = start + duration
            if self.shared is not None:
                self.shared.busy_until = start + duration
            self.in_flight.append((start + duration + self.latency, flit))
            self.reserved += 1
            self.last_input = idx
            self.granted_flits += 1
            self.busy_weight += flit.weight
            return True
        return False

    def quiescent(self) -> bool:
        """True when nothing is buffered or in flight on this bus."""
        return not self.in_flight and self.reserved == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArbOutput({self.name!r} busy_until={self.busy_until:.1f} "
                f"inflight={len(self.in_flight)})")
