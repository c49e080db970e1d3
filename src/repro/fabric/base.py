"""Common scaffolding shared by all fabric models.

A *fabric* owns everything between the bus-master ports and the DRAM:
landing FIFOs, switches/links, memory controllers, and pseudo-channels.
The engine drives it through a narrow interface:

* :meth:`BaseFabric.submit` — a master offers a transaction (returns
  ``False`` on backpressure),
* :meth:`BaseFabric.step` — advance one fabric cycle,
* :attr:`BaseFabric.completions` — transactions that finished this cycle
  (drained by the engine),
* :meth:`BaseFabric.quiescent` — drain check for end-of-simulation,
* :meth:`BaseFabric.next_event` — the fabric's *event horizon*: the
  earliest future cycle at which stepping it (absent new submissions)
  could change observable state.  The engine's fast path uses it to jump
  the clock over provably empty cycles; a conservative answer of
  ``cycle + 1`` is always correct and merely disables skipping.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..axi.transaction import AxiTransaction, STATUS_NACK
from ..core.address_map import AddressMap
from ..dram.controller import MemoryController, SchedulerConfig
from ..dram.pch import PseudoChannel
from ..params import HbmPlatform
from .links import Fifo


class BaseFabric:
    """Shared construction and completion plumbing for fabric models."""

    name = "base"

    #: Whether the model assigns meaningful AXI IDs and guarantees
    #: same-ID read responses deliver in issue order (the MAO's
    #: reorder-buffer lanes).  The runtime sanitizer only arms its
    #: same-ID ordering check on fabrics that declare this.
    same_id_ordering = False

    def __init__(
        self,
        platform: HbmPlatform,
        address_map: AddressMap,
        sched: Optional[SchedulerConfig] = None,
        response_fifos: Optional[Sequence[Fifo]] = None,
    ) -> None:
        """``response_fifos``: one bounded read-data FIFO per PCH, handed
        to the controllers so reads wait for room; ``None`` when the
        fabric accepts read data unconditionally."""
        self.platform = platform
        self.address_map = address_map
        self.sched = sched or SchedulerConfig()
        #: Transactions completed this cycle: (txn, completion_cycle).
        self.completions: List[Tuple[AxiTransaction, float]] = []
        #: Degradation remap (PCH -> surviving PCH), or ``None`` while the
        #: device is healthy.  Installed by the fault injector when a PCH
        #: goes offline under a degradation policy; applied in
        #: :meth:`_resolve` so retried *and* new traffic lands on
        #: survivors.
        self.fault_remap: Optional[List[int]] = None
        #: Directly scheduled completion events (write acks, etc.).
        self._events: List[tuple] = []
        self._event_seq = 0
        # Refresh phases are staggered across PCHs.
        t = platform.dram
        phase_step = t.t_refi // max(1, platform.num_pch)
        self.pchs = [
            PseudoChannel(i, t, refresh_phase=i * phase_step,
                          port_ratio=platform.clock_ratio)
            for i in range(platform.num_pch)
        ]
        self.num_mcs = platform.num_pch // platform.pch_per_mc
        self.mcs: List[MemoryController] = []
        # The controllers call back through a weak proxy: bound methods
        # would make every fabric a reference cycle that only the cyclic
        # gc frees, and a finished fabric is then freed by refcounting.
        me = weakref.proxy(self)
        for m in range(self.num_mcs):
            lo, hi = m * platform.pch_per_mc, (m + 1) * platform.pch_per_mc
            self.mcs.append(MemoryController(
                m, self.pchs[lo:hi], t, self.sched,
                on_read_data=lambda txn, time: me._on_read_data(txn, time),
                on_write_accept=lambda txn, time: me._on_write_accept(
                    txn, time),
                response_fifos=(None if response_fifos is None
                                else response_fifos[lo:hi]),
                mc_latency=platform.fabric.mc_latency,
                on_nack=lambda txn, time: me._on_nack(txn, time),
            ))
        #: Hot-path lookup: PCH index -> its memory controller.
        self._mc_by_pch: List[MemoryController] = [
            self.mcs[p // platform.pch_per_mc] for p in range(platform.num_pch)]

    # -- interface the engine uses --------------------------------------------

    def submit(self, txn: AxiTransaction, cycle: int) -> bool:
        raise NotImplementedError

    def step(self, cycle: int) -> None:
        raise NotImplementedError

    def quiescent(self) -> bool:
        raise NotImplementedError

    def next_event(self, cycle: int) -> float:
        """Earliest future cycle at which :meth:`step` could have an
        observable effect, assuming no new submissions arrive.

        Called right after :meth:`step` ran at ``cycle``.  Returns
        ``math.inf`` when the fabric is provably quiescent.  The base
        implementation covers the shared model state (scheduled completion
        events and the memory controllers); subclasses extend it with
        their interconnect state and must stay *conservative*: answering
        ``cycle + 1`` whenever in doubt is always correct.

        Two proofs let a starved fabric answer far ahead, so the engine
        jumps a dead-channel window instead of stepping it:

        * **parked offline queues** — :meth:`MemoryController.next_event`
          ignores queues whose channel is offline; only a fault event can
          revive it, and the engine loops clamp every jump to those;
        * **staged pops** — a heap-fed fabric's staged transactions were
          all refused by this cycle's sweep, so they can be accepted no
          earlier than the cycle after a scheduler pop frees space
          (:meth:`_ingress_event`).

        The scheduler's booking horizon is left out on purpose; see
        :meth:`MemoryController.next_event` for the measurement.
        """
        nxt = math.inf
        ev = self._events
        if ev:
            nxt = math.ceil(ev[0][0])
        for mc in self.mcs:
            t = mc.next_event(cycle)
            if t < nxt:
                nxt = t
                if nxt <= cycle + 1:
                    break
        return nxt if nxt > cycle + 1 else cycle + 1

    def _ingress_event(self, cycle: int, staged: Deque[AxiTransaction],
                       in_transit: List[tuple]) -> float:
        """Horizon term of a heap-fed ingress: ``in_transit`` arrivals
        feeding a ``staged`` retry deque (the MAO and ideal fabrics).

        The sweep of the step at ``cycle`` refused every transaction
        still staged (anything accepted left the deque), so each target
        queue was full, and only a scheduler pop frees space.  Staged work
        therefore pins the horizon to ``cycle + 1`` only when some
        controller popped during this step — pops happen after the sweep
        — and otherwise waits for the next arrival, whose sweep may find
        a queue with space.  A starved fabric, every credit parked behind
        an offline channel, answers ``math.inf`` here.
        """
        if staged:
            for mc in self.mcs:
                if mc.last_pop == cycle:
                    return cycle + 1
        if in_transit:
            return math.ceil(in_transit[0][0])
        return math.inf

    def drain_completions(self) -> List[Tuple[AxiTransaction, float]]:
        done = self.completions
        self.completions = []
        return done

    # -- hooks the subclasses implement ----------------------------------------

    def _on_read_data(self, txn: AxiTransaction, time: float) -> None:
        raise NotImplementedError

    def _on_write_accept(self, txn: AxiTransaction, time: float) -> None:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def _resolve(self, txn: AxiTransaction) -> None:
        """Fill in destination PCH and local offset from the address map.

        Under an active degradation remap the nominal PCH is redirected to
        its survivor; the local offset is unchanged (survivors mirror the
        dead channel's address window, trading capacity for liveness).
        """
        pch = self.address_map.pch_of(txn.address)
        remap = self.fault_remap
        if remap is not None:
            pch = remap[pch]
        txn.pch = pch
        txn.local = self.address_map.local_of(txn.address)

    def _on_nack(self, txn: AxiTransaction, time: float) -> None:
        """Bounce ``txn`` back to its master as a NACK completion.

        The response travels the ordinary completion path (one cycle of
        response latency) so the engine and observers see every attempt;
        the master's retry logic decides whether to re-issue.
        """
        txn.status = STATUS_NACK
        self._schedule_completion(txn, time + 1.0)

    def apply_link_stall(self, until: float, cut: Optional[int] = None) -> None:
        """Freeze part of the interconnect until cycle ``until``.

        ``cut`` selects a lateral boundary where the fabric topology has
        one (the segmented crossbar's shared buses, the MAO's switch
        stage); fabrics without lateral structure stall their ingress.
        The base class has no interconnect of its own, so this is a
        no-op hook; each fabric overrides it with its own notion of a
        stalled link.
        """

    def _schedule_completion(self, txn: AxiTransaction, time: float) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, txn))

    def _pop_due_events(self, cycle: int) -> None:
        ev = self._events
        while ev and ev[0][0] <= cycle:
            time, _, txn = heapq.heappop(ev)
            txn.complete_cycle = cycle
            self.completions.append((txn, time))

    def _mcs_quiescent(self) -> bool:
        return all(mc.in_flight() == 0 for mc in self.mcs) and not self._events

    def _retry_staged(self, staged, cycle: int):
        """Offer staged arrivals to their controllers, in order.

        Returns the (possibly new) deque of still-refused transactions.
        Queue occupancy only grows within one sweep, so a queue that
        refused once stays full for the rest of it — later transactions
        bound for it skip the call.  When nothing is accepted the input
        deque is returned untouched.  Both shortcuts are order-preserving
        and bit-identical to the plain try-everything sweep.
        """
        full: set = set()
        accepted: Optional[set] = None
        mc_by_pch = self._mc_by_pch
        for i, txn in enumerate(staged):
            pch = txn.pch
            if pch in full:
                continue
            if mc_by_pch[pch].try_accept(txn, cycle):
                if accepted is None:
                    accepted = set()
                accepted.add(i)
            else:
                full.add(pch)
        if accepted is None:
            return staged
        return deque(txn for i, txn in enumerate(staged) if i not in accepted)

    # -- reporting ----------------------------------------------------------------

    def telemetry_probes(self) -> list:
        """Probes over this fabric's observable components.

        The base set covers what every fabric shares — per-PCH DRAM
        counters and bank page state, plus the controllers' scheduler
        queue depths.  Subclasses extend it with their interconnect
        (links, reorder buffers).  The telemetry package is imported
        lazily: it sits *above* the simulation core in the layering, so
        fabrics must not import it at module level.
        """
        from ..telemetry.metrics import COUNTER, GAUGE, Probe
        probes = []
        for p in self.pchs:
            i = p.index
            c = p.counters
            b = p.banks
            probes += [
                Probe(f"dram.pch{i}.beats", COUNTER,
                      lambda c=c: c.beats_transferred, "dram"),
                Probe(f"dram.pch{i}.page_hits", COUNTER,
                      lambda b=b: b.row_hits, "dram"),
                Probe(f"dram.pch{i}.page_misses", COUNTER,
                      lambda b=b: b.activates, "dram"),
                Probe(f"dram.pch{i}.page_conflicts", COUNTER,
                      lambda b=b: b.conflicts, "dram"),
                Probe(f"dram.pch{i}.turnarounds", COUNTER,
                      lambda c=c: c.turnarounds, "dram"),
                Probe(f"dram.pch{i}.refreshes", COUNTER,
                      lambda c=c: c.refreshes, "dram"),
                Probe(f"dram.pch{i}.port_stalls", COUNTER,
                      lambda c=c: c.port_stalls, "dram"),
                Probe(f"dram.pch{i}.miss_gaps", COUNTER,
                      lambda c=c: c.miss_gaps, "dram"),
            ]
        for mc in self.mcs:
            for p in mc.pchs:
                probes.append(Probe(
                    f"mc{mc.index}.pch{p.index}.queue", GAUGE,
                    lambda mc=mc, i=p.index: mc.queued(i), "fabric"))
        return probes

    def dram_counters(self):
        """Aggregate PCH counters (diagnostics)."""
        from ..dram.pch import PchCounters
        total = PchCounters()
        for p in self.pchs:
            total.merge(p.counters)
        return total
