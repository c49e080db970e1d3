"""Common scaffolding shared by all fabric models.

A *fabric* owns everything between the bus-master ports and the DRAM:
landing FIFOs, switches/links, memory controllers, and pseudo-channels.
The engine drives it through a narrow interface:

* :meth:`BaseFabric.submit` — a master offers a transaction (returns
  ``False`` on backpressure),
* :meth:`BaseFabric.admits` — whether ``submit`` would take a
  transaction now (a pure query),
* :meth:`BaseFabric.hold` — arm the release of a master whose
  transaction ``submit`` refuses: the event that lets it take the
  transaction appends the master to :attr:`BaseFabric.released`
  (:meth:`BaseFabric.clear_holds` disarms every release),
* :meth:`BaseFabric.step` — advance one fabric cycle,
* :attr:`BaseFabric.completions` — transactions that finished this cycle
  (drained by the engine),
* :meth:`BaseFabric.quiescent` — drain check for end-of-simulation,
* :meth:`BaseFabric.next_event` — the fabric's *event horizon*: the
  earliest future cycle at which stepping it (absent new submissions)
  could change observable state.  The engine's fast path uses it to jump
  the clock over provably empty cycles; a conservative answer of
  ``cycle + 1`` is always correct and merely disables skipping,
* :meth:`BaseFabric.settle` — bring lazily kept counters up to date
  where an engine loop stops.
"""

from __future__ import annotations

import heapq
import math
import weakref
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

    #: Staging of the heap-fed fabrics (MAO, ideal), which allocate it:
    #: per PCH, the in-transit heap entries ``(arrival, seq, txn)`` that
    #: arrived but found no room in the PCH's scheduler queue, oldest
    #: first; and the total over all PCHs.
    _staged: List[Deque[tuple]]
    _staged_count: int

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
        #: Indices of held masters whose transaction this fabric now
        #: takes, in release order (see :meth:`hold`); the fast engine
        #: tier empties it.
        self.released: List[int] = []
        #: PCHs the next staging sweep offers staged work to, each once:
        #: a first arrival in its deque, or a fired room signal (see
        #: :meth:`_retry_staged`).
        self._sweep: List[int] = []
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
                on_room=lambda pch: me._on_room(pch),
            ))
        #: Hot-path lookup: PCH index -> its memory controller.
        self._mc_by_pch: List[MemoryController] = [
            self.mcs[p // platform.pch_per_mc] for p in range(platform.num_pch)]

    # -- interface the engine uses --------------------------------------------

    def submit(self, txn: AxiTransaction, cycle: int) -> bool:
        raise NotImplementedError

    def admits(self, txn: AxiTransaction) -> bool:
        """Whether :meth:`submit` would take ``txn`` now, without taking
        it.  A pure query: :meth:`hold` asks it when the fast engine
        tier holds a master whose last offer of ``txn`` was refused.
        Each fabric's ``submit`` refuses through this predicate and has
        no side effect when it does, so the two cannot disagree.  The
        base fabric refuses nothing."""
        return True

    def hold(self, txn: AxiTransaction) -> bool:
        """Hold ``txn``'s master if :meth:`submit` refuses ``txn`` now.

        When :meth:`admits` refuses it, arm the master's release and
        return ``True``: the event that lets ``submit`` take ``txn``
        appends the master's index to :attr:`released` once.  Until
        then the master's next step can only be refused again, so the
        fast engine tier does not step it.  Returns ``False``, arming
        nothing, when ``submit`` would take ``txn``.  Nothing but that
        master's own ``submit`` can make ``admits`` refuse again, and the
        master is not stepped meanwhile.  The base fabric refuses
        nothing, so it never holds."""
        return False

    def clear_holds(self) -> None:
        """Disarm every release :meth:`hold` armed and empty
        :attr:`released`: the fast engine tier calls it where its loop
        stops, so no hold outlives the loop that made it."""
        self.released.clear()

    def step(self, cycle: int) -> None:
        raise NotImplementedError

    def quiescent(self) -> bool:
        raise NotImplementedError

    def next_event(self, cycle: int) -> float:
        """Earliest future cycle at which :meth:`step` could have an
        observable effect, assuming no new submissions arrive.

        Called right after :meth:`step` ran at ``cycle``.  Returns
        ``math.inf`` when the fabric is provably quiescent.  The base
        implementation covers the shared model state: scheduled
        completion events and each memory controller's
        :attr:`~repro.dram.controller.MemoryController.wake`, the cycle
        before which the fabric does not step it.  Subclasses extend it
        with their interconnect state and must stay *conservative*:
        answering ``cycle + 1`` whenever in doubt is always correct.

        Two proofs let a starved fabric answer far ahead, so the engine
        jumps a dead-channel window instead of stepping it:

        * **parked offline queues** — a controller's wake has no term
          for the queue of an offline channel; only a fault event can
          revive it, and the engine loops clamp every jump to those;
        * **staged pops** — staged work for a PCH whose queue was full
          waits for that PCH's room signal, which only a scheduler pop
          from its queue or a flush fires; until one fires, no sweep can
          place it (:meth:`_ingress_event`).
        """
        nxt = math.inf
        ev = self._events
        if ev:
            nxt = math.ceil(ev[0][0])
        for mc in self.mcs:
            t = mc.wake
            if t < nxt:
                nxt = t
                if nxt <= cycle + 1:
                    break
        return nxt if nxt > cycle + 1 else cycle + 1

    def settle(self, cycle: int) -> None:
        """Bring lazily kept counters up to date through ``cycle``.

        Both engine loops call it where they stop — the end of a run and
        of a successful drain — so the state either loop leaves behind
        is the same however many cycles it stepped.  The segmented
        fabric's links count the stalls of a sleeping output when it
        wakes (:meth:`~repro.fabric.links.ArbOutput.settle`); the base
        fabric keeps no such counter.
        """

    def _ingress_event(self, cycle: int, in_transit: List[tuple]) -> float:
        """Horizon term of a heap-fed ingress: ``in_transit`` arrivals
        feeding the per-PCH staging (the MAO and ideal fabrics).

        Staged work sits only behind a full queue whose room signal is
        armed (:meth:`_retry_staged`), so the next sweep can place some
        only for a PCH in :attr:`_sweep`: its signal fired after this
        step's sweep, when its controller popped.  The horizon is then
        ``cycle + 1``, and otherwise the next arrival, which may land in
        an empty deque.  A starved fabric, every credit parked behind an
        offline channel, answers ``math.inf`` here.
        """
        if self._sweep:
            return cycle + 1
        if in_transit:
            return math.ceil(in_transit[0][0])
        return math.inf

    # -- hooks the subclasses implement ----------------------------------------

    def _on_read_data(self, txn: AxiTransaction, time: float) -> None:
        raise NotImplementedError

    def _on_write_accept(self, txn: AxiTransaction, time: float) -> None:
        raise NotImplementedError

    def _on_room(self, pch: int) -> None:
        """PCH ``pch``'s room signal fired: its staged work goes to the
        next sweep.  Only the staging sweep arms the signal here."""
        self._sweep.append(pch)

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
        stalled link.  The :class:`~repro.faults.FaultInjector` that
        calls it has already range-checked ``cut``.
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

    def _land(self, cycle: int, in_transit: List[tuple]) -> None:
        """Move the arrivals due by ``cycle`` from the ``in_transit``
        heap to their PCHs' staging deques, then sweep.  A PCH whose
        deque was empty joins the sweep."""
        staged = self._staged
        sweep = self._sweep
        while in_transit and in_transit[0][0] <= cycle:
            entry = heapq.heappop(in_transit)
            pch = entry[2].pch
            if not staged[pch]:
                sweep.append(pch)
            staged[pch].append(entry)
            self._staged_count += 1
        if sweep:
            self._retry_staged(cycle)

    def _retry_staged(self, cycle: int) -> None:
        """Hand staged arrivals to the queues with room, oldest first.

        Only the PCHs in :attr:`_sweep` can take any.  Every other PCH
        with staged work was left with it by an earlier sweep, which
        armed its room signal because its queue was full; its queue has
        not shrunk since, or the signal would have fired and put it in
        :attr:`_sweep`.  So the sweep asks :meth:`room` of those PCHs
        only, and arms the signal of each that still holds staged work.

        A scheduler queue only grows during the sweep (pops happen in
        the controllers' step, after it), so PCH ``p`` takes exactly the
        first ``room(p)`` entries of its deque this cycle.  The sweep
        takes those from each deque's left end, merges them across PCHs
        by ``(arrival, seq)`` and offers only them: every ``try_accept``
        it makes succeeds.  The merge reproduces the order in which one
        arrival-ordered deque would offer them, and that order is
        observable — write acks and degrade NACKs are heap events whose
        ties break by sequence.
        """
        mc_by_pch = self._mc_by_pch
        staged_by_pch = self._staged
        taken: List[tuple] = []
        for pch in self._sweep:
            staged = staged_by_pch[pch]
            mc = mc_by_pch[pch]
            room = mc.room(pch)
            while room > 0 and staged:
                taken.append(staged.popleft())
                room -= 1
            if staged:
                mc.arm_room(pch)
        self._sweep.clear()
        if taken:
            self._staged_count -= len(taken)
            taken.sort()
            for _, _, txn in taken:
                mc_by_pch[txn.pch].try_accept(txn, cycle)

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
