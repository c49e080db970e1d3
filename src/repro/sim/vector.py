"""The vectorized struct-of-arrays engine tier (``engine="vector"``).

Third main-loop tier next to the legacy per-cycle loop and the fast
path.  Where the fast path skips whole *cycles* only when every master
sleeps and the fabric's conservative :meth:`~repro.fabric.base.BaseFabric.next_event`
allows it, the vector tier tracks a **per-component due time** — one
slot per arbitrated output bus, per memory controller and per master —
and each stepped cycle advances only the components whose due time has
arrived.  Only the segmented fabric and the masters are specialized:
the heap-fed MAO and ideal fabrics step whole and answer through their
own ``next_event``, which already carries the starvation proofs.  The
segmented fabric's arbitration planes keep their dues in numpy arrays (vectorized ``due <= cycle`` scans pay there, with dozens
of switch outputs per plane); the MC dues and master wake times live in
plain python lists under an exactly-maintained scalar minimum cache,
which profiling showed beats numpy reductions at those plane sizes.
The struct-of-arrays adapters (:mod:`repro.dram.soa`,
:mod:`repro.fabric.soa`) carry the full numpy state image for
capture/restore and digesting.  Between stepped cycles the tier jumps
the clock to the minimum over all planes, which fires far more often
than the fast path's horizon: a
saturated controller whose scheduler has booked the DRAM bus 48 cycles
ahead is provably idle until that booking drains, and a transmitting
switch output is provably silent until its bus meter expires.

Correctness rests on the same over-approximation property the fast path
uses, applied per component:

* the legacy loop steps *every* component *every* cycle, so stepping a
  component spuriously is always bit-identical (its step is a no-op);
* the only hazards are **missed** steps.  A component may be skipped at
  a stepped cycle only when its step is provably a no-op — including
  its observable diagnostic counters (``grant_stalls``,
  ``port_stalls``), which the telemetry layer samples — and a cycle may
  be jumped over only when *nothing* observable would happen in it.

Due times are therefore conservative, and every asynchronous arrival
re-arms its consumer through a waker hook (:attr:`~repro.fabric.links.ArbOutput.waker`,
:attr:`~repro.fabric.links.Fifo.waker`,
:attr:`~repro.dram.controller.MemoryController.waker`,
:attr:`~repro.fabric.mao_fabric.MaoFabric.read_slot_waker`).  A fired
fault event invalidates everything (:meth:`_BaseStepper.resync`) —
fault handlers mutate arbitrary model state, so the caches start over;
this clamps vectorized jumps exactly as the ISSUE requires.

Where vectorization is *forbidden*: the per-cycle work inside one
component stays scalar.  FR-FCFS picks, round-robin grants and the
MAO's AXI ID lane allocation are order-sensitive — the same-ID release
chains and the ``_event_seq`` tiebreaker make *acceptance order* part
of the observable result — so components due on the same cycle are
stepped in exactly the legacy iteration order (see DESIGN.md §12).

The tier is selected via ``SimConfig(engine="vector")`` / ``--engine
vector`` / ``REPRO_ENGINE=vector`` and must produce bit-identical
:class:`~repro.sim.stats.SimReport`, trace and telemetry-final results
(enforced by the three-way grid in ``tests/test_engine_fastpath.py``
and the conformance fuzz loop).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Set

import numpy as np

from ..fabric.links import ArbOutput, Fifo
from ..fabric.mao_fabric import MaoFabric
from ..fabric.segmented import SegmentedFabric

if TYPE_CHECKING:  # pragma: no cover
    from ..axi.master import MasterPort
    from ..dram.controller import MemoryController
    from ..fabric.base import BaseFabric
    from .engine import Engine

_INF = math.inf

#: Master-plane specializations (extended sleep rules), keyed by fabric.
_MODE_GENERIC = 0
_MODE_SEG = 1
_MODE_MAO = 2


def _out_due(o: ArbOutput, cycle: int) -> float:
    """Next cycle at which ``o.step`` is not a provable no-op.

    Called right after ``o`` stepped at ``cycle``.  Three cases:

    * an in-flight delivery is due at its (exact, known) arrival cycle;
    * a pending flit with the bus *transmitting* (``busy_until >
      cycle``): the legacy step returns on the own-busy branch without
      touching any counter until the meter expires — skip to
      ``ceil(busy_until)``;
    * a pending flit with the bus free: the next step may grant or bump
      ``grant_stalls`` (shared-bus stall, destination backpressure, HOL
      blocking) — both observable — so the output is due every cycle.
    """
    d = _INF
    infl = o.in_flight
    if infl:
        d = float(math.ceil(infl[0][0]))
    if o.pending_in:
        b = o.busy_until
        g = float(math.ceil(b)) if b > cycle else cycle + 1.0
        if g < d:
            d = g
    return d


class _McDues:
    """Per-controller due times, waker-armed on acceptance.

    A controller with queued work is due every cycle while any fronted
    pseudo-channel's scheduler gate is open (a ``_pick`` attempt may
    bump ``port_stalls``), but once the scheduler has booked the DRAM
    bus ``horizon`` cycles ahead the per-cycle gate provably fails —
    with no pick and no counter — until the booking drains.  Pending
    read-data deliveries have exact due times.  Offline channels are
    parked at ``inf``; recovery arrives via fault events, which resync
    everything.

    ``due_min`` caches ``min(due)`` exactly: wakers only ever *lower*
    entries (to 0.0, lowering the cache with them), and the only raises
    happen inside :meth:`recompute`, whose callers re-derive the cache
    via :meth:`refresh_min` before relying on it.  The cache is what
    lets a stepped cycle skip the controller plane with one float
    compare instead of a 16-wide scan.
    """

    __slots__ = ("mcs", "horizon", "due", "due_min")

    def __init__(self, mcs: Sequence["MemoryController"],
                 horizon: float) -> None:
        self.mcs = list(mcs)
        self.horizon = horizon
        self.due: List[float] = [0.0] * len(self.mcs)
        self.due_min = 0.0
        for i, mc in enumerate(self.mcs):
            def waker(_mc: "MemoryController", _self: "_McDues" = self,
                      _i: int = i) -> None:
                _self.due[_i] = 0.0
                _self.due_min = 0.0
            mc.waker = waker

    def recompute(self, i: int, cycle: int) -> None:
        """Refresh controller ``i``'s due time after it stepped."""
        mc = self.mcs[i]
        d = _INF
        pend = mc._pending
        if pend:
            d = float(math.ceil(pend[0][0]))
        h = self.horizon
        queues = mc.queues
        for li, pch in enumerate(mc.pchs):
            if not queues[li]:
                continue
            fault = pch.fault
            if fault is not None and fault.offline:
                continue
            bf = pch.bus_free
            if bf >= cycle + h:
                t = math.floor(bf - h) + 1.0
                if t < d:
                    d = t
            else:
                # Gate open: the next step attempts a pick here.
                d = cycle + 1.0
                break
        self.due[i] = d

    def refresh_min(self) -> None:
        self.due_min = min(self.due)

    def resync(self) -> None:
        due = self.due
        for i in range(len(due)):
            due[i] = 0.0
        self.due_min = 0.0

    def detach(self) -> None:
        for mc in self.mcs:
            mc.waker = None


class _BaseStepper:
    """Drives one fabric cycle and reports the fabric's next due time.

    The generic tier: step the whole fabric every stepped cycle and use
    its conservative ``next_event`` — correct for any
    :class:`~repro.fabric.base.BaseFabric`, with no component skipping.
    The MAO and ideal fabrics run here, as does any user fabric (or a
    segmented subclass overriding ``step``), so the vector engine
    degrades to fast-path behavior instead of guessing at unknown
    semantics.
    """

    def __init__(self, fabric: "BaseFabric") -> None:
        self.fabric = fabric

    def step(self, cycle: int) -> None:
        self.fabric.step(cycle)

    def next_due(self, cycle: int) -> float:
        return self.fabric.next_event(cycle)

    def resync(self) -> None:
        """Invalidate every cached due time (a fault event fired)."""

    def detach(self) -> None:
        """Remove installed waker hooks."""


class _SegmentedStepper(_BaseStepper):
    """The segmented switch fabric: per-output due times with in-order
    scans.

    The two output planes (request, response) each keep a due array;
    outputs due this cycle are stepped in exactly the legacy list
    order.  A delivery *during* the scan that lands ahead of the scan
    position must be granted this same cycle (legacy steps that output
    later in its list) — the waker pushes its index onto a min-heap the
    scan merges in; a delivery behind the position waits for the next
    cycle, exactly as legacy's already-stepped output would.  MC
    landing FIFOs and completion FIFOs are drained only while non-empty
    (failed ``try_accept`` drains are mutation-free, so a blocked
    non-empty FIFO is simply due every cycle).
    """

    def __init__(self, fabric: SegmentedFabric) -> None:
        super().__init__(fabric)
        self.fab = fabric
        self.req = fabric._request_outputs
        self.resp = fabric._response_outputs
        self.req_due = np.zeros(len(self.req), dtype=np.float64)
        self.resp_due = np.zeros(len(self.resp), dtype=np.float64)
        # Exact min caches over the due planes, same discipline as
        # ``_McDues.due_min``: wakers lower, scans re-derive.
        self._mins = [0.0, 0.0]
        self.req_stamp: List[int] = [-1] * len(self.req)
        self.resp_stamp: List[int] = [-1] * len(self.resp)
        self.mcdues = _McDues(fabric.mcs, fabric.sched.horizon)
        #: PCH indices whose MC landing FIFO is non-empty.
        self.mcin_active: Set[int] = set()
        #: Master indices whose completion FIFO received flits this cycle.
        self.comp_dirty: Set[int] = set()
        # Scan state the wakers consult: which plane is scanning (0 =
        # none) and how far it has advanced.
        self._phase = 0
        self._pos = -1
        self._extras: List[int] = []
        for plane, outs in ((1, self.req), (2, self.resp)):
            due = self.req_due if plane == 1 else self.resp_due
            for j, o in enumerate(outs):
                o.waker = self._make_out_waker(plane, j, due)
        for p, fifo in enumerate(fabric.mc_in):
            def mcin_waker(_act: Set[int] = self.mcin_active,
                           _p: int = p) -> None:
                _act.add(_p)
            fifo.waker = mcin_waker
        for m, fifo in enumerate(fabric.completion):
            def comp_waker(_dirty: Set[int] = self.comp_dirty,
                           _m: int = m) -> None:
                _dirty.add(_m)
            fifo.waker = comp_waker

    def _make_out_waker(self, plane: int, j: int,
                        due: Any) -> Callable[[ArbOutput], None]:
        def waker(_o: ArbOutput, _self: "_SegmentedStepper" = self,
                  _plane: int = plane, _j: int = j,
                  _due: Any = due) -> None:
            _due[_j] = 0.0
            _self._mins[_plane - 1] = 0.0
            if _self._phase == _plane and _j > _self._pos:
                heapq.heappush(_self._extras, _j)
        return waker

    def _scan(self, outs: List[ArbOutput], due: Any, stamp: List[int],
              cycle: int) -> None:
        idxs = np.nonzero(due <= cycle)[0].tolist()
        extras = self._extras
        k = 0
        n = len(idxs)
        self._pos = -1
        while True:
            if k < n:
                j = idxs[k]
                if extras and extras[0] < j:
                    j = heapq.heappop(extras)
                else:
                    k += 1
            elif extras:
                j = heapq.heappop(extras)
            else:
                break
            if stamp[j] == cycle:
                continue  # delivered via both the due array and a waker
            stamp[j] = cycle
            self._pos = j
            o = outs[j]
            o.step(cycle)
            due[j] = _out_due(o, cycle)
        self._pos = -1

    def step(self, cycle: int) -> None:
        fab = self.fab
        mins = self._mins
        if mins[0] <= cycle:
            self._phase = 1
            self._scan(self.req, self.req_due, self.req_stamp, cycle)
            self._phase = 0
            mins[0] = float(self.req_due.min())
        act = self.mcin_active
        if act:
            mc_by_pch = fab._mc_by_pch
            mc_in = fab.mc_in
            for p in sorted(act):
                fifo = mc_in[p]
                items = fifo.items
                mc = mc_by_pch[p]
                while items and mc.try_accept(items[0].txn, cycle):
                    fifo.popleft()
                if not items:
                    act.discard(p)
        mcdues = self.mcdues
        if mcdues.due_min <= cycle:
            mcs = mcdues.mcs
            for i, d in enumerate(mcdues.due):
                if d <= cycle:
                    mcs[i].step(cycle)
                    mcdues.recompute(i, cycle)
            mcdues.refresh_min()
        if mins[1] <= cycle:
            self._phase = 2
            self._scan(self.resp, self.resp_due, self.resp_stamp, cycle)
            self._phase = 0
            mins[1] = float(self.resp_due.min())
        dirty = self.comp_dirty
        if dirty:
            completion = fab.completion
            completions = fab.completions
            for m in sorted(dirty):
                fifo = completion[m]
                items = fifo.items
                while items:
                    flit = fifo.popleft()
                    flit.txn.complete_cycle = cycle
                    completions.append((flit.txn, float(cycle)))
            dirty.clear()
        ev = fab._events
        if ev and ev[0][0] <= cycle:
            fab._pop_due_events(cycle)

    def next_due(self, cycle: int) -> float:
        if self.mcin_active:
            return cycle + 1.0
        mins = self._mins
        d = mins[0]
        if mins[1] < d:
            d = mins[1]
        t = self.mcdues.due_min
        if t < d:
            d = t
        ev = self.fab._events
        if ev:
            t = float(math.ceil(ev[0][0]))
            if t < d:
                d = t
        return d if d > cycle + 1 else cycle + 1.0

    def resync(self) -> None:
        self.req_due[:] = 0.0
        self.resp_due[:] = 0.0
        self._mins[0] = 0.0
        self._mins[1] = 0.0
        self.mcdues.resync()
        self.mcin_active.clear()
        self.mcin_active.update(
            p for p, f in enumerate(self.fab.mc_in) if f.items)

    def detach(self) -> None:
        for o in self.req:
            o.waker = None
        for o in self.resp:
            o.waker = None
        for fifo in self.fab.mc_in:
            fifo.waker = None
        for fifo in self.fab.completion:
            fifo.waker = None
        self.mcdues.detach()


def make_stepper(fabric: "BaseFabric") -> _BaseStepper:
    """Pick the stepper tier for ``fabric``.

    The segmented stepper re-implements the fabric's ``step`` body, so
    it is only safe when the fabric's *step semantics* are exactly the
    shipped ones — gated on method identity, not ``isinstance`` alone.
    Everything else, the heap-fed MAO and ideal fabrics included, takes
    the generic tier: their own ``next_event`` already carries the
    starvation proofs (parked offline queues, staged pops), so a
    per-component copy of them here would only duplicate it.
    """
    t = type(fabric)
    if isinstance(fabric, SegmentedFabric) and t.step is SegmentedFabric.step:
        return _SegmentedStepper(fabric)
    return _BaseStepper(fabric)


def _master_mode(fabric: "BaseFabric") -> int:
    """Which extended master sleep rules apply (see ``run_vector``)."""
    t = type(fabric)
    if isinstance(fabric, SegmentedFabric) and t.submit is SegmentedFabric.submit:
        return _MODE_SEG
    if (isinstance(fabric, MaoFabric)
            and t.submit is MaoFabric.submit
            and t._on_read_data is MaoFabric._on_read_data
            and t._on_nack is MaoFabric._on_nack):
        return _MODE_MAO
    return _MODE_GENERIC


def run_vector(eng: "Engine") -> None:
    """The vector main loop; bit-identical to ``Engine._run_legacy``.

    Mirrors the fast path's per-cycle phase order exactly, with three
    upgrades: per-component due-driven fabric stepping (the stepper
    tiers above), numpy wake/due arrays with vectorized ``<= cycle``
    scans, and two extended master sleep states beyond
    :meth:`~repro.axi.master.MasterPort.wake_after`:

    * **segmented ingress block** — a master with a staged transaction
      and a full ingress FIFO provably no-ops (the refused submit
      leaves both the retry loop and the fresh loop unchanged) until
      the FIFO drains; re-checked after every stepped cycle, since
      ingress pops only happen inside stepped cycles;
    * **MAO lane saturation** — a master whose staged *read* faces
      saturated AXI ID lanes, with an empty retry heap (a due write
      retry would be accepted — a mutation), sleeps until
      :attr:`~repro.fabric.mao_fabric.MaoFabric.read_slot_waker` fires.

    Masters are always safe to step spuriously; both rules only ever
    *extend* a sleep that a completion, a waker or a fault resync can
    cut short.  Any fired fault event wakes everything and resyncs the
    stepper — fault handlers mutate arbitrary state, so no cached due
    time survives them.
    """
    fabric = eng.fabric
    masters = eng.masters
    by_index = {mp.index: mp for mp in masters}
    slot = {mp.index: i for i, mp in enumerate(masters)}
    stats = eng.stats
    warmup = eng.config.warmup
    cycles = eng.config.cycles
    injector = eng.injector
    dog = eng._txn_dog
    pdog = eng._progress_dog
    tele = eng.telemetry
    stepper = make_stepper(fabric)
    mode = _master_mode(fabric)
    n = len(masters)
    wake: List[float] = [0.0] * n
    # Exact cache of ``min(wake)``: everything outside the scan loop
    # only ever *lowers* entries (completions, wakers, fault resyncs),
    # and the scan — the one place entries rise — re-derives it.
    wake_min = 0.0 if n else _INF

    if mode == _MODE_MAO:
        mao: Any = fabric

        def read_slot_waker(m: int, _wake: List[float] = wake,
                            _slot: Any = slot) -> None:
            nonlocal wake_min
            i = _slot.get(m)
            if i is not None:
                _wake[i] = 0.0
                wake_min = 0.0
        mao.read_slot_waker = read_slot_waker
        max_reads: int = mao._max_reads
        rif: List[int] = mao._reads_in_flight
    seg_ingress: List[Fifo] = (
        fabric.ingress if mode == _MODE_SEG else [])  # type: ignore[attr-defined]
    blocked: List[int] = []
    is_blocked = [False] * n

    snapshotted = False
    stepped = 0
    cycle = 0
    try:
        while cycle < cycles:
            eng.cycle = cycle
            stepped += 1
            if injector is not None:
                fired = injector.next_fire(cycle) <= cycle
                injector.fire_due(cycle)
                if fired:
                    # Fault handlers mutate arbitrary model state
                    # (parked banks, offline channels, frozen links,
                    # remaps): wake everything and drop every cached
                    # due time.  Spurious steps are no-ops, so this is
                    # always safe — and rare.
                    for i in range(n):
                        wake[i] = 0.0
                        is_blocked[i] = False
                    wake_min = 0.0 if n else _INF
                    blocked.clear()
                    stepper.resync()
            if not snapshotted and cycle >= warmup:
                stats.snapshot_dram(fabric.pchs)
                snapshotted = True
            if wake_min <= cycle:
                new_min = _INF
                for i in range(n):
                    w = wake[i]
                    if w <= cycle:
                        mp = masters[i]
                        mp.step(cycle, fabric)
                        w = mp.wake_after(cycle)
                        if w == cycle + 1:
                            staged = mp._staged
                            if staged is not None:
                                if mode == _MODE_SEG:
                                    if seg_ingress[mp.index].full:
                                        w = _INF
                                        if not is_blocked[i]:
                                            is_blocked[i] = True
                                            blocked.append(i)
                                elif (mode == _MODE_MAO
                                        and not staged.is_write
                                        and not mp._retry
                                        and rif[mp.index] >= max_reads):
                                    w = _INF
                        wake[i] = w
                    if w < new_min:
                        new_min = w
                wake_min = new_min
            stepper.step(cycle)
            done = fabric.completions
            if done:
                fabric.completions = []
                for txn, _time in done:
                    i = slot[txn.master]
                    if wake[i] > cycle + 1:
                        wake[i] = cycle + 1
                if wake_min > cycle + 1:
                    wake_min = cycle + 1
                eng._process_completions(done, cycle, by_index)
            if dog is not None:
                dog.check(cycle)
            if pdog is not None and cycle >= pdog.deadline():
                pdog.check(cycle, sum(mp.outstanding for mp in masters))
            if tele is not None and cycle >= tele.next_sample:
                tele.sample(cycle)
            if blocked:
                # Ingress FIFOs only drain inside stepped cycles, so
                # re-checking blocked masters here (and after fault
                # resyncs) catches every 'full -> space' transition.
                still: List[int] = []
                for i in blocked:
                    mp = masters[i]
                    if wake[i] != _INF or mp._staged is None:
                        is_blocked[i] = False
                    elif seg_ingress[mp.index].full:
                        still.append(i)
                    else:
                        is_blocked[i] = False
                        wake[i] = cycle + 1
                        if wake_min > cycle + 1:
                            wake_min = cycle + 1
                blocked = still
            nxt = cycle + 1
            horizon = wake_min
            if horizon > nxt:
                target = horizon
                if not snapshotted and warmup > cycle:
                    if warmup < target:
                        target = float(warmup)
                if target > nxt:
                    fabric_next = stepper.next_due(cycle)
                    if fabric_next < target:
                        target = fabric_next
                # Clamp jumps to the fault and watchdog timeline so the
                # skipped stretches contain no observable events — the
                # invariant that keeps all engine tiers bit-identical
                # under fault injection.
                if target > nxt and injector is not None:
                    nf = injector.next_fire(cycle)
                    if nf < target:
                        target = nf
                if target > nxt and dog is not None:
                    d = dog.next_deadline()
                    if d < target:
                        target = d
                if (target > nxt and pdog is not None
                        and any(mp.outstanding for mp in masters)):
                    d = float(pdog.deadline())
                    if d < target:
                        target = d
                if target > nxt:
                    nxt = int(min(target, cycles))
                    if tele is not None:
                        # Event-horizon hook: fill the grid samples
                        # inside the jump from the pre-jump state.
                        tele.note_jump(cycle, nxt)
            cycle = nxt
    finally:
        stepper.detach()
        if mode == _MODE_MAO:
            mao.read_slot_waker = None
    if not snapshotted:
        stats.snapshot_dram(fabric.pchs)  # pragma: no cover
    # Match the legacy loop's final clock so drain() proceeds
    # identically after a run whose trailing quiet cycles were skipped.
    eng.cycle = cycles - 1
    eng.stepped_cycles = stepped
