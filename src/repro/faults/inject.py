"""Binding a :class:`~repro.faults.plan.FaultPlan` to a live fabric.

The :class:`FaultInjector` is the engine-side half of the fault model: it
walks the plan's time-sorted events and mutates fabric state at exactly
the scheduled cycles.  The engine calls :meth:`FaultInjector.fire_due` at
the top of every simulated cycle and clamps its fast-path clock jumps to
:meth:`FaultInjector.next_fire`, so the legacy per-cycle loop and the
batched fast path apply every fault at the same cycle — a precondition
for the bit-identical-reports invariant the differential tests enforce.

Effects per event kind:

* ``PCH_OFFLINE`` — mark the channel's fault state offline (the memory
  controller stops scheduling its queue).  Under the plan's degradation
  policy, additionally install the survivor remap table on the fabric,
  switch the channel's controller to NACK-on-arrival, and bounce the
  already-queued requests back to their masters for retry.
* ``PCH_SLOW`` — open a timing window in which the channel's transfers
  take ``factor`` times longer, and park its banks (rows closed, no
  activates) at the onset — the refresh-storm signature.
* ``LINK_STALL`` — freeze part of the interconnect via the fabric's
  ``apply_link_stall`` hook (lateral cut, switch stage, or ingress,
  depending on the topology).
* ``DATA_CORRUPT`` — open a corruption window on the target channel(s);
  the channel classifies every read beat through the shared
  :class:`~repro.faults.ecc.SecdedModel` while the window is active.
"""

from __future__ import annotations

import math
from typing import List

from ..dram.pch import PchFaultState
from ..errors import ConfigError
from .degrade import build_remap
from .ecc import SecdedModel
from .plan import FaultEvent, FaultKind, FaultPlan


class FaultInjector:
    """Applies a fault plan's events to a fabric as simulation time passes."""

    def __init__(self, plan: FaultPlan, fabric) -> None:
        # A plan is data and cannot see the platform, so its targets are
        # range-checked here, where it binds to one.
        platform = fabric.platform
        num_cuts = platform.num_switches - 1
        for ev in plan.events:
            if ev.pch is not None and not 0 <= ev.pch < platform.num_pch:
                raise ConfigError(
                    f"{ev.kind.value} targets pch {ev.pch}, outside "
                    f"0..{platform.num_pch - 1}")
            if ev.cut is not None and not 0 <= ev.cut < num_cuts:
                raise ConfigError(
                    f"{ev.kind.value} targets lateral cut {ev.cut}, "
                    f"outside 0..{num_cuts - 1}")
        # Degradation remaps a dead channel onto a survivor, so a plan
        # that takes every (range-checked) channel offline cannot run.
        if plan.degrade and len(set(plan.offline_pchs)) == platform.num_pch:
            raise ConfigError("cannot degrade: the plan takes every "
                              "pseudo-channel offline")
        self.plan = plan
        self.fabric = fabric
        self._events = plan.events  # time-sorted by FaultPlan
        self._next = 0
        #: Shared SECDED classifier (one per run; seeded by the plan).
        self.ecc = SecdedModel(seed=plan.seed,
                               dbit_fraction=plan.dbit_fraction)
        #: PCH indices taken offline so far, in failure order.
        self.dead: List[int] = []

    # -- engine interface ----------------------------------------------------

    def next_fire(self, cycle: int) -> float:
        """Cycle of the next unapplied event, ``inf`` when exhausted.

        The fast path clamps its clock jumps here so fault cycles are
        always visited (never jumped over).
        """
        i = self._next
        return float(self._events[i].at) if i < len(self._events) else math.inf

    def fire_due(self, cycle: int) -> None:
        """Apply every event scheduled at or before ``cycle``."""
        events = self._events
        n = len(events)
        i = self._next
        while i < n and events[i].at <= cycle:
            self._apply(events[i], cycle)
            i += 1
        self._next = i

    # -- event application ---------------------------------------------------

    def _fault_state(self, pch_index: int) -> PchFaultState:
        pch = self.fabric.pchs[pch_index]
        if pch.fault is None:
            pch.fault = PchFaultState()
        return pch.fault

    def _apply(self, ev: FaultEvent, cycle: int) -> None:
        kind = ev.kind
        if kind is FaultKind.PCH_OFFLINE:
            self._take_offline(ev.pch, cycle)
        elif kind is FaultKind.PCH_SLOW:
            state = self._fault_state(ev.pch)
            until = float(cycle + ev.duration)
            if until > state.slow_until:
                state.slow_until = until
                state.slow_factor = ev.factor
            # Refresh storm onset: rows close and activates block briefly,
            # so the first accesses into the window pay cold-bank misses.
            self.fabric.pchs[ev.pch].banks.park(float(cycle))
        elif kind is FaultKind.LINK_STALL:
            self.fabric.apply_link_stall(float(cycle + ev.duration), ev.cut)
        elif kind is FaultKind.DATA_CORRUPT:
            targets = ([ev.pch] if ev.pch is not None
                       else range(self.fabric.platform.num_pch))
            until = float(cycle + ev.duration)
            for p in targets:
                state = self._fault_state(p)
                if until > state.corrupt_until:
                    state.corrupt_until = until
                state.corrupt_rate = ev.rate
                state.ecc = self.ecc

    def _take_offline(self, pch_index: int, cycle: int) -> None:
        state = self._fault_state(pch_index)
        if state.offline:
            return
        state.offline = True
        self.dead.append(pch_index)
        fabric = self.fabric
        if not self.plan.degrade:
            # No recovery policy: requests keep queueing for the dead
            # channel and the watchdogs diagnose the loss.
            return
        fabric.fault_remap = build_remap(fabric.platform.num_pch, self.dead)
        mc = fabric._mc_by_pch[pch_index]
        mc.degrade_offline = True
        # Bounce the channel's queued reads back to their masters; their
        # retries re-resolve through the remap table onto survivors.
        # Queued writes are *not* bounced: their posted B response was
        # already generated at accept time, so the master considers them
        # complete — the classic acknowledged-but-lost bufferable-write
        # hazard, which only the data-side model could surface.
        for txn in mc.flush_offline(pch_index, cycle):
            if txn.is_read:
                fabric._on_nack(txn, float(cycle))
