"""Zero-contention reference fabric.

Used for sanity checks and upper-bound comparisons: requests reach their
memory controller after a single cycle, responses return after a single
cycle, and no interconnect resource is ever shared.  DRAM-side effects
(rows, turnaround, refresh, port-rate gates) still apply, so the
ideal fabric exposes the *memory* limits in isolation from the *fabric*
limits — the separation the paper's analysis methodology relies on.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, List, Optional

from ..axi.transaction import AxiTransaction
from ..core.address_map import AddressMap, ContiguousMap
from ..dram.controller import SchedulerConfig
from ..params import HbmPlatform, DEFAULT_PLATFORM
from .base import BaseFabric


class IdealFabric(BaseFabric):
    """Contention-free interconnect with unit latency."""

    name = "ideal"

    def __init__(
        self,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        address_map: Optional[AddressMap] = None,
        sched: Optional[SchedulerConfig] = None,
    ) -> None:
        super().__init__(platform, address_map or ContiguousMap(platform), sched)
        self._in_transit: List[tuple] = []
        self._seq = 0
        #: Arrivals that found their MC queue full, per PCH (see
        #: :attr:`BaseFabric._staged`).
        self._staged: List[Deque[tuple]] = [
            deque() for _ in range(platform.num_pch)]
        self._staged_count = 0
        #: Fault hook: ingress frozen until this cycle (no lateral
        #: structure exists to stall selectively).
        self._stall_until: float = 0.0

    def submit(self, txn: AxiTransaction, cycle: int) -> bool:
        self._resolve(txn)
        txn.issue_cycle = cycle
        self._seq += 1
        heapq.heappush(self._in_transit, (cycle + 1, self._seq, txn))
        return True

    def step(self, cycle: int) -> None:
        if cycle >= self._stall_until:
            self._land(cycle, self._in_transit)
        for mc in self.mcs:
            if mc.wake <= cycle:
                mc.step(cycle)
        self._pop_due_events(cycle)

    def apply_link_stall(self, until: float, cut: Optional[int] = None) -> None:
        if until > self._stall_until:
            self._stall_until = until

    def quiescent(self) -> bool:
        return (not self._in_transit and not self._staged_count
                and self._mcs_quiescent())

    def next_event(self, cycle: int) -> float:
        nxt = super().next_event(cycle)
        if nxt <= cycle + 1:
            return nxt
        if self._stall_until > cycle:
            # The stall froze the whole ingress (transit drain and staged
            # retries), so no sweep ran this cycle: the first live sweep,
            # against queues that may have drained meanwhile, is the
            # earliest acceptance point.
            t = (math.ceil(self._stall_until)
                 if self._staged_count or self._in_transit else math.inf)
        else:
            t = self._ingress_event(cycle, self._in_transit)
        if t < nxt:
            nxt = t
        return nxt if nxt > cycle + 1 else cycle + 1

    def telemetry_probes(self) -> list:
        """Base DRAM/controller probes plus the transit/staging gauges
        (the ideal fabric has no contended interconnect to probe)."""
        from ..telemetry.metrics import GAUGE, Probe
        probes = super().telemetry_probes()
        probes.append(Probe(
            "ideal.in_transit", GAUGE,
            lambda self=self: len(self._in_transit), "fabric"))
        probes.append(Probe(
            "ideal.staged", GAUGE, lambda self=self: self._staged_count,
            "fabric"))
        return probes

    def _on_read_data(self, txn: AxiTransaction, time: float) -> None:
        self._schedule_completion(txn, time + 1)

    def _on_write_accept(self, txn: AxiTransaction, time: float) -> None:
        self._schedule_completion(txn, time + 1)
