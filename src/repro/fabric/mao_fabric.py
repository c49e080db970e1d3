"""Cycle model of the Memory Access Optimizer fabric (Sec. IV-B).

The MAO replaces the lateral switch chain with a hierarchical distribution
network.  Architecturally that network is *non-blocking*: any master can
reach any pseudo-channel without sharing a bus with unrelated traffic, so
the only remaining contention points are

* each PCH's acceptance port (one 32 B beat per fabric cycle),
* each master's response port (paced at the accelerator clock),
* the DRAM itself (rows, turnarounds, refresh).

The model therefore represents the network as pipeline latency plus
per-port rate meters instead of explicit switches — the defining property
of the architecture, not a simplification of convenience.  Address
interleaving and reorder buffers are the other two MAO adaptions; both
live here (the interleave map is applied at submit, the reorder release
rule on read completion).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional

from ..axi.transaction import AxiTransaction
from ..core.address_map import AddressMap, ContiguousMap, InterleavedMap
from ..core.mao import MaoConfig
from ..core.reorder import ReorderBuffer
from ..dram.controller import SchedulerConfig
from ..params import HbmPlatform, DEFAULT_PLATFORM
from .base import BaseFabric

#: Fixed registering overhead of the MAO ingress/egress, fabric cycles.
MAO_BASE_LATENCY = 6

#: Write-response return latency inside the MAO, fabric cycles.
MAO_B_LATENCY = 3

#: Outstanding read bursts one AXI ID lane sustains before in-order
#: response delivery stalls further issue (Fig. 6 reorder sweep).
READS_PER_LANE = 2


class MaoFabric(BaseFabric):
    """The paper's MAO hierarchical interconnect."""

    name = "mao"

    #: Reads are tagged with reorder-buffer lane IDs and the release rule
    #: keeps each lane's responses in issue order whenever same-lane
    #: reads are never concurrently in flight.  Lane allocation prefers a
    #: *free* lane (like hardware AXI ID tag allocation), so with
    #: reorder_depth >= outstanding no two in-DRAM reads ever share a
    #: lane and the guarantee is unconditional; with fewer lanes than
    #: credits, saturated lanes are shared and same-lane inversions can
    #: occur (the sanitizer counts them instead of raising there).
    same_id_ordering = True

    def __init__(
        self,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        config: Optional[MaoConfig] = None,
        sched: Optional[SchedulerConfig] = None,
    ) -> None:
        self.config = config or MaoConfig()
        if self.config.interleave_enabled:
            address_map: AddressMap = InterleavedMap(
                platform, self.config.interleave_granularity)
        else:
            address_map = ContiguousMap(platform)
        sched = sched or SchedulerConfig()
        # The MAO's reorder depth is the number of independent AXI IDs the
        # memory controllers may reorder across (Fig. 6).
        sched = SchedulerConfig(
            window=sched.window,
            reorder_depth=self.config.reorder_depth,
            queue_capacity=sched.queue_capacity,
            horizon=sched.horizon,
            hit_bonus=sched.hit_bonus,
            dir_bonus=sched.dir_bonus,
        )
        super().__init__(platform, address_map, sched)
        ft = platform.fabric
        #: One-way pipeline latency of the distribution network.
        self.one_way_latency = (MAO_BASE_LATENCY
                                + self.config.stages * ft.mao_stage_latency)
        #: Per-PCH request acceptance meter (1 beat / fabric cycle).
        self._accept_free = [0.0] * platform.num_pch
        #: Per-master response port meter (accelerator-clock pacing).
        self._egress_free = [0.0] * platform.num_masters
        #: Per-master reorder buffers (release-rule view).
        self.reorder = [ReorderBuffer(self.config.reorder_depth)
                        for _ in range(platform.num_masters)]
        #: In-flight requests: (arrival_cycle, seq, txn).
        self._in_transit: List[tuple] = []
        self._seq = 0
        #: Arrivals that found their MC queue full, per PCH (see
        #: :attr:`BaseFabric._staged`); only the per-PCH queues push back.
        self._staged: List[Deque[tuple]] = [
            deque() for _ in range(platform.num_pch)]
        self._staged_count = 0
        #: Reads in flight per master; bounded by the reorder depth (each
        #: AXI ID lane sustains a couple of outstanding bursts before
        #: in-order delivery stalls the stream).
        self._reads_in_flight = [0] * platform.num_masters
        self._max_reads = max(1, self.config.reorder_depth) * READS_PER_LANE
        #: Reads holding each AXI ID lane, per master — occupied from
        #: submit until the data (or NACK) leaves the memory controller.
        #: The release rule only orders a lane correctly when its
        #: ``release_time`` calls arrive in issue order, which holds iff
        #: the lane never has two reads in the DRAM at once.
        self._lane_users = [[0] * self.config.reorder_depth
                            for _ in range(platform.num_masters)]
        #: Per master: whether a held read waits for a free lane slot
        #: (:meth:`hold`).
        self._held = [False] * platform.num_masters

    # -- engine interface --------------------------------------------------------

    def admits(self, txn: AxiTransaction) -> bool:
        """Writes always; a read while its master has a free ID-lane
        slot.  With every lane saturated, a master with few independent
        AXI IDs cannot keep more reads in flight (Fig. 6)."""
        return (not txn.is_read
                or self._reads_in_flight[txn.master] < self._max_reads)

    def hold(self, txn: AxiTransaction) -> bool:
        """A refused read waits for a lane slot of its master: the read
        data or NACK that frees one releases the master
        (:meth:`_free_lane_slot`).  A NACK from a flush frees it inside
        the fault injector, before the cycle's masters step."""
        if self.admits(txn):
            return False
        self._held[txn.master] = True
        return True

    def clear_holds(self) -> None:
        super().clear_holds()
        self._held = [False] * len(self._held)

    def submit(self, txn: AxiTransaction, cycle: int) -> bool:
        if not self.admits(txn):
            return False
        self._resolve(txn)
        txn.issue_cycle = cycle
        if txn.is_read:
            self._reads_in_flight[txn.master] += 1
            txn.axi_id = self._alloc_lane(txn.master)
        weight = txn.burst_len if txn.is_write else 1
        arrival = cycle + self.one_way_latency + weight
        # Serialize at the destination PCH's acceptance port.
        free = self._accept_free[txn.pch]
        if free > arrival:
            arrival = free
        self._accept_free[txn.pch] = arrival + weight
        self._seq += 1
        heapq.heappush(self._in_transit, (arrival, self._seq, txn))
        return True

    def _alloc_lane(self, master: int) -> int:
        """Pick the AXI ID lane of a fresh read.

        The round-robin pointer advances per read (the analytical model's
        allocation order); its lane is used when free.  A busy round-robin
        lane means an older read is still in the DRAM there — handing it
        a second read would let out-of-order DRAM completions invert the
        lane's release chain — so the next free lane is taken instead.
        Only when *every* lane is busy (reorder_depth < outstanding) is
        the lane shared: the documented relaxed regime.
        """
        depth = self.config.reorder_depth
        lane = self.reorder[master].issue() % depth
        users = self._lane_users[master]
        if users[lane]:
            for off in range(1, depth):
                cand = (lane + off) % depth
                if not users[cand]:
                    lane = cand
                    break
        users[lane] += 1
        return lane

    def step(self, cycle: int) -> None:
        # Hand arrivals to the per-PCH queues with room, oldest first
        # (the queues are the only backpressure boundary).
        self._land(cycle, self._in_transit)
        for mc in self.mcs:
            if mc.wake <= cycle:
                mc.step(cycle)
        self._pop_due_events(cycle)

    def quiescent(self) -> bool:
        return (not self._in_transit and not self._staged_count
                and self._mcs_quiescent())

    def next_event(self, cycle: int) -> float:
        nxt = super().next_event(cycle)
        if nxt <= cycle + 1:
            return nxt
        t = self._ingress_event(cycle, self._in_transit)
        if t < nxt:
            nxt = t
        return nxt if nxt > cycle + 1 else cycle + 1

    # -- telemetry ---------------------------------------------------------------

    def telemetry_probes(self) -> list:
        """Base DRAM/controller probes plus the MAO's reorder state.

        The MAO network itself is non-blocking, so there are no link
        probes; what *can* bind is the reorder machinery — per-master
        reads in flight against the AXI ID lane ceiling — and the
        arrival-side staging when MC queues push back.
        """
        from ..telemetry.metrics import GAUGE, Probe
        probes = super().telemetry_probes()
        rif = self._reads_in_flight
        for m in range(self.platform.num_masters):
            probes.append(Probe(
                f"mao.master[{m}].reads_in_flight", GAUGE,
                lambda rif=rif, m=m: rif[m], "fabric"))
        probes.append(Probe(
            "mao.staged", GAUGE, lambda self=self: self._staged_count,
            "fabric"))
        probes.append(Probe(
            "mao.in_transit", GAUGE,
            lambda self=self: len(self._in_transit), "fabric"))
        return probes

    # -- fault hooks ---------------------------------------------------------------

    def apply_link_stall(self, until: float, cut: Optional[int] = None) -> None:
        """Freeze the distribution network's PCH-side acceptance ports.

        The MAO has no lateral cuts; a stalled switch stage means no
        request reaches any pseudo-channel until ``until`` (in-flight
        responses still deliver — they already left the stalled stage).
        """
        acc = self._accept_free
        for p in range(len(acc)):
            if acc[p] < until:
                acc[p] = until

    def _on_nack(self, txn: AxiTransaction, time: float) -> None:
        # The read's resources were claimed at submit: give back its
        # in-flight slot and retire its AXI ID lane turn (the NACK
        # response occupies the slot its data would have), otherwise a
        # flushed channel leaks read credits and the master starves.
        if txn.is_read:
            self._free_lane_slot(txn)
            self.reorder[txn.master].release_time(txn.axi_id, time + 1.0)
        super()._on_nack(txn, time)

    # -- controller callbacks ------------------------------------------------------

    def _free_lane_slot(self, txn: AxiTransaction) -> None:
        """A read leaves the memory controller, as data or as a NACK:
        give back its in-flight slot and its AXI ID lane, and release
        its master if it is held on a refused read (:meth:`hold`)."""
        m = txn.master
        self._reads_in_flight[m] -= 1
        self._lane_users[m][txn.axi_id] -= 1
        if self._held[m]:
            self._held[m] = False
            self.released.append(m)

    def _on_read_data(self, txn: AxiTransaction, time: float) -> None:
        self._free_lane_slot(txn)
        m = txn.master
        ready = time + self.one_way_latency
        # Pace the master's response port at the accelerator clock.
        free = self._egress_free[m]
        if free > ready:
            ready = free
        done = ready + txn.burst_len / self.platform.clock_ratio
        self._egress_free[m] = done
        # Reorder-buffer release rule: same AXI ID lanes stay in order.
        release = self.reorder[m].release_time(txn.axi_id, done)
        self._schedule_completion(txn, release)

    def _on_write_accept(self, txn: AxiTransaction, time: float) -> None:
        self._schedule_completion(txn, time + MAO_B_LATENCY)
