"""Cycle model of the Xilinx-style segmented switch network (Fig. 1).

Eight local crossbar switches are chained by two lateral buses per
direction.  Requests travel master -> (laterals) -> MC; read data travels
back over a mirrored response network; write responses are light-weight
B handshakes delivered point-to-point.  All buses are
:class:`~repro.fabric.links.ArbOutput` instances with round-robin
arbitration, dead cycles on grant changes, and input FIFOs that exhibit
head-of-line blocking — the three contention mechanisms Sec. IV-A
identifies in the vendor fabric.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..axi.transaction import AxiTransaction
from ..core.address_map import AddressMap, ContiguousMap
from ..dram.controller import SchedulerConfig
from ..errors import ConfigError
from ..params import HbmPlatform, DEFAULT_PLATFORM
from .base import BaseFabric
from .links import ArbOutput, Fifo, Flit, SharedBus, REQUEST, RESPONSE
from .topology import LEFT, RIGHT, SegmentedTopology

#: Extra pipeline cycles of the write-response (B channel) return path.
B_RESPONSE_LATENCY = 3

#: Depth of a master's ingress FIFO (the master self-throttles via its
#: outstanding-transaction credits, so this only needs to cover jitter).
INGRESS_CAPACITY = 8

#: Depth of the lateral-bus hop FIFOs.
LATERAL_CAPACITY = 4

#: Depth of each PCH's read-data landing FIFO.
RESPONSE_CAPACITY = 16

#: Landing FIFO in front of each memory controller.
MC_IN_CAPACITY = 16

#: Completion FIFOs are drained every cycle; generous to avoid artificial
#: stalls of the final egress hop.
COMPLETION_CAPACITY = 64


class SegmentedFabric(BaseFabric):
    """The vendor-style segmented switch network ("XLNX" in the paper)."""

    name = "xlnx"

    def __init__(
        self,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        address_map: Optional[AddressMap] = None,
        sched: Optional[SchedulerConfig] = None,
    ) -> None:
        # Each PCH's read-data landing FIFO.  The controllers get them as
        # data: a read is only scheduled while its data has room here.
        resp_fifo = [Fifo(RESPONSE_CAPACITY, f"resp[{p}]")
                     for p in range(platform.num_pch)]
        super().__init__(platform, address_map or ContiguousMap(platform),
                         sched, response_fifos=resp_fifo)
        self.resp_fifo = resp_fifo
        self.topology = SegmentedTopology(platform)
        ft = platform.fabric
        ns = platform.num_switches
        mps = platform.masters_per_switch
        lat = platform.lateral_buses
        ratio = platform.clock_ratio

        # --- FIFOs ---
        self.ingress = [Fifo(INGRESS_CAPACITY, f"ingress[{m}]")
                        for m in range(platform.num_masters)]
        self.completion = [Fifo(COMPLETION_CAPACITY, f"completion[{m}]")
                           for m in range(platform.num_masters)]
        # One landing FIFO per PCH: every pseudo-channel is its own AXI
        # port on the memory-controller side.
        self.mc_in = [Fifo(MC_IN_CAPACITY, f"mc_in[{i}]")
                      for i in range(platform.num_pch)]
        # Lateral hop FIFOs: [switch][side][parity].  ``side`` is the side
        # of *this* switch the bus arrives on: LEFT = from switch s-1.
        self.lat_req_in = [
            [[Fifo(LATERAL_CAPACITY, f"lreq[{s}][{side}][{k}]")
              for k in range(lat)] for side in (LEFT, RIGHT)]
            for s in range(ns)]
        self.lat_resp_in = [
            [[Fifo(LATERAL_CAPACITY, f"lrsp[{s}][{side}][{k}]")
              for k in range(lat)] for side in (LEFT, RIGHT)]
            for s in range(ns)]

        # --- Input groups per switch ---
        req_inputs: List[List[Fifo]] = []
        resp_inputs: List[List[Fifo]] = []
        for s in range(ns):
            masters = [self.ingress[s * mps + i] for i in range(mps)]
            lateral = self.lat_req_in[s][LEFT] + self.lat_req_in[s][RIGHT]
            req_inputs.append(masters + lateral)
            pchs = [self.resp_fifo[s * platform.pch_per_switch + i]
                    for i in range(platform.pch_per_switch)]
            lateral_r = self.lat_resp_in[s][LEFT] + self.lat_resp_in[s][RIGHT]
            resp_inputs.append(pchs + lateral_r)

        dead = ft.dead_cycles
        # One shared-capacity meter per physical lateral AXI bus: the
        # rightward bus over cut (s, s+1) carries rightward requests AND
        # their leftward-returning read data; likewise for leftward buses.
        self._shared_right = [[SharedBus() for _ in range(lat)]
                              for _ in range(ns - 1)]
        self._shared_left = [[SharedBus() for _ in range(lat)]
                             for _ in range(ns - 1)]
        # --- Request outputs ---
        self.mc_req_out: List[List[ArbOutput]] = []
        self.lat_req_out: List[List[List[Optional[ArbOutput]]]] = []
        for s in range(ns):
            mc_outs = []
            # One output bus per local PCH: the 4x4 local crossbar gives
            # every pseudo-channel its own AXI port, so no multiplexing
            # dead cycles apply here (they are a lateral-bus phenomenon,
            # Sec. IV-A).
            for j in range(platform.pch_per_switch):
                pch_index = s * platform.pch_per_switch + j
                mc_outs.append(ArbOutput(
                    f"mc_req[{s}][{j}]", req_inputs[s], self.mc_in[pch_index],
                    latency=ft.switch_latency + ft.mc_latency))
            self.mc_req_out.append(mc_outs)
            sides: List[List[Optional[ArbOutput]]] = [[None] * lat, [None] * lat]
            for k in range(lat):
                if s > 0:  # leftward bus lands on switch s-1's RIGHT side
                    sides[LEFT][k] = ArbOutput(
                        f"lat_req[{s}]L[{k}]", req_inputs[s],
                        self.lat_req_in[s - 1][RIGHT][k],
                        latency=ft.lateral_hop_latency, dead_cycles=dead,
                        shared=self._shared_left[s - 1][k])
                if s < ns - 1:
                    sides[RIGHT][k] = ArbOutput(
                        f"lat_req[{s}]R[{k}]", req_inputs[s],
                        self.lat_req_in[s + 1][LEFT][k],
                        latency=ft.lateral_hop_latency, dead_cycles=dead,
                        shared=self._shared_right[s][k])
            self.lat_req_out.append(sides)

        # --- Response outputs ---
        self.egress_out: List[ArbOutput] = []
        self.lat_resp_out: List[List[List[Optional[ArbOutput]]]] = []
        for s in range(ns):
            sides = [[None] * lat, [None] * lat]
            for k in range(lat):
                if s > 0:
                    # Read data travelling left returns on the *rightward*
                    # AXI bus its request used.
                    sides[LEFT][k] = ArbOutput(
                        f"lat_rsp[{s}]L[{k}]", resp_inputs[s],
                        self.lat_resp_in[s - 1][RIGHT][k],
                        latency=ft.lateral_hop_latency, dead_cycles=dead,
                        shared=self._shared_right[s - 1][k])
                if s < ns - 1:
                    sides[RIGHT][k] = ArbOutput(
                        f"lat_rsp[{s}]R[{k}]", resp_inputs[s],
                        self.lat_resp_in[s + 1][LEFT][k],
                        latency=ft.lateral_hop_latency, dead_cycles=dead,
                        shared=self._shared_left[s][k])
            self.lat_resp_out.append(sides)
        for m in range(platform.num_masters):
            s = platform.switch_of_master(m)
            self.egress_out.append(ArbOutput(
                f"egress[{m}]", resp_inputs[s], self.completion[m],
                latency=ft.switch_latency, rate=ratio))

        #: Memoized hop lists keyed by (master, pch) / (pch, master).
        self._req_routes: dict = {}
        self._resp_routes: dict = {}
        self._request_outputs: List[ArbOutput] = []
        self._response_outputs: List[ArbOutput] = []
        for s in range(ns):
            self._request_outputs.extend(self.mc_req_out[s])
            for side in (LEFT, RIGHT):
                for k in range(lat):
                    out = self.lat_req_out[s][side][k]
                    if out is not None:
                        self._request_outputs.append(out)
                    out = self.lat_resp_out[s][side][k]
                    if out is not None:
                        self._response_outputs.append(out)
        self._response_outputs.extend(self.egress_out)

    # -- route construction ----------------------------------------------------
    #
    # Routes are static per (master, pch) pair, so the hop lists are
    # memoized and shared between flits (flits never mutate their route —
    # only their private ``hop`` index advances).

    def _request_flit(self, txn: AxiTransaction) -> Flit:
        key = (txn.master, txn.pch)
        cached = self._req_routes.get(key)
        if cached is None:
            route = self.topology.request_route(txn.master, txn.pch)
            hops: List[ArbOutput] = []
            for (s, direction, parity) in route.laterals:
                out = self.lat_req_out[s][direction][parity]
                assert out is not None
                hops.append(out)
            local_pch = txn.pch % self.platform.pch_per_switch
            hops.append(self.mc_req_out[route.final_switch][local_pch])
            cached = (tuple(hops), route.num_hops)
            self._req_routes[key] = cached
        hops_t, num_hops = cached
        txn.hops = num_hops
        weight = txn.burst_len if txn.is_write else 1
        return Flit(txn, weight, REQUEST, hops_t)

    def _response_flit(self, txn: AxiTransaction) -> Flit:
        key = (txn.pch, txn.master)
        hops_t = self._resp_routes.get(key)
        if hops_t is None:
            route = self.topology.response_route(txn.pch, txn.master)
            hops: List[ArbOutput] = []
            for (s, direction, parity) in route.laterals:
                out = self.lat_resp_out[s][direction][parity]
                assert out is not None
                hops.append(out)
            hops.append(self.egress_out[txn.master])
            hops_t = tuple(hops)
            self._resp_routes[key] = hops_t
        return Flit(txn, txn.burst_len, RESPONSE, hops_t)

    # -- engine interface --------------------------------------------------------

    def admits(self, txn: AxiTransaction) -> bool:
        """Whether the master's ingress FIFO has room."""
        return not self.ingress[txn.master].full

    def submit(self, txn: AxiTransaction, cycle: int) -> bool:
        if not self.admits(txn):
            return False
        self._resolve(txn)
        flit = self._request_flit(txn)
        txn.issue_cycle = cycle
        self.ingress[txn.master].append(flit)
        return True

    def step(self, cycle: int) -> None:
        # Stepping an output with no deliveries in flight and no flit
        # routed to it is a no-op; skip the call (the dominant cost of
        # the legacy inner loop was exactly these empty scans).
        for out in self._request_outputs:
            if out.pending_in or out.in_flight:
                out.step(cycle)
        mc_by_pch = self._mc_by_pch
        for pch_index, fifo in enumerate(self.mc_in):
            items = fifo.items
            if not items:
                continue
            mc = mc_by_pch[pch_index]
            while items and mc.try_accept(items[0].txn, cycle):
                fifo.popleft()
        for mc in self.mcs:
            if mc.wake <= cycle:
                mc.step(cycle)
        for out in self._response_outputs:
            if out.pending_in or out.in_flight:
                out.step(cycle)
        for m, fifo in enumerate(self.completion):
            items = fifo.items
            while items:
                flit = fifo.popleft()
                flit.txn.complete_cycle = cycle
                self.completions.append((flit.txn, float(cycle)))
        self._pop_due_events(cycle)

    def quiescent(self) -> bool:
        if not self._mcs_quiescent():
            return False
        for group in (self.ingress, self.completion, self.mc_in, self.resp_fifo):
            if any(f.items for f in group):
                return False
        for sw in self.lat_req_in + self.lat_resp_in:
            for side in sw:
                if any(f.items for f in side):
                    return False
        return all(o.quiescent() for o in self._request_outputs + self._response_outputs)

    def next_event(self, cycle: int) -> float:
        nxt = super().next_event(cycle)
        if nxt <= cycle + 1:
            return nxt
        # Any buffered flit can be arbitrated next cycle (conservative:
        # whether a grant actually happens depends on bus meters).
        for out in self._request_outputs:
            if out.pending_in:
                return cycle + 1
        for out in self._response_outputs:
            if out.pending_in:
                return cycle + 1
        if any(f.items for f in self.mc_in) or any(
                f.items for f in self.completion):
            return cycle + 1
        # Only pipeline deliveries remain; their arrival times are exact.
        for out in self._request_outputs:
            infl = out.in_flight
            if infl:
                t = math.ceil(infl[0][0])
                if t < nxt:
                    nxt = t
        for out in self._response_outputs:
            infl = out.in_flight
            if infl:
                t = math.ceil(infl[0][0])
                if t < nxt:
                    nxt = t
        return nxt if nxt > cycle + 1 else cycle + 1

    # -- telemetry ---------------------------------------------------------------

    def telemetry_probes(self) -> list:
        """Base DRAM/controller probes plus the switch interconnect.

        Every arbitrated bus exposes its cumulative granted beat-weight
        (``occupancy_beats`` — the numerator of its utilization) and its
        idle-but-blocked cycle count (``grant_stalls``).  Occupancy is
        only emitted for fabric-clock buses (rate 1.0), where "beats /
        elapsed cycles" is directly a utilization; the accelerator-paced
        egress buses report stalls only.  Ingress FIFO depths cover the
        per-master queueing ahead of the switch.
        """
        from ..telemetry.metrics import COUNTER, GAUGE, Probe
        probes = super().telemetry_probes()
        for m, fifo in enumerate(self.ingress):
            probes.append(Probe(
                f"fabric.ingress[{m}].depth", GAUGE,
                lambda f=fifo: len(f.items), "fabric"))
        for out in self._request_outputs + self._response_outputs:
            if out.rate == 1.0:  # det-lint: allow (exact config value)
                probes.append(Probe(
                    f"link.{out.name}.occupancy_beats", COUNTER,
                    lambda o=out: o.busy_weight, "link"))
            probes.append(Probe(
                f"link.{out.name}.grant_stalls", COUNTER,
                lambda o=out: o.grant_stalls, "link"))
        return probes

    # -- fault hooks ---------------------------------------------------------------

    def apply_link_stall(self, until: float, cut: Optional[int] = None) -> None:
        """Freeze the lateral buses over one cut (or every cut).

        The request and response ArbOutputs of a lateral connection share
        one :class:`~repro.fabric.links.SharedBus` meter, so pushing its
        ``busy_until`` forward stalls both directions — traffic crossing
        the cut queues up in the hop FIFOs and drains when the stall ends
        (head-of-line blocking then ripples exactly as in a healthy
        congested fabric).
        """
        num_cuts = self.platform.num_switches - 1
        if cut is None:
            cuts = range(num_cuts)
        else:
            if not 0 <= cut < num_cuts:
                raise ConfigError(
                    f"lateral cut {cut} out of range 0..{num_cuts - 1}")
            cuts = (cut,)
        for c in cuts:
            for bus in self._shared_right[c] + self._shared_left[c]:
                if bus.busy_until < until:
                    bus.busy_until = until

    # -- controller callbacks ------------------------------------------------------

    def _on_read_data(self, txn: AxiTransaction, time: float) -> None:
        self.resp_fifo[txn.pch].append(self._response_flit(txn))

    def _on_write_accept(self, txn: AxiTransaction, time: float) -> None:
        lat = B_RESPONSE_LATENCY + txn.hops * self.platform.fabric.lateral_hop_latency
        self._schedule_completion(txn, time + lat)
