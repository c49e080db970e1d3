"""Unit tests for the interconnect primitives (FIFOs, arbitrated buses)."""

import math
import weakref

import pytest

from repro.axi import AxiTransaction
from repro.dram.controller import MemoryController, SchedulerConfig
from repro.dram.pch import PseudoChannel
from repro.errors import SimulationError
from repro.fabric.links import ArbOutput, Fifo, Flit, SharedBus, REQUEST
from repro.params import DEFAULT_PLATFORM
from repro.types import Direction
from tests.test_engine_fastpath import state_digest


def _flit(route, weight=1, master=0):
    txn = AxiTransaction(master, Direction.READ, 0, 16, validate=False)
    return Flit(txn, weight, REQUEST, route)


class TestFifo:
    def test_fifo_order(self):
        f = Fifo(4)
        a, b = _flit([]), _flit([])
        f.append(a)
        f.append(b)
        assert f.popleft() is a
        assert f.popleft() is b

    def test_capacity(self):
        f = Fifo(2)
        f.append(_flit([]))
        f.append(_flit([]))
        assert len(f) == f.capacity
        with pytest.raises(SimulationError):
            f.append(_flit([]))

    def test_head(self):
        f = Fifo(2)
        assert f.head is None
        x = _flit([])
        f.append(x)
        assert f.head is x

    def test_min_capacity(self):
        with pytest.raises(SimulationError):
            Fifo(0)


def _bus(inputs, dest, latency=0, rate=1.0, dead=0, shared=None):
    return ArbOutput("bus", inputs, dest, latency, rate, dead, shared)


class TestArbOutput:
    def test_simple_transfer(self):
        src, dst = Fifo(4), Fifo(4)
        bus = _bus([src], dst, latency=2)
        f = _flit([None], weight=1)
        f.route = (bus,)
        src.append(f)
        for c in range(10):
            bus.step(c)
        assert len(dst) == 1
        assert dst.head.hop == 1

    def test_weight_occupies_bus(self):
        """A 16-beat flit blocks the bus for 16 cycles."""
        src, dst = Fifo(8), Fifo(8)
        bus = _bus([src], dst)
        f1, f2 = _flit([None], 16), _flit([None], 16)
        f1.route = f2.route = (bus,)
        src.append(f1)
        src.append(f2)
        bus.step(0)
        assert bus.busy_until == 16.0
        bus.step(1)  # still busy
        assert bus.granted_flits == 1
        for c in range(2, 40):
            bus.step(c)
        assert len(dst) == 2

    def test_rate_stretches_duration(self):
        src, dst = Fifo(4), Fifo(4)
        bus = _bus([src], dst, rate=2 / 3)
        f = _flit([None], 16)
        f.route = (bus,)
        src.append(f)
        bus.step(0)
        assert bus.busy_until == pytest.approx(24.0)

    def test_round_robin_fairness(self):
        """Two contending inputs each get ~half the grants."""
        a, b, dst = Fifo(64), Fifo(64), Fifo(64)
        bus = _bus([a, b], dst)
        flits = []
        for i in range(20):
            fa, fb = _flit([None], 1, master=0), _flit([None], 1, master=1)
            fa.route = fb.route = (bus,)
            flits.append((fa, fb))
        for fa, fb in flits[:10]:
            a.append(fa)
            b.append(fb)
        for c in range(12):
            bus.step(c)
        masters = [f.txn.master for f in dst.items]
        # Strict alternation under round robin.
        assert masters[:6] == [0, 1, 0, 1, 0, 1] or masters[:6] == [1, 0, 1, 0, 1, 0]

    def test_dead_cycles_on_grant_change(self):
        a, b, dst = Fifo(4), Fifo(4), Fifo(8)
        bus = _bus([a, b], dst, dead=3)
        f1, f2 = _flit([None], 1, 0), _flit([None], 1, 1)
        f1.route = f2.route = (bus,)
        a.append(f1)
        b.append(f2)
        bus.step(0)          # grant input a at 0, busy until 1
        assert bus.busy_until == 1.0
        bus.step(1)          # grant input b: +3 dead cycles
        assert bus.busy_until == 1.0 + 3 + 1

    def test_no_dead_cycles_same_input(self):
        a, dst = Fifo(4), Fifo(8)
        bus = _bus([a], dst, dead=3)
        f1, f2 = _flit([None], 1), _flit([None], 1)
        f1.route = f2.route = (bus,)
        a.append(f1)
        a.append(f2)
        bus.step(0)
        bus.step(1)
        assert bus.busy_until == 2.0  # back to back, no dead cycles

    def test_backpressure_reserves_dest_slots(self):
        src, dst = Fifo(8), Fifo(1)
        bus = _bus([src], dst, latency=5)
        f1, f2 = _flit([None], 1), _flit([None], 1)
        f1.route = f2.route = (bus,)
        src.append(f1)
        src.append(f2)
        bus.step(0)   # grants f1, reserves the only slot
        bus.step(1)   # cannot grant f2: dest slot reserved
        assert bus.granted_flits == 1
        for c in range(2, 20):
            bus.step(c)
        assert bus.granted_flits == 1  # f1 delivered but dst still full
        dst.popleft()
        for c in range(20, 40):
            bus.step(c)
        assert bus.granted_flits == 2

    def test_only_head_is_eligible(self):
        """Head-of-line blocking: a blocked head stalls the queue."""
        src, dst_a, dst_b = Fifo(8), Fifo(1), Fifo(8)
        bus_a = _bus([src], dst_a)
        bus_b = _bus([src], dst_b)
        blocked = _flit([None], 1)
        blocked.route = (bus_a,)
        ready = _flit([None], 1)
        ready.route = (bus_b,)
        dst_a.append(_flit([], 1))  # fill bus_a's destination
        src.append(blocked)
        src.append(ready)
        for c in range(10):
            bus_a.step(c)
            bus_b.step(c)
        # ``ready`` sits behind ``blocked`` and never moves.
        assert len(dst_b) == 0

    def test_shared_bus_serializes(self):
        """Two ArbOutputs sharing one physical bus cannot overlap."""
        s1, s2, d1, d2 = Fifo(4), Fifo(4), Fifo(4), Fifo(4)
        shared = SharedBus()
        bus1 = _bus([s1], d1, shared=shared)
        bus2 = _bus([s2], d2, shared=shared)
        f1, f2 = _flit([None], 16), _flit([None], 16)
        f1.route = (bus1,)
        f2.route = (bus2,)
        s1.append(f1)
        s2.append(f2)
        bus1.step(0)
        bus2.step(0)   # blocked: shared bus busy until 16
        assert bus2.granted_flits == 0
        for c in range(1, 16):
            bus2.step(c)
        assert bus2.granted_flits == 0
        bus2.step(16)
        assert bus2.granted_flits == 1

    def test_quiescent(self):
        src, dst = Fifo(4), Fifo(4)
        bus = _bus([src], dst, latency=3)
        assert bus.quiescent()
        f = _flit([None], 1)
        f.route = (bus,)
        src.append(f)
        bus.step(0)
        assert not bus.quiescent()
        for c in range(1, 10):
            bus.step(c)
        assert bus.quiescent()

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            _bus([], Fifo(1), rate=0)


class TestEligibleHeads:
    """``pending_in``/``ready_in`` bookkeeping and the scan it replaces."""

    def _blocked_pair(self):
        """``src`` holds a head for ``bus_b`` (its destination full) in
        front of a flit for ``bus_a``."""
        src, dst_a, dst_b = Fifo(8), Fifo(8), Fifo(1)
        bus_a, bus_b = _bus([src], dst_a), _bus([src], dst_b)
        head, behind = _flit([None]), _flit([None])
        head.route, behind.route = (bus_b,), (bus_a,)
        src.append(head)
        src.append(behind)
        return src, dst_b, bus_a, bus_b

    def test_counts_follow_heads(self):
        src, _, bus_a, bus_b = self._blocked_pair()
        assert (bus_b.pending_in, bus_b.ready_in) == (1, 1)
        assert (bus_a.pending_in, bus_a.ready_in) == (1, 0)
        src.popleft()
        assert (bus_b.pending_in, bus_b.ready_in) == (0, 0)
        assert (bus_a.pending_in, bus_a.ready_in) == (1, 1)
        src.popleft()
        assert (bus_a.pending_in, bus_a.ready_in) == (0, 0)

    def test_blocked_output_stalls_once_per_cycle(self):
        """Head-of-line blocking: one grant stall per cycle, no grant."""
        _, dst_b, bus_a, _ = self._blocked_pair()
        dst_b.append(_flit([]))  # bus_b's head can never move
        for c in range(10):
            bus_a.step(c)
        assert bus_a.ready_in == 0
        assert bus_a.grant_stalls == 10
        assert bus_a.granted_flits == 0

    @pytest.mark.parametrize("a_first", [False, True])
    def test_unblocked_by_another_outputs_pop(self, a_first):
        """``bus_b``'s grant pops the head that hid ``bus_a``'s flit.
        Stepping after ``bus_b``, ``bus_a`` grants in the same cycle;
        stepping before it, ``bus_a`` stalls once and grants next cycle."""
        _, _, bus_a, bus_b = self._blocked_pair()
        order = (bus_a, bus_b) if a_first else (bus_b, bus_a)
        for out in order:
            out.step(0)
        assert bus_b.granted_flits == 1
        assert bus_a.granted_flits == (0 if a_first else 1)
        assert bus_a.grant_stalls == (1 if a_first else 0)
        for out in order:
            out.step(1)
        assert bus_a.granted_flits == 1
        assert bus_a.busy_until == (2.0 if a_first else 1.0)


class TestSleep:
    """An output sleeps while it cannot act and counts the grant stalls
    it sleeps through when it wakes."""

    _blocked_pair = TestEligibleHeads._blocked_pair

    @pytest.mark.parametrize("slept", [1, 7])
    def test_woken_output_adds_the_stalls_it_slept_through(self, slept):
        src, _, bus_a, _ = self._blocked_pair()
        bus_a.step(0)  # head-of-line blocked: one stall, then asleep
        assert (bus_a.grant_stalls, bus_a.wake) == (1, math.inf)
        # Cycles 1..slept pass without a step; the blocking head leaves
        # in the last of them, which wakes bus_a for the next cycle.
        src.popleft()
        assert bus_a.wake <= slept + 1
        assert [bus_a.stalls(c) for c in range(slept + 1)] == \
            list(range(1, slept + 2))
        bus_a.step(slept + 1)
        assert bus_a.grant_stalls == 1 + slept
        assert bus_a.granted_flits == 1
        assert bus_a.stalls(slept + 1) == bus_a.grant_stalls

    def test_reading_stalls_is_pure(self):
        _, _, bus_a, bus_b = self._blocked_pair()
        bus_a.step(0)
        before = state_digest(bus_a, bus_b)
        assert bus_a.stalls(9) == bus_a.stalls(9) == 10
        assert state_digest(bus_a, bus_b) == before

    def test_settle_keeps_the_output_asleep(self):
        src, _, bus_a, _ = self._blocked_pair()
        bus_a.step(0)
        bus_a.settle(4)
        assert (bus_a.grant_stalls, bus_a.stalls(4)) == (5, 5)
        src.popleft()
        bus_a.step(9)  # stalled through cycle 8, grants at 9
        assert (bus_a.grant_stalls, bus_a.granted_flits) == (9, 1)

    def test_transmitting_output_sleeps_until_its_bus_frees(self):
        src, dst = Fifo(4), Fifo(4)
        bus = _bus([src], dst, latency=5)
        f1, f2 = _flit([None], 16), _flit([None], 16)
        f1.route = f2.route = (bus,)
        src.append(f1)
        src.append(f2)
        bus.step(0)
        assert bus.wake == 16.0
        bus.step(16)  # grants f2; nothing left, so it wakes to deliver
        assert bus.pending_in == 0 and bus.wake == 16 + 5
        assert bus.grant_stalls == 0

    def test_freed_slot_wakes_the_feeder(self):
        """A pop from the FIFO an output feeds wakes it: the popped
        flit's previous hop is that output."""
        src, dst = Fifo(4), Fifo(1)
        bus = _bus([src], dst)
        f1, f2 = _flit([None], 1), _flit([None], 1)
        f1.route = f2.route = (bus,)
        src.append(f1)
        src.append(f2)
        bus.step(0)
        bus.step(1)  # delivers f1 into the full-size-1 dst, cannot grant
        assert (bus.wake, bus.grant_stalls) == (math.inf, 1)
        assert dst.popleft() is f1
        assert bus.wake <= 2
        bus.step(2)
        assert (bus.granted_flits, bus.grant_stalls) == (2, 1)

    def test_parked_controller_woken_by_the_grant_that_pops(self):
        """A controller parked on a response FIFO is held weakly and
        woken for the cycle after the grant that frees a slot."""
        timing = DEFAULT_PLATFORM.dram
        mc = MemoryController(
            0, [PseudoChannel(0, timing)], timing, SchedulerConfig(),
            on_read_data=lambda txn, time: None,
            on_write_accept=lambda txn, time: None)
        assert mc.wake == math.inf
        src, dst = Fifo(4), Fifo(4)
        bus = _bus([src], dst)
        f = _flit([None], 1)
        f.route = (bus,)
        src.append(f)
        src.waiter = waiter = mc._wake_on_pop
        bus.step(3)
        assert (mc.wake, src.waiter) == (4, None)
        ref = weakref.ref(mc)
        del mc
        assert ref() is None and waiter is not None
