"""Unit tests for the interconnect primitives (FIFOs, arbitrated buses)."""

import pytest

from repro.axi import AxiTransaction
from repro.errors import SimulationError
from repro.fabric.links import ArbOutput, Fifo, Flit, SharedBus, REQUEST
from repro.types import Direction


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
        assert f.full
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
            if not a.full:
                a.append(fa)
            if not b.full:
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
