"""Unit tests for the DRAM models: banks, pseudo-channel, controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.axi import AxiTransaction
from repro.dram.bank import BankSet
from repro.dram.controller import MemoryController, SchedulerConfig
from repro.dram.pch import PseudoChannel
from repro.errors import ConfigError
from repro.params import DramTiming
from repro.types import Direction


def _t(**kw):
    return DramTiming(**kw)


class TestBankSet:
    def test_first_access_is_miss(self):
        b = BankSet(_t())
        ready, hit = b.access(0, 0.0)
        assert not hit
        assert ready == _t().t_rcd  # closed bank: activate only

    def test_second_access_same_row_hits(self):
        b = BankSet(_t())
        b.access(0, 0.0)
        ready, hit = b.access(512, 100.0)
        assert hit
        assert ready == 100.0

    def test_row_change_pays_precharge_and_activate(self):
        t = _t()
        b = BankSet(t)
        b.access(0, 0.0)
        # Same bank (row num_banks apart), different row.
        local = t.row_bytes * t.num_banks
        ready, hit = b.access(local, 1000.0)
        assert not hit
        assert ready == 1000.0 + t.t_rp + t.t_rcd

    def test_trc_limits_same_bank_reactivation(self):
        t = _t()
        b = BankSet(t)
        b.access(0, 0.0)  # activate bank 0 at cycle 0
        local = t.row_bytes * t.num_banks  # bank 0 again, new row
        ready, hit = b.access(local, 1.0)
        # Activate cannot start before tRC after the first activate.
        assert ready >= t.t_rc + t.t_rp + t.t_rcd - 1

    def test_trrd_limits_cross_bank_activation(self):
        t = _t()
        b = BankSet(t)
        b.access(0, 0.0)
        ready, hit = b.access(t.row_bytes, 0.0)  # different bank
        assert not hit
        assert ready >= t.t_rrd + t.t_rcd

    def test_would_hit(self):
        """The scheduler tells a row hit from the ``row`` and ``bank``
        the controller decoded when it accepted the transaction."""
        t = _t(t_refi=10 ** 9)
        mc, _ = _mc(timing=t)
        txns = [_rd(0), _rd(100), _rd(t.row_bytes * t.num_banks)]
        assert [(x.row, x.bank) for x in txns] == [(-1, -1)] * 3
        for txn in txns:
            assert mc.try_accept(txn, 0)
        assert [(x.row, x.bank) for x in txns] == [
            (0, 0), (0, 0), (t.num_banks, 0)]
        b = mc.pchs[0].banks

        def would_hit(txn):
            return b.open_row[txn.bank] == txn.row

        assert not would_hit(txns[0])
        b.access(0, 0.0)
        assert would_hit(txns[1])
        assert not would_hit(txns[2])

    def test_hit_rate_accounting(self):
        b = BankSet(_t())
        b.access(0, 0.0)
        b.access(32, 0.0)
        b.access(64, 0.0)
        assert b.activates == 1
        assert b.row_hits == 2
        assert b.hit_rate == pytest.approx(2 / 3)

    def test_bank_of(self):
        t = _t()
        b = BankSet(t)
        assert b.bank_of(0) == 0
        assert b.bank_of(t.row_bytes) == 1
        assert b.bank_of(t.row_bytes * t.num_banks) == 0


def _rd(addr=0, bl=16, master=0):
    t = AxiTransaction(master, Direction.READ, addr, bl, validate=False)
    t.local = addr
    t.pch = 0
    return t


def _wr(addr=0, bl=16, master=0):
    t = AxiTransaction(master, Direction.WRITE, addr, bl, validate=False)
    t.local = addr
    t.pch = 0
    return t


def _pch(timing=None, phase=10 ** 9):
    """A pseudo-channel with refresh pushed far away by default."""
    timing = timing or _t(t_refi=10 ** 9)
    return PseudoChannel(0, timing, refresh_phase=0, port_ratio=2 / 3)


class TestPseudoChannel:
    def test_sequential_stream_saturates_bus(self):
        pch = _pch()
        start0, _ = pch.service(_rd(0), 0, 0.0)
        start1, _ = pch.service(_rd(512), 0, 0.0)
        # Second transfer begins right after the first (open row).
        assert start1 == start0 + 16

    def test_turnaround_penalty(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        pch.service(_rd(0), 0, 0.0)
        start, _ = pch.service(_wr(64), 0, 0.0)
        # Write after read pays the rd->wr turnaround on top of the bus.
        assert start >= 16 + t.t_turnaround_rd_to_wr
        assert pch.counters.turnarounds == 1

    def test_port_gate_limits_unidirectional_rate(self):
        """Long-run read rate = 2/3 beat per fabric cycle (9.6 GB/s)."""
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        cycle = 0
        served = 0
        for _ in range(200):
            while not pch.channel_open(True, cycle):
                cycle += 1
            pch.service(_rd((served * 512) % (1 << 20)), cycle, 0.0)
            served += 1
        # Each txn占 24 cycles of channel debt.
        assert pch.chan_debt[0] == pytest.approx(served * 24, rel=0.05)

    def test_refresh_blocks_bus(self):
        t = _t(t_refi=1000, t_rfc=125)
        pch = PseudoChannel(0, t, refresh_phase=0, port_ratio=2 / 3)
        # Before the first interval elapses, no refresh interferes.
        start, _ = pch.service(_rd(0), 0, 0.0)
        assert start < t.t_rfc
        assert pch.counters.refreshes == 0
        # A service after the interval pays the refresh window.
        start, _ = pch.service(_rd(512), 1000, 0.0)
        assert start >= 1000 + t.t_rfc
        assert pch.counters.refreshes == 1

    def test_refresh_overhead_fraction(self):
        """Sustained stream loses ~t_rfc/t_refi of the bus."""
        t = _t(t_refi=1000, t_rfc=125)
        pch = PseudoChannel(0, t, refresh_phase=0, port_ratio=2 / 3)
        cycle, served = 0, 0
        horizon = 20_000
        while cycle < horizon:
            if pch.ready_for_service(cycle, 48.0) and pch.channel_open(True, cycle):
                pch.service(_rd((served * 512) % (1 << 20)), cycle, 0.0)
                served += 1
            cycle += 1
        assert pch.counters.refreshes == pytest.approx(horizon / 1000, abs=2)

    def test_read_exit_includes_cas_latency(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        start, exit_time = pch.service(_rd(0), 0, 0.0)
        assert exit_time == start + 16 + t.cas_latency

    def test_write_exit_includes_write_latency(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        start, exit_time = pch.service(_wr(0), 0, 0.0)
        assert exit_time == start + 16 + t.write_latency

    def test_miss_gap_applies_to_irregular_streams(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        # Irregular row sequence: every access a miss with varying stride.
        rows = [0, 7, 3, 11, 5, 13, 2, 9]
        for i, r in enumerate(rows):
            pch.service(_rd(r * t.row_bytes), 0, 0.0)
        assert pch.counters.miss_gaps > 0

    def test_miss_gap_spares_regular_strides(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        # Constant row stride 2: all misses, but regular.
        for i in range(16):
            pch.service(_rd(i * 2 * t.row_bytes), 0, 0.0)
        assert pch.counters.miss_gaps <= 1  # only before regularity detected

    def test_miss_gap_spares_streams_with_hits(self):
        t = _t(t_refi=10 ** 9)
        pch = _pch(t)
        for i in range(32):
            pch.service(_rd(i * 512), 0, 0.0)  # 2 txns per row: miss,hit
        assert pch.counters.miss_gaps == 0

    def test_ready_for_service_horizon(self):
        pch = _pch()
        assert pch.ready_for_service(0, 48.0)
        pch.bus_free = 100.0
        assert not pch.ready_for_service(0, 48.0)
        assert pch.ready_for_service(60, 48.0)

    def test_utilization(self):
        pch = _pch()
        pch.service(_rd(0), 0, 0.0)
        assert pch.utilization(32) == pytest.approx(0.5)
        assert pch.utilization(0) == 0.0


class _ResponseFifo:
    """Stand-in for a fabric's read-data FIFO: the controller only reads
    its occupancy (``items``) and ``capacity``."""

    def __init__(self, capacity=16):
        self.items = []
        self.capacity = capacity

    def fill(self):
        self.items = [None] * self.capacity

    def clear(self):
        self.items = []


class _Harness:
    """Collects MC callbacks; owns one response FIFO per PCH."""

    def __init__(self):
        self.read_data = []
        self.write_accepts = []
        self.resp = [_ResponseFifo(), _ResponseFifo()]

    def on_read_data(self, txn, time):
        self.read_data.append((txn, time))

    def on_write_accept(self, txn, time):
        self.write_accepts.append((txn, time))


def _mc(sched=None, harness=None, timing=None):
    h = harness or _Harness()
    t = timing or _t(t_refi=10 ** 9)
    pchs = [PseudoChannel(0, t, port_ratio=2 / 3),
            PseudoChannel(1, t, port_ratio=2 / 3)]
    mc = MemoryController(
        0, pchs, t, sched or SchedulerConfig(),
        on_read_data=h.on_read_data,
        on_write_accept=h.on_write_accept,
        response_fifos=h.resp,
        mc_latency=0)
    return mc, h


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(window=0)
        with pytest.raises(ConfigError):
            SchedulerConfig(reorder_depth=0)
        with pytest.raises(ConfigError):
            SchedulerConfig(window=16, queue_capacity=8)


class TestMemoryController:
    def test_accept_and_posted_write(self):
        mc, h = _mc()
        txn = _wr(0)
        assert mc.try_accept(txn, 5)
        assert txn.accept_cycle == 5
        assert len(h.write_accepts) == 1  # B response posted on accept

    def test_queue_backpressure(self):
        sched = SchedulerConfig(queue_capacity=16, window=16)
        mc, h = _mc(sched)
        accepted = 0
        for i in range(30):
            if mc.try_accept(_rd(i * 512), 0):
                accepted += 1
        assert accepted == 16

    def test_reads_produce_data_after_exit(self):
        mc, h = _mc()
        mc.try_accept(_rd(0), 0)
        for c in range(200):
            mc.step(c)
        assert len(h.read_data) == 1

    def test_wrong_pch_rejected(self):
        mc, _ = _mc()
        txn = _rd(0)
        txn.pch = 5
        with pytest.raises(ConfigError):
            mc.try_accept(txn, 0)

    def test_response_backpressure_stalls_reads(self):
        mc, h = _mc()
        h.resp[0].fill()  # PCH 0's read data has nowhere to land
        mc.try_accept(_rd(0), 0)
        for c in range(100):
            mc.step(c)
        assert not h.read_data
        h.resp[0].clear()
        for c in range(100, 300):
            mc.step(c)
        assert len(h.read_data) == 1

    def test_row_hit_preferred_within_window(self):
        """FR-FCFS: a row hit behind a miss is serviced first."""
        t = _t(t_refi=10 ** 9)
        mc, h = _mc(timing=t)
        pch = mc.pchs[0]
        pch.banks.access(0, 0.0)  # open row 0
        miss = _rd(t.row_bytes * t.num_banks)  # same bank, other row
        hit = _rd(512)  # open row
        mc.try_accept(miss, 0)
        mc.try_accept(hit, 0)
        mc.step(0)
        # The hit transaction should have been picked first.
        assert hit.accept_cycle is not None
        assert pch.counters.txns_serviced >= 1
        first_served_hit = pch.banks.row_hits >= 1
        assert first_served_hit

    def test_reorder_depth_one_keeps_master_order(self):
        sched = SchedulerConfig(reorder_depth=1)
        mc, h = _mc(sched)
        t = _t(t_refi=10 ** 9)
        pch = mc.pchs[0]
        pch.banks.access(0, 0.0)
        # Same master: miss then hit; depth 1 must serve the miss first.
        miss = _rd(t.row_bytes * t.num_banks, master=7)
        hit = _rd(512, master=7)
        mc.try_accept(miss, 0)
        mc.try_accept(hit, 0)
        for c in range(300):
            mc.step(c)
        assert [x[0].uid for x in h.read_data] == [miss.uid, hit.uid]

    def test_in_flight_accounting(self):
        mc, h = _mc()
        assert mc.in_flight() == 0
        mc.try_accept(_rd(0), 0)
        assert mc.in_flight() == 1
        for c in range(200):
            mc.step(c)
        assert mc.in_flight() == 0

    def test_command_path_shared_between_pchs(self):
        """BL1 streams to both PCHs are command-bound: ~1.2 cycles/txn."""
        t = _t(t_refi=10 ** 9)
        mc, h = _mc(timing=t)
        for i in range(8):
            for pch_idx in (0, 1):
                txn = _rd(i * 512, bl=1)
                txn.pch = pch_idx
                mc.try_accept(txn, 0)
        mc.step(0)
        assert mc.cmd_free >= 1.2 * 4  # several command slots consumed


def _would_hit(banks, local_addr):
    """The bank set's open-row test the scheduler used to call per
    window entry (``BankSet.would_hit`` before the decode at accept)."""
    row = local_addr // banks.timing.row_bytes
    return banks.open_row[row % banks.timing.num_banks] == row


def _reference_pick(mc, q, pch, li, cycle):
    """The FR-FCFS pick as it was before ``try_accept`` decoded each
    transaction's row and bank: it re-derives the row per entry through
    :func:`_would_hit` and caches the gate probes in a list."""
    s = mc.sched
    banks = pch.banks
    last_dir = pch.last_dir
    best_idx = None
    best_score = -1
    limit = min(len(q), s.window)
    track_order = s.reorder_depth < limit
    seen = {} if track_order else None
    fifo = mc.response_fifos[li]
    resp_ok = fifo is None or (
        len(fifo.items) + mc._pending_reads[li] < fifo.capacity)
    gate_ok = [None, None]
    max_score = s.hit_bonus + s.dir_bonus
    for i in range(limit):
        txn = q[i]
        if track_order:
            m = txn.master
            order = seen.get(m, 0)
            seen[m] = order + 1
            if order >= s.reorder_depth:
                continue
        is_read = txn.direction is Direction.READ
        d = 0 if is_read else 1
        ok = gate_ok[d]
        if ok is None:
            ok = gate_ok[d] = pch.channel_open(is_read, cycle)
        if not ok:
            continue
        if is_read and not resp_ok:
            continue
        score = 0
        if _would_hit(banks, txn.local):
            score += s.hit_bonus
        if d == last_dir:
            score += s.dir_bonus
        if score > best_score:
            best_score = score
            best_idx = i
            if score == max_score:
                break
    if best_idx is None and not resp_ok and gate_ok[1] is None:
        mc._reads_only[li] = True
    return best_idx


_PICK_TIMING = _t(t_refi=10 ** 9)
_PICK_CYCLE = 1000
#: Port-gate debts around the open/closed boundary of the pick cycle.
_GATE_DEBT = st.integers(
    _PICK_CYCLE + _PICK_TIMING.port_slack_cycles - 2,
    _PICK_CYCLE + _PICK_TIMING.port_slack_cycles + 2)


class TestPickMatchesReference:
    """The pick that scores hits from the decoded ``row``/``bank``
    chooses, probes and flags exactly as the reference pick does."""

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.booleans(),
                      st.integers(0, 3 * _PICK_TIMING.num_banks
                                  * _PICK_TIMING.row_bytes - 1),
                      st.integers(0, 3)),
            min_size=1, max_size=24),
        open_rows=st.lists(st.integers(-1, 2),
                           min_size=_PICK_TIMING.num_banks,
                           max_size=_PICK_TIMING.num_banks),
        debts=st.tuples(_GATE_DEBT, _GATE_DEBT),
        last_dir=st.sampled_from([-1, 0, 1]),
        bounded=st.booleans(),
        occupancy=st.integers(0, 4),
        booked=st.integers(0, 4),
        window=st.integers(1, 16),
        reorder_depth=st.integers(1, 20),
        bonuses=st.tuples(st.integers(0, 3), st.integers(0, 2)),
    )
    def test_pick(self, entries, open_rows, debts, last_dir, bounded,
                  occupancy, booked, window, reorder_depth, bonuses):
        t = _PICK_TIMING
        sched = SchedulerConfig(window=window, reorder_depth=reorder_depth,
                                queue_capacity=24, hit_bonus=bonuses[0],
                                dir_bonus=bonuses[1])
        txns = []
        for is_read, local, master in entries:
            txn = (_rd if is_read else _wr)(0, master=master)
            txn.local = local
            txns.append(txn)
        results = []
        for pick in (MemoryController._pick, _reference_pick):
            fifo = _ResponseFifo(capacity=4)
            fifo.items = [None] * occupancy
            pch = PseudoChannel(0, t, port_ratio=2 / 3)
            mc = MemoryController(
                0, [pch], t, sched,
                on_read_data=lambda txn, time: None,
                on_write_accept=lambda txn, time: None,
                response_fifos=[fifo] if bounded else None)
            for txn in txns:
                assert mc.try_accept(txn, 0)
            # Bank b's open row is closed (-1) or one of the rows that
            # map to it, so the drawn addresses hit it now and then.
            pch.banks.open_row[:] = [
                -1 if k < 0 else b + k * t.num_banks
                for b, k in enumerate(open_rows)]
            pch.chan_debt[:] = [float(d) for d in debts]
            pch.last_dir = last_dir
            mc._pending_reads[0] = booked
            stalls = pch.counters.port_stalls
            idx = pick(mc, mc.queues[0], pch, 0, _PICK_CYCLE)
            results.append((idx, pch.counters.port_stalls - stalls,
                            mc._reads_only[0]))
        assert results[0] == results[1]


class TestPerBankRefresh:
    def test_recovers_streaming_bandwidth(self):
        """Per-bank refresh overlaps with other banks' accesses, so a
        sequential stream loses almost nothing."""
        t_all = _t(t_refi=1755, t_rfc=125)
        t_pb = _t(t_refi=1755, t_rfc=125, per_bank_refresh=True, t_rfc_pb=25)
        results = {}
        for name, timing in (("all", t_all), ("pb", t_pb)):
            pch = PseudoChannel(0, timing, refresh_phase=0, port_ratio=2 / 3)
            cycle, served = 0, 0
            while cycle < 20_000:
                if (pch.ready_for_service(cycle, 48.0)
                        and pch.channel_open(True, cycle)):
                    pch.service(_rd((served * 512) % (1 << 20)), cycle, 0.0)
                    served += 1
                cycle += 1
            results[name] = pch.counters.beats_transferred
        assert results["pb"] > results["all"]

    def test_per_bank_refresh_counts(self):
        """One refresh per t_refi/num_banks interval."""
        t = _t(t_refi=1600, per_bank_refresh=True, t_rfc_pb=25)
        pch = PseudoChannel(0, t, refresh_phase=0, port_ratio=2 / 3)
        pch.service(_rd(0), 1600, 0.0)
        # 1600 cycles at one per-bank refresh per 100 cycles.
        assert pch.counters.refreshes == pytest.approx(16, abs=1)

    def test_refreshing_bank_blocks_its_activates(self):
        t = _t(t_refi=1600, per_bank_refresh=True, t_rfc_pb=50)
        pch = PseudoChannel(0, t, refresh_phase=0, port_ratio=2 / 3)
        # First per-bank refresh due at t_refi/num_banks = 100, bank 0.
        start, _ = pch.service(_rd(0), 100, 0.0)  # bank 0 access
        assert start >= 100 + 50  # waits for bank 0's refresh window
