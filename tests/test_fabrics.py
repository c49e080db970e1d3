"""Integration-level tests of the three fabric models."""

import pytest

from repro.axi import AxiTransaction
from repro.core.address_map import ContiguousMap, InterleavedMap
from repro.core.mao import MaoConfig, MaoVariant
from repro.dram.controller import SchedulerConfig
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.params import DEFAULT_PLATFORM, HbmPlatform
from repro.sim import Engine, SimConfig
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Direction, Pattern, RWRatio, TWO_TO_ONE
from tests.test_engine_fastpath import FAULT_PLANS

SMALL = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)


def _read(master, addr, bl=1):
    return AxiTransaction(master, Direction.READ, addr, bl, validate=False)


def _write(master, addr, bl=1):
    return AxiTransaction(master, Direction.WRITE, addr, bl, validate=False)


def _drive(fabric, txns, cycles=2000):
    """Feed transactions (respecting ingress backpressure) and run the
    fabric until all complete."""
    pending = list(txns)
    done = []
    for c in range(cycles):
        while pending and fabric.submit(pending[0], c):
            pending.pop(0)
        fabric.step(c)
        done.extend(t for t, _ in fabric.drain_completions())
        if len(done) == len(txns) and not pending:
            break
    return done


class TestSegmentedFabric:
    def test_local_read_completes(self):
        fab = SegmentedFabric(SMALL)
        txn = _read(0, 0)
        done = _drive(fab, [txn])
        assert done == [txn]
        assert txn.complete_cycle > 0
        assert txn.pch == 0
        assert txn.hops == 0

    def test_remote_read_takes_longer(self):
        fab = SegmentedFabric(SMALL)
        local = _read(0, 0)
        fab2 = SegmentedFabric(SMALL)
        remote = _read(0, 7 * SMALL.pch_capacity)  # farthest PCH
        _drive(fab, [local])
        _drive(fab2, [remote])
        assert remote.hops == 1
        assert remote.latency > local.latency

    def test_write_completes_posted(self):
        fab = SegmentedFabric(SMALL)
        txn = _write(0, 0, bl=16)
        done = _drive(fab, [txn])
        assert done == [txn]

    def test_write_ack_faster_than_read(self):
        fab = SegmentedFabric(SMALL)
        r, w = _read(0, 0), _write(1, 4096)
        _drive(fab, [r, w])
        assert w.latency < r.latency

    def test_quiescent_after_drain(self):
        fab = SegmentedFabric(SMALL)
        _drive(fab, [_read(m, m * SMALL.pch_capacity) for m in range(8)])
        assert fab.quiescent()

    def test_contiguous_map_default(self):
        assert isinstance(SegmentedFabric(SMALL).address_map, ContiguousMap)

    def test_read_latency_anchor(self):
        """Closed-page local read ≈ 48 accelerator cycles (Sec. IV-A)."""
        fab = SegmentedFabric(DEFAULT_PLATFORM)
        txn = _read(0, 0)
        _drive(fab, [txn])
        accel = txn.latency * DEFAULT_PLATFORM.clock_ratio
        assert 40 <= accel <= 60

    def test_farthest_read_latency_anchor(self):
        """Farthest-PCH read ≈ 72 accelerator cycles (Sec. IV-A)."""
        fab = SegmentedFabric(DEFAULT_PLATFORM)
        txn = _read(0, 31 * DEFAULT_PLATFORM.pch_capacity)
        _drive(fab, [txn])
        accel = txn.latency * DEFAULT_PLATFORM.clock_ratio
        assert 60 <= accel <= 85
        assert txn.hops == 7

    def test_all_masters_to_all_pchs(self):
        """Routing correctness: every (master, pch) pair completes."""
        fab = SegmentedFabric(SMALL)
        txns = []
        for m in range(8):
            for p in range(8):
                txns.append(_read(m, p * SMALL.pch_capacity + m * 512))
        done = _drive(fab, txns, cycles=20_000)
        assert len(done) == len(txns)
        assert fab.quiescent()


class TestMaoFabric:
    def test_uses_interleaved_map(self):
        fab = MaoFabric(SMALL)
        assert isinstance(fab.address_map, InterleavedMap)

    def test_interleave_can_be_disabled(self):
        cfg = MaoConfig(interleave_enabled=False)
        fab = MaoFabric(SMALL, config=cfg)
        assert isinstance(fab.address_map, ContiguousMap)

    def test_reorder_depth_flows_into_scheduler(self):
        cfg = MaoConfig(reorder_depth=4)
        fab = MaoFabric(SMALL, config=cfg)
        assert fab.sched.reorder_depth == 4

    def test_read_completes(self):
        fab = MaoFabric(SMALL)
        txn = _read(0, 0)
        done = _drive(fab, [txn])
        assert done == [txn]

    def test_consecutive_chunks_hit_different_pchs(self):
        fab = MaoFabric(SMALL)
        txns = [_read(0, i * 512, bl=16) for i in range(8)]
        _drive(fab, txns)
        assert {t.pch for t in txns} == set(range(8))

    def test_latency_flat_across_distance(self):
        """The MAO network has no distance-dependent hops."""
        fab = MaoFabric(SMALL)
        near = _read(0, 0)
        far = _read(0, 7 * 512)
        _drive(fab, [near, far])
        assert abs(near.latency - far.latency) <= 4

    def test_mao_single_read_latency_anchor(self):
        """MAO single read ≈ 74 accelerator cycles (Table II)."""
        fab = MaoFabric(DEFAULT_PLATFORM)
        txn = _read(0, 0)
        _drive(fab, [txn])
        accel = txn.latency * DEFAULT_PLATFORM.clock_ratio
        assert 55 <= accel <= 90

    def test_read_gate_blocks_beyond_lane_budget(self):
        cfg = MaoConfig(reorder_depth=1)
        fab = MaoFabric(SMALL, config=cfg)
        t1, t2, t3 = (_read(0, i * 512) for i in range(3))
        assert fab.submit(t1, 0)
        assert fab.submit(t2, 0)
        assert not fab.submit(t3, 0)  # 2 reads per lane, depth 1

    def test_quiescent(self):
        fab = MaoFabric(SMALL)
        _drive(fab, [_read(0, 0), _write(1, 4096, bl=16)])
        assert fab.quiescent()


class TestIdealFabric:
    def test_minimal_latency(self):
        fab = IdealFabric(SMALL)
        txn = _read(0, 0)
        done = _drive(fab, [txn])
        assert done == [txn]
        # Only DRAM latency remains (activate + CAS + burst + 2).
        assert txn.latency < 30

    def test_upper_bounds_other_fabrics(self):
        """The ideal fabric is at least about as fast as the segmented one
        (scheduling noise aside) on a hot-spot, and strictly no slower on
        balanced traffic."""
        results = {}
        for cls in (IdealFabric, SegmentedFabric):
            fab = cls(SMALL)
            src = make_hotspot_sources(0, SMALL, address_map=fab.address_map)
            rep = Engine(fab, src, SimConfig(cycles=3000, warmup=500)).run()
            results[cls.__name__] = rep.total_gbps
        assert results["IdealFabric"] >= results["SegmentedFabric"] * 0.90


class TestHotspotBehaviour:
    def test_hotspot_collapses_on_segmented(self):
        """All masters on one PCH: ~13 GB/s regardless of master count."""
        fab = SegmentedFabric(DEFAULT_PLATFORM)
        src = make_hotspot_sources(0, DEFAULT_PLATFORM,
                                   address_map=fab.address_map)
        rep = Engine(fab, src, SimConfig(cycles=5000, warmup=1500)).run()
        assert 11.0 <= rep.total_gbps <= 14.4
        assert rep.active_pchs() == 1

    def test_mao_resolves_hotspot_pattern(self):
        """The same CCS traffic spreads over all channels under MAO."""
        fab = MaoFabric(DEFAULT_PLATFORM)
        src = make_pattern_sources(Pattern.CCS, DEFAULT_PLATFORM)
        rep = Engine(fab, src, SimConfig(cycles=5000, warmup=1500)).run()
        assert rep.total_gbps > 350
        assert rep.active_pchs() == 32


def _assert_bookkeeping(fabric):
    """Every incremental count equals a recount from scratch."""
    for out in fabric._request_outputs + fabric._response_outputs:
        pending = sum(1 for fifo in out.inputs for flit in fifo.items
                      if flit.route[flit.hop] is out)
        ready = sum(1 for fifo in out.inputs
                    if fifo.items and fifo.items[0].route[
                        fifo.items[0].hop] is out)
        assert (out.pending_in, out.ready_in) == (pending, ready), out.name
    for mc in fabric.mcs:
        booked = [sum(1 for event in mc._pending if event[3] == li)
                  for li in range(len(mc.pchs))]
        assert mc._pending_reads == booked, f"mc{mc.index}"


def _step_checked(engine):
    """Check the bookkeeping after every fabric step of a run and drain."""
    fabric = engine.fabric
    real_step = fabric.step
    steps = [0]

    def checked_step(cycle):
        real_step(cycle)
        _assert_bookkeeping(fabric)
        steps[0] += 1
    fabric.step = checked_step
    engine.run()
    engine.drain(max_cycles=20_000)
    return steps[0]


class TestIncrementalCounts:
    """The O(1) answers of the blocked polls match what a scan counts:
    per-output eligible heads (``ArbOutput.ready_in``) and buffered flits
    (``pending_in``), and per-PCH booked reads in each controller."""

    def test_table4_ccra(self):
        fabric = SegmentedFabric(DEFAULT_PLATFORM)
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
            address_map=fabric.address_map, seed=5)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1500, warmup=300, engine="legacy"))
        assert _step_checked(engine) > 1500

    @pytest.mark.parametrize("plan_key", ["stall-offline", "offline-degrade"])
    def test_small_platform_faults(self, plan_key):
        fabric = SegmentedFabric(SMALL)
        sources = make_pattern_sources(
            Pattern.SCS, SMALL, burst_len=8, rw=TWO_TO_ONE,
            address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy",
            txn_timeout_cycles=4000, progress_timeout_cycles=4000),
            faults=FAULT_PLANS[plan_key])
        assert _step_checked(engine) > 1200
