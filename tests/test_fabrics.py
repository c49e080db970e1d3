"""Integration-level tests of the three fabric models."""

import math

import pytest

from repro.axi import AxiTransaction
from repro.core.address_map import ContiguousMap, InterleavedMap
from repro.core.mao import MaoConfig, MaoVariant
from repro.dram.controller import MemoryController, SchedulerConfig
from repro.errors import ReproError
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.fabric.base import BaseFabric
from repro.fabric.links import ArbOutput
from repro.params import DEFAULT_PLATFORM, HbmPlatform
from repro.sim import Engine, SimConfig
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Direction, Pattern, RWRatio, TWO_TO_ONE
from tests.test_engine_fastpath import (FABRICS, FAULT_GRID, FAULT_PLANS,
                                        _starved)
from tests.test_model_freeze import (_fault_engine, _hotspot_degrade_engine,
                                     _table4_engine, link_stall_plan)

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
        done.extend(t for t, _ in fabric.completions)
        fabric.completions = []
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
    for out in fabric._outputs:
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


def _step_staging_checked(engine):
    """Check the per-PCH staging after every fabric step of a run and
    drain; returns how many ``try_accept`` calls the sweeps made.

    The sweep asks ``room`` only of the PCHs in ``fabric._sweep``; the
    checks ask it of every PCH with staged work."""
    fabric = engine.fabric
    sweep_accepts = []
    in_sweep = [False]
    real_sweep = fabric._retry_staged

    def checked_sweep(cycle):
        in_sweep[0] = True
        real_sweep(cycle)
        in_sweep[0] = False
        # Every queue was offered all it had room for.
        starved = [p for p, staged in enumerate(fabric._staged)
                   if staged and fabric._mc_by_pch[p].room(p) > 0]
        assert starved == [], f"cycle {cycle}: staged work beside room"
    fabric._retry_staged = checked_sweep

    for mc in fabric.mcs:
        def checked_accept(txn, cycle, _real=mc.try_accept):
            accepted = _real(txn, cycle)
            if in_sweep[0]:
                sweep_accepts.append(accepted)
            return accepted
        mc.try_accept = checked_accept

    real_step = fabric.step

    def checked_step(cycle):
        real_step(cycle)
        staged = fabric._staged
        assert fabric._staged_count == sum(len(d) for d in staged)
        for pch, entries in enumerate(staged):
            assert all(txn.pch == pch for _, _, txn in entries)
            keys = [(arrival, seq) for arrival, seq, _ in entries]
            assert keys == sorted(keys), f"PCH {pch} out of order"
            # What the sweep and the horizon's staged-pop proof rely on:
            # a PCH that still holds staged work after the step has room
            # only if its room signal fired, which queues it for the
            # next sweep.
            mc = fabric._mc_by_pch[pch]
            if entries and mc.room(pch) > 0:
                assert pch in fabric._sweep, f"cycle {cycle}, PCH {pch}"
        assert all(sweep_accepts), "the sweep offered to a full queue"
    fabric.step = checked_step
    engine.run()
    engine.drain(max_cycles=20_000)
    return len(sweep_accepts)


class TestStagedSweep:
    """The heap-fed fabrics stage arrivals per PCH in arrival order, and
    the sweep offers each queue exactly what it has room for."""

    FABRICS = {"mao": MaoFabric, "ideal": IdealFabric}

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_table4_ccra(self, fabric_key):
        fabric = self.FABRICS[fabric_key](DEFAULT_PLATFORM)
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
            address_map=fabric.address_map, seed=5)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1500, warmup=300, engine="legacy"))
        assert _step_staging_checked(engine) > 1000

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_one_entry_queues(self, fabric_key):
        sched = SchedulerConfig(window=1, queue_capacity=1)
        fabric = self.FABRICS[fabric_key](SMALL, sched=sched)
        sources = make_pattern_sources(
            Pattern.CCRA, SMALL, burst_len=8, rw=TWO_TO_ONE,
            address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy"))
        assert _step_staging_checked(engine) > 100

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_hotspot_degrade(self, fabric_key):
        """Arrivals staged for the hot channel when it dies are NACKed
        by the sweep, beside arrivals for survivors that queue."""
        fabric = self.FABRICS[fabric_key](SMALL)
        sources = make_hotspot_sources(
            0, SMALL, burst_len=8, rw=TWO_TO_ONE,
            address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy",
            txn_timeout_cycles=4000, progress_timeout_cycles=4000),
            faults=FAULT_PLANS["hotspot-degrade"])
        assert _step_staging_checked(engine) > 100
        assert sum(mp.nacks for mp in engine.masters) > 0


def _order_eligible(mc, q):
    """The entries of queue ``q``'s window that pass the per-master order
    filter of ``mc``'s scheduler."""
    s = mc.sched
    seen = {}
    eligible = []
    for txn in q[:s.window]:
        order = seen.get(txn.master, 0)
        seen[txn.master] = order + 1
        if order < s.reorder_depth:
            eligible.append(txn)
    return eligible


def _parked(mc, li, cycle):
    """Whether local PCH ``li`` of ``mc`` is parked: reads-only, its
    response FIFO plus booked reads full, and its read gate open (read
    without the probe's side effect; debt 0 is the read direction's), so
    no pick can change anything before that FIFO pops."""
    fifo = mc.response_fifos[li]
    pch = mc.pchs[li]
    return (mc._reads_only[li]
            and len(fifo.items) + mc._pending_reads[li] >= fifo.capacity
            and pch.chan_debt[0] <= cycle + pch.timing.port_slack_cycles)


def _step_wake_checked(engine):
    """Check every controller's wake after every fabric step of a run and
    drain; returns how often a controller with queued work slept past
    the next cycle, how often a PCH was flagged reads-only, and how often
    a sleeping controller left a parked PCH to its FIFO's pop."""
    fabric = engine.fabric
    counts = {"booked": 0, "reads_only": 0, "parked": 0}
    real_step = fabric.step

    def checked_step(cycle):
        real_step(cycle)
        for mc in fabric.mcs:
            wake = mc.wake
            assert wake > cycle, f"mc{mc.index} woke in the past at {cycle}"
            if wake > cycle + 1:
                # No booked read is due before the wake ...
                assert all(event[0] > wake - 1 for event in mc._pending), \
                    f"mc{mc.index} sleeps past a read at {cycle}"
                # ... and no live queue may pick before it, unless its
                # PCH is parked and the FIFO it waits on will wake it.
                live = [li for li, pch in enumerate(mc.pchs) if mc.queues[li]
                        and not (pch.fault and pch.fault.offline)]
                for li in live:
                    pch = mc.pchs[li]
                    if pch.bus_free >= wake - 1 + mc.sched.horizon:
                        continue
                    assert _parked(mc, li, cycle), \
                        f"mc{mc.index} PCH {pch.index} sleeps at {cycle}"
                    assert (mc.response_fifos[li].waiter
                            is mc._wake_on_pop), \
                        f"mc{mc.index} PCH {pch.index} parked unwired"
                    counts["parked"] += 1
                counts["booked"] += bool(live)
            for li, flagged in enumerate(mc._reads_only):
                if flagged:
                    counts["reads_only"] += 1
                    eligible = _order_eligible(mc, mc.queues[li])
                    assert not any(txn.is_write for txn in eligible), \
                        f"mc{mc.index} PCH {li} flagged beside a write"
    fabric.step = checked_step
    engine.run()
    engine.drain(max_cycles=20_000)
    return counts


class TestControllerWake:
    """A controller's ``wake`` is never later than the first cycle its
    step can change state — a parked PCH waits for its response FIFO's
    pop — and a reads-only PCH's window holds no write the scheduler
    could pick."""

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_table4_ccra(self, fabric_key):
        fabric = FABRICS[fabric_key](DEFAULT_PLATFORM)
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
            address_map=fabric.address_map, seed=5)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1500, warmup=300, engine="legacy"))
        counts = _step_wake_checked(engine)
        assert counts["booked"] > 1000
        if fabric_key == "xlnx":
            assert counts["reads_only"] > 1000
            assert counts["parked"] > 1000

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_one_entry_queues(self, fabric_key):
        sched = SchedulerConfig(window=1, queue_capacity=1)
        fabric = FABRICS[fabric_key](SMALL, sched=sched)
        sources = make_pattern_sources(
            Pattern.CCRA, SMALL, burst_len=8, rw=TWO_TO_ONE,
            address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy"))
        assert _step_wake_checked(engine)["booked"] > 100

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    @pytest.mark.parametrize("plan_key", ["stall-offline", "offline-degrade",
                                          "hotspot-degrade"])
    def test_fault_plans(self, fabric_key, plan_key):
        fabric = FABRICS[fabric_key](SMALL)
        make = (make_hotspot_sources if plan_key == "hotspot-degrade"
                else make_pattern_sources)
        target = 0 if plan_key == "hotspot-degrade" else Pattern.SCS
        sources = make(target, SMALL, burst_len=8, rw=TWO_TO_ONE,
                       address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy",
            txn_timeout_cycles=4000, progress_timeout_cycles=4000),
            faults=FAULT_PLANS[plan_key])
        assert _step_wake_checked(engine)["booked"] > 100
        assert sum(mp.nacks for mp in engine.masters) > 0


def _per_cycle_stall(out, cycle):
    """Whether the per-cycle rule counts a grant stall for ``out`` at its
    turn in ``cycle``: flits pending, its own bus free, and the shared
    lateral held by the partner direction, no eligible head, or no room
    downstream (what a failing round-robin scan finds)."""
    if not out.pending_in or out.busy_until > cycle:
        return False
    shared = out.shared
    return ((shared is not None and shared.busy_until > cycle)
            or not out.ready_in
            or len(out.dest.items) + out.reserved >= out.dest.capacity)


def _step_links_checked(engine):
    """Check every output's sleep after every fabric step of a run and
    drain; returns the grant stalls and the output steps counted.

    A shadow count applies the per-cycle rule to every output at its
    turn in the fabric's loop, asleep or not: the output lists are
    swapped for lists that evaluate the rule as they hand each output
    out.  The settled count must equal it after every step.
    """
    fabric = engine.fabric
    shadow = dict.fromkeys(fabric._outputs, 0)
    counts = {"stalls": 0, "steps": 0}

    class Turns(list):
        def __iter__(self):
            for out in list.__iter__(self):
                if _per_cycle_stall(out, fabric.now):
                    shadow[out] += 1
                counts["steps"] += out.wake <= fabric.now
                yield out
    fabric._request_outputs = Turns(fabric._request_outputs)
    fabric._response_outputs = Turns(fabric._response_outputs)
    fabric.egress_out = Turns(fabric.egress_out)
    real_step = fabric.step

    def checked_step(cycle):
        real_step(cycle)
        for out in fabric._outputs:
            if not out.pending_in:
                due = (math.ceil(out.in_flight[0][0]) if out.in_flight
                       else math.inf)
                assert out.wake == due, f"{out.name} idle, wake at {cycle}"
            assert out.stalls(cycle) == shadow[out], \
                f"{out.name} stall count at {cycle}"
    fabric.step = checked_step
    engine.run()
    engine.drain(max_cycles=20_000)
    assert all(out.grant_stalls == shadow[out] for out in fabric._outputs)
    counts["stalls"] = sum(shadow.values())
    return counts


class TestLinkWake:
    """An arbitration output sleeps only while it cannot act, and the
    stalls it sleeps through are counted exactly: an idle output wakes
    at its next delivery, and the settled ``grant_stalls`` equal a
    per-cycle count after every fabric step."""

    def test_table4_ccra(self):
        fabric = SegmentedFabric(DEFAULT_PLATFORM)
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
            address_map=fabric.address_map, seed=5)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1500, warmup=300, engine="legacy"))
        counts = _step_links_checked(engine)
        # Most stalls are slept through, not stepped.
        assert counts["stalls"] > 50_000
        assert counts["steps"] < counts["stalls"] / 4

    @pytest.mark.parametrize("plan_key", ["stall-offline", "offline-degrade",
                                          "hotspot-degrade"])
    def test_fault_plans(self, plan_key):
        fabric = SegmentedFabric(SMALL)
        make = (make_hotspot_sources if plan_key == "hotspot-degrade"
                else make_pattern_sources)
        # Crossing traffic, so the link stall meets sleeping outputs.
        target = 0 if plan_key == "hotspot-degrade" else Pattern.CCRA
        sources = make(target, SMALL, burst_len=8, rw=TWO_TO_ONE,
                       address_map=fabric.address_map)
        engine = Engine(fabric, sources, SimConfig(
            cycles=1200, warmup=300, outstanding=16, engine="legacy",
            txn_timeout_cycles=4000, progress_timeout_cycles=4000),
            faults=FAULT_PLANS[plan_key])
        assert _step_links_checked(engine)["stalls"] > 100


def _eager_vs_sleeping_points():
    """``(point id, engine factory)``: the frozen vendor-fabric points
    where outputs block on lateral buses (default platform, CCRA and
    CCS, the link stalls on crossing traffic) or meet faults (the small
    platform's fault grid), and the MAO and ideal points where staged
    arrivals wait for room (default-platform CCRA, the hot-spot degrade
    point, the starvation point).  Each factory takes ``SimConfig``
    keywords."""
    points = [(f"default/xlnx/{p.name}",
               lambda p=p, **kw: _table4_engine(p, **kw))
              for p in (Pattern.CCRA, Pattern.CCS)]
    points += [(f"default/xlnx/CCRA/link-stall-{tag}",
                lambda c=cut, **kw: _table4_engine(
                    Pattern.CCRA, link_stall_plan(c), **kw))
               for tag, cut in (("all", None), ("cut3", 3))]
    points += [(f"xlnx/fault/{plan}",
                lambda k=plan, **kw: _fault_engine(SMALL, "xlnx", k, **kw))
               for fabric_key, plan in FAULT_GRID if fabric_key == "xlnx"]
    for fabric_key in ("mao", "ideal"):
        points += [
            (f"default/{fabric_key}/CCRA",
             lambda f=fabric_key, **kw: _table4_engine(
                 Pattern.CCRA, fabric_key=f, **kw)),
            (f"{fabric_key}/hotspot-degrade/2to1",
             lambda f=fabric_key, **kw: _hotspot_degrade_engine(
                 SMALL, f, TWO_TO_ONE, **kw)),
            (f"{fabric_key}/starve-offline",
             lambda f=fabric_key, **kw: _starved(
                 SMALL, cycles=1200, fabric_key=f, **kw)),
        ]
    return points


EAGER_POINTS = _eager_vs_sleeping_points()


def _observed_run(make, eager):
    """Run and drain one point on the per-cycle loop, sampling telemetry
    every cycle; returns the engine, its report and the drain's result.

    ``eager`` steps every arbitration output and memory controller on
    every cycle: their ``wake`` starts at 0, and the caller makes each
    step reset it to 0 and the link probes read the raw stall count.  A
    step before ``wake`` is a no-op by design, and an output stepped
    every cycle counts each stall in its own cycle, so this is the
    per-cycle rule the sleep replaces.  The caller also makes every
    fabric step offer every non-empty landing FIFO and every sweep ask
    ``room`` of every PCH with staged work, the per-cycle rule the room
    signals replace."""
    engine = make(engine="legacy", telemetry=True, telemetry_interval=1)
    fabric = engine.fabric
    if eager:
        for unit in list(getattr(fabric, "_outputs", ())) + fabric.mcs:
            unit.wake = 0
    report = engine.run()
    try:
        drained = engine.drain(max_cycles=20_000)
    except ReproError as exc:  # a fault the drain cannot resolve
        drained = type(exc).__name__
    return engine, report, drained


def _series(engine):
    """Every telemetry probe's per-cycle series, by probe name."""
    tele = engine.telemetry
    assert len(tele.sample_cycles) == engine.config.cycles
    return {p.name: [row[i] for row in tele.samples]
            for i, p in enumerate(tele.probes.probes)}


def _stalls(engine):
    return [out.grant_stalls
            for out in getattr(engine.fabric, "_outputs", ())]


@pytest.mark.parametrize("point", [pid for pid, _ in EAGER_POINTS])
def test_sleeping_matches_eager_stepping(point, monkeypatch):
    """The fast-vs-legacy tests share the fabric, so they cannot see the
    sleep and the room signals; this compares them with stepping and
    offering everything every cycle: equal reports, an equal per-cycle
    series of every telemetry probe (every ``link.*`` stall and
    occupancy counter and the staging gauges included), equal drains
    and equal settled stall counts."""
    make = dict(EAGER_POINTS)[point]
    sleeping, report, drained = _observed_run(make, eager=False)

    def eager(step):
        def stepped(self, cycle):
            step(self, cycle)
            self.wake = 0
        return stepped

    def every_landing(step):
        def stepped(self, cycle):
            self._landing_blocked = [False] * len(self._landing_blocked)
            step(self, cycle)
        return stepped

    def every_staged_pch(land):
        def landed(self, cycle, in_transit):
            self._sweep[:] = [p for p, staged in enumerate(self._staged)
                              if staged]
            land(self, cycle, in_transit)
        return landed
    monkeypatch.setattr(ArbOutput, "step", eager(ArbOutput.step))
    monkeypatch.setattr(MemoryController, "step",
                        eager(MemoryController.step))
    monkeypatch.setattr(ArbOutput, "stalls",
                        lambda self, cycle: self.grant_stalls)
    monkeypatch.setattr(SegmentedFabric, "step",
                        every_landing(SegmentedFabric.step))
    monkeypatch.setattr(BaseFabric, "_land", every_staged_pch(BaseFabric._land))
    eager_engine, e_report, e_drained = _observed_run(make, eager=True)

    assert report == e_report
    series, e_series = _series(sleeping), _series(eager_engine)
    if sleeping.fabric.name == "xlnx":
        assert any(name.startswith("link.") for name in series)
    drift = [name for name in series if series[name] != e_series.get(name)]
    assert drift == [] and series.keys() == e_series.keys(), \
        "per-cycle telemetry series differ"
    assert drained == e_drained
    assert _stalls(sleeping) == _stalls(eager_engine)
