"""Tests for the simulation engine and statistics collection."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.params import DEFAULT_PLATFORM, HbmPlatform
from repro.sim import Engine, OnlineStats, SimConfig
from repro.sim.stats import LatencySummary, StatsCollector
from repro.traffic import make_pattern_sources
from repro.types import Pattern
from repro.errors import ConfigError

SMALL = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.measured_cycles == cfg.cycles - cfg.warmup

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(cycles=0)
        with pytest.raises(ConfigError):
            SimConfig(cycles=100, warmup=100)
        with pytest.raises(ConfigError):
            SimConfig(outstanding=0)
        with pytest.raises(ConfigError):
            SimConfig(engine="vector")


class TestOnlineStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(100, 15, size=500)
        s = OnlineStats()
        for x in xs:
            s.add(float(x))
        assert s.mean == pytest.approx(float(np.mean(xs)))
        assert s.std == pytest.approx(float(np.std(xs)))
        assert s.min == pytest.approx(float(np.min(xs)))
        assert s.max == pytest.approx(float(np.max(xs)))
        assert s.count == 500

    def test_empty(self):
        s = OnlineStats()
        assert s.mean == 0.0
        assert s.std == 0.0

    def test_empty_min_max_are_json_safe(self):
        """Regression: an empty window reported min=inf / max=-inf,
        leaking non-JSON ``Infinity`` into serialized reports."""
        import json
        s = OnlineStats()
        assert s.min == 0.0 and s.max == 0.0
        summary = LatencySummary.from_online(s)
        # allow_nan=False raises on inf/nan — strict JSON must round-trip.
        json.dumps({"min": s.min, "max": s.max,
                    "summary": summary.__dict__}, allow_nan=False)
        # Extrema tracking still works once samples arrive.
        s.add(5.0)
        s.add(3.0)
        assert s.min == 3.0 and s.max == 5.0

    def test_single_sample(self):
        s = OnlineStats()
        s.add(42.0)
        assert s.mean == 42.0
        assert s.std == 0.0

    def test_latency_summary_from_online(self):
        s = OnlineStats()
        for x in (1.0, 2.0, 3.0):
            s.add(x)
        summary = LatencySummary.from_online(s)
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.min == 1.0 and summary.max == 3.0

    def test_latency_summary_empty(self):
        assert LatencySummary.from_online(OnlineStats()).count == 0


def _run(fabric_cls, pattern=Pattern.SCS, cycles=3000, platform=SMALL,
         outstanding=32):
    fab = fabric_cls(platform)
    src = make_pattern_sources(pattern, platform,
                               address_map=fab.address_map)
    eng = Engine(fab, src, SimConfig(cycles=cycles, warmup=cycles // 4,
                                     outstanding=outstanding))
    return eng, eng.run()


class TestEngine:
    def test_conservation(self):
        """Issued == completed + in flight, and draining recovers all."""
        eng, rep = _run(SegmentedFabric)
        assert rep.issued >= rep.completed
        assert rep.in_flight_at_end == rep.issued - rep.completed
        eng.drain()
        total_completed = sum(mp.completed for mp in eng.masters)
        assert total_completed == rep.issued

    def test_determinism(self):
        _, a = _run(SegmentedFabric, Pattern.CCRA)
        _, b = _run(SegmentedFabric, Pattern.CCRA)
        assert a.total_bytes == b.total_bytes
        assert a.read_latency.mean == b.read_latency.mean

    def test_throughput_positive(self):
        _, rep = _run(IdealFabric)
        assert rep.total_gbps > 0
        assert rep.read_bytes > 0 and rep.write_bytes > 0

    def test_per_master_fairness_scs(self):
        """Symmetric SCS traffic serves all masters near-equally."""
        _, rep = _run(SegmentedFabric)
        counts = [b for b in rep.per_master_bytes if b]
        assert len(counts) == SMALL.num_masters
        assert max(counts) <= 1.3 * min(counts)

    def test_too_many_sources_rejected(self):
        fab = IdealFabric(SMALL)
        src = make_pattern_sources(Pattern.SCS, SMALL,
                                   address_map=fab.address_map)
        with pytest.raises(SimulationError):
            Engine(fab, src * 2)

    def test_outstanding_one_works(self):
        _, rep = _run(SegmentedFabric, outstanding=1)
        assert rep.completed > 0
        # With one outstanding transaction, latencies are uncontended.
        assert rep.read_latency.std < rep.read_latency.mean

    def test_report_summary_renders(self):
        _, rep = _run(IdealFabric)
        text = rep.summary()
        assert "GB/s" in text and "lat" in text

    def test_fraction_of_peak(self):
        _, rep = _run(IdealFabric)
        assert 0 < rep.fraction_of_peak(SMALL) <= 1.0

    def test_active_pchs(self):
        _, rep = _run(IdealFabric, Pattern.SCS)
        assert rep.active_pchs() == SMALL.num_pch

    def test_elapsed_seconds(self):
        _, rep = _run(IdealFabric, cycles=4500)
        assert rep.elapsed_seconds == pytest.approx(
            rep.measured_cycles / SMALL.fabric_clock_hz)


class TestStatsCollector:
    def test_warmup_filtering(self):
        from repro.axi import AxiTransaction
        from repro.types import Direction
        sc = StatsCollector(SMALL, warmup=100)
        t = AxiTransaction(0, Direction.READ, 0, 16, validate=False)
        t.pch = 0
        t.issue_cycle = 10
        t.complete_cycle = 50
        sc.record(t, 50)  # before warmup: ignored
        assert sc.read_bytes == 0
        t2 = AxiTransaction(1, Direction.READ, 0, 16, validate=False)
        t2.pch = 0
        t2.issue_cycle = 150
        t2.complete_cycle = 250
        sc.record(t2, 250)
        assert sc.read_bytes == 512
        assert sc.read_latency.count == 1

    def test_latency_in_accel_cycles(self):
        from repro.axi import AxiTransaction
        from repro.types import Direction
        sc = StatsCollector(SMALL, warmup=0)
        t = AxiTransaction(0, Direction.WRITE, 0, 1, validate=False)
        t.pch = 0
        t.issue_cycle = 0
        t.complete_cycle = 30  # fabric cycles
        sc.record(t, 30)
        assert sc.write_latency.mean == pytest.approx(20.0)  # x 2/3


class TestDrain:
    def test_drain_reaches_quiescence(self):
        eng, _ = _run(MaoFabric, Pattern.CCRA)
        cycles = eng.drain()
        assert cycles > 0
        assert eng.fabric.quiescent()

    def test_drain_reports_stuck_transactions(self):
        eng, _ = _run(SegmentedFabric)
        with pytest.raises(SimulationError):
            eng.drain(max_cycles=1)


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.types import RWRatio


@st.composite
def _fuzz_configs(draw):
    num_pch = draw(st.sampled_from([4, 8, 16]))
    pattern = draw(st.sampled_from(list(Pattern)))
    burst_len = draw(st.sampled_from([1, 2, 4, 8, 16]))
    outstanding = draw(st.integers(min_value=1, max_value=32))
    rw = draw(st.sampled_from([RWRatio(1, 0), RWRatio(0, 1), RWRatio(2, 1),
                               RWRatio(1, 3)]))
    fabric_cls = draw(st.sampled_from([SegmentedFabric, MaoFabric,
                                       IdealFabric]))
    return num_pch, pattern, burst_len, outstanding, rw, fabric_cls


class TestEngineFuzz:
    """Conservation and sanity invariants over random configurations."""

    @given(_fuzz_configs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants(self, cfg):
        num_pch, pattern, burst_len, outstanding, rw, fabric_cls = cfg
        platform = HbmPlatform(num_pch=num_pch,
                               pch_capacity=64 * 1024 * 1024)
        fab = fabric_cls(platform)
        from repro.traffic import make_pattern_sources
        src = make_pattern_sources(pattern, platform, burst_len=burst_len,
                                   rw=rw, address_map=fab.address_map,
                                   seed=3)
        eng = Engine(fab, src, SimConfig(cycles=1200, warmup=300,
                                         outstanding=outstanding))
        rep = eng.run()
        # Conservation.
        assert rep.completed <= rep.issued
        assert rep.in_flight_at_end >= 0
        # Physics: never beyond the theoretical device peak.
        peak = platform.device_peak_bytes_per_s / 1e9
        assert rep.total_gbps <= peak * 1.01
        # Per-direction sanity against the requested mix.
        if rw.read_only:
            assert rep.write_bytes == 0
        if rw.write_only:
            assert rep.read_bytes == 0
        # Everything in flight drains without deadlock or loss.
        eng.drain()
        assert sum(mp.completed for mp in eng.masters) == rep.issued
        assert fab.quiescent()
