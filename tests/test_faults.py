"""Tests for the fault-injection, watchdog, and degradation subsystem.

Covers the four layers of :mod:`repro.faults` — plans, injection, the
detection watchdogs, and recovery (retry + degradation) — plus the chaos
harness, at both unit level and through full engine runs on the small
8-PCH platform.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import (ConfigError, DeadlockError, ObserverError,
                          TransactionTimeout)
from repro.faults import (FaultEvent, FaultKind, FaultPlan, ProgressWatchdog,
                          SecdedModel, TransactionWatchdog, build_remap,
                          BEAT_CLEAN, BEAT_CORRECTED, BEAT_UNCORRECTABLE,
                          DegradedMap)
from repro.faults.chaos import SCENARIOS, format_report, run_scenario
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.params import HbmPlatform
from repro.sim import Engine, SimConfig, TraceRecorder
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_pattern_sources
from repro.types import FabricKind, Pattern

SMALL = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)

FABRICS = {"xlnx": SegmentedFabric, "mao": MaoFabric, "ideal": IdealFabric}


def _engine(fabric_key="xlnx", pattern=Pattern.SCS, faults=None,
            cycles=1500, warmup=300, **cfg_kw):
    fabric = FABRICS[fabric_key](SMALL)
    sources = make_pattern_sources(pattern, SMALL, burst_len=8,
                                   address_map=fabric.address_map)
    cfg = SimConfig(cycles=cycles, warmup=warmup, **cfg_kw)
    return Engine(fabric, sources, cfg, faults=faults)


def _offline_plan(at=500, pch=2, degrade=True):
    return FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=at, pch=pch)],
                     degrade=degrade)


# -- plans -------------------------------------------------------------------


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.PCH_OFFLINE, at=-1, pch=0)
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.PCH_OFFLINE, at=10)  # no target pch
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.PCH_SLOW, at=10, pch=0, duration=0)
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.PCH_SLOW, at=10, pch=0, duration=5,
                       factor=1.0)
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.DATA_CORRUPT, at=10, duration=5, rate=0.0)
        with pytest.raises(ConfigError):
            FaultEvent(FaultKind.DATA_CORRUPT, at=10, duration=5, rate=1.5)

    def test_plan_sorts_events_and_is_hashable(self):
        late = FaultEvent(FaultKind.PCH_OFFLINE, at=900, pch=1)
        early = FaultEvent(FaultKind.LINK_STALL, at=100, duration=50)
        plan = FaultPlan([late, early])
        assert [e.at for e in plan.events] == [100, 900]
        assert hash(plan) == hash(FaultPlan([early, late]))

    def test_bool_and_offline_pchs(self):
        assert not FaultPlan()
        plan = _offline_plan(pch=3)
        assert plan
        assert plan.offline_pchs == [3]

    def test_describe(self):
        text = _offline_plan().describe()
        assert "pch-offline" in text and "@500" in text
        assert FaultPlan().describe() == "(no faults)"

    def test_dbit_fraction_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(dbit_fraction=1.5)


# -- SECDED model ------------------------------------------------------------


class TestSecded:
    def test_deterministic_and_seed_sensitive(self):
        a = SecdedModel(seed=1)
        b = SecdedModel(seed=1)
        seq = [a.classify_beat(2, i, 0.5) for i in range(200)]
        assert seq == [b.classify_beat(2, i, 0.5) for i in range(200)]
        c = SecdedModel(seed=2)
        assert seq != [c.classify_beat(2, i, 0.5) for i in range(200)]

    def test_rate_extremes(self):
        m = SecdedModel(seed=0, dbit_fraction=0.0)
        assert all(m.classify_beat(0, i, 1.0) == BEAT_CORRECTED
                   for i in range(50))
        everything = SecdedModel(seed=0, dbit_fraction=1.0)
        assert all(everything.classify_beat(0, i, 1.0) == BEAT_UNCORRECTABLE
                   for i in range(50))

    def test_low_rate_mostly_clean(self):
        m = SecdedModel(seed=3)
        outcomes = [m.classify_beat(1, i, 0.01) for i in range(2000)]
        assert outcomes.count(BEAT_CLEAN) > 1900

    def test_classify_burst_counts(self):
        m = SecdedModel(seed=5, dbit_fraction=0.5)
        corrected, uncorrectable = m.classify_burst(0, 0, 256, 1.0)
        assert corrected + uncorrectable == 256
        assert corrected > 0 and uncorrectable > 0


# -- degradation remap -------------------------------------------------------


class TestDegrade:
    def test_remap_spreads_round_robin(self):
        table = build_remap(8, [2, 5])
        survivors = [p for p in range(8) if p not in (2, 5)]
        assert [table[p] for p in survivors] == survivors
        assert table[2] in survivors and table[5] in survivors
        assert table[2] != table[5]  # round-robin, not pile-up

    def test_remap_validation(self):
        with pytest.raises(ConfigError):
            build_remap(8, [9])
        with pytest.raises(ConfigError):
            build_remap(2, [0, 1])  # nobody left

    def test_degraded_map_wraps_base(self):
        from repro.core.address_map import ContiguousMap
        base = ContiguousMap(SMALL)
        dmap = DegradedMap(base, dead=[0])
        addr = 10  # lives on pch 0 under the contiguous map
        assert base.pch_of(addr) == 0
        assert dmap.pch_of(addr) != 0
        assert dmap.local_of(addr) == base.local_of(addr)
        with pytest.raises(ConfigError):
            dmap.global_of(0, 0)


# -- watchdogs (unit) --------------------------------------------------------


class _FakeTxn:
    def __init__(self, uid):
        self.uid = uid
        self.issue_cycle = 0
        self.pch = 0

    def __repr__(self):
        return f"txn#{self.uid}"


class TestWatchdogs:
    def test_txn_watchdog_trips_after_timeout(self):
        dog = TransactionWatchdog(100)
        txn = _FakeTxn(1)
        dog.note_issue(txn, 10)
        dog.check(109)  # one short of the deadline
        with pytest.raises(TransactionTimeout):
            dog.check(110)

    def test_txn_watchdog_disarms_on_done(self):
        dog = TransactionWatchdog(100)
        txn = _FakeTxn(1)
        dog.note_issue(txn, 10)
        dog.note_done(txn)
        dog.check(10_000)  # nothing armed, nothing raised
        assert dog.next_deadline() == math.inf
        assert dog.watched == 0

    def test_txn_watchdog_rearms_on_retry(self):
        dog = TransactionWatchdog(100)
        txn = _FakeTxn(1)
        dog.note_issue(txn, 10)
        dog.note_done(txn)           # NACK path disarms ...
        dog.note_issue(txn, 500)     # ... resubmit re-arms
        assert dog.next_deadline() == 600
        with pytest.raises(TransactionTimeout):
            dog.check(600)

    def test_progress_watchdog_distinguishes_quiescence(self):
        dog = ProgressWatchdog(200)
        dog.note_progress(50)
        dog.check(1_000, in_flight=0)  # quiescent: fine forever
        with pytest.raises(DeadlockError):
            dog.check(250, in_flight=3)


# -- engine integration ------------------------------------------------------


class TestFaultRuns:
    def test_offline_with_degradation_recovers(self):
        engine = _engine(faults=_offline_plan(), txn_timeout_cycles=3000,
                         progress_timeout_cycles=3000)
        report = engine.run()
        engine.drain()
        assert report.dead_pchs == [2]
        assert report.unrecoverable == 0
        assert report.retries > 0 and report.nacks > 0
        assert report.total_gbps > 0
        assert report.completed <= report.issued
        # Quiescent after drain: every NACKed transaction was re-served.
        assert all(mp.outstanding == 0 for mp in engine.masters)
        assert all(mp.unrecoverable == 0 for mp in engine.masters)

    def test_offline_without_degradation_times_out(self):
        engine = _engine(faults=_offline_plan(degrade=False),
                         txn_timeout_cycles=600, retry_backoff_cap=256)
        with pytest.raises(TransactionTimeout):
            engine.run()
            engine.drain()

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_offline_recovers_on_every_fabric(self, fabric_key):
        engine = _engine(fabric_key, faults=_offline_plan(),
                         txn_timeout_cycles=3000)
        report = engine.run()
        engine.drain()
        assert report.dead_pchs == [2]
        assert report.unrecoverable == 0
        assert all(mp.outstanding == 0 for mp in engine.masters)

    def test_slow_channel_costs_bandwidth(self):
        plan = FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=400, pch=1,
                                     duration=800, factor=8.0)])
        healthy = _engine().run()
        faulted = _engine(faults=plan).run()
        assert faulted.total_gbps < healthy.total_gbps

    def test_data_corruption_counted_and_retried(self):
        plan = FaultPlan([FaultEvent(FaultKind.DATA_CORRUPT, at=400,
                                     duration=600, rate=0.05)],
                         seed=11, dbit_fraction=0.3)
        engine = _engine(faults=plan)
        report = engine.run()
        engine.drain()
        assert report.ecc_corrected > 0
        assert report.ecc_uncorrectable > 0
        # Every poisoned read was retried and eventually served cleanly.
        # (Counted on the masters: drain-time retries postdate the report
        # snapshot.  Beats-vs-transactions: a burst may carry several
        # uncorrectable beats but bounces as one NACK, so the retry count
        # is positive but bounded by the beat count, not equal to it.)
        retries = sum(mp.retries for mp in engine.masters)
        assert 0 < retries <= report.ecc_uncorrectable
        assert sum(mp.nacks for mp in engine.masters) == retries
        assert report.unrecoverable == 0
        assert all(mp.unrecoverable == 0 for mp in engine.masters)
        assert all(mp.outstanding == 0 for mp in engine.masters)

    def test_link_stall_cut_validated(self):
        # SMALL has 2 switches -> exactly one lateral cut (index 0).
        plan = FaultPlan([FaultEvent(FaultKind.LINK_STALL, at=100, cut=5,
                                     duration=50)])
        with pytest.raises(ConfigError):
            _engine("xlnx", faults=plan).run()

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    @pytest.mark.parametrize("event", [
        FaultEvent(FaultKind.PCH_OFFLINE, at=100, pch=-1),
        FaultEvent(FaultKind.PCH_OFFLINE, at=100, pch=8),
        FaultEvent(FaultKind.PCH_SLOW, at=100, pch=-1, duration=50),
        FaultEvent(FaultKind.DATA_CORRUPT, at=100, pch=8, duration=50,
                   rate=0.1),
        FaultEvent(FaultKind.LINK_STALL, at=100, cut=-1, duration=50),
        FaultEvent(FaultKind.LINK_STALL, at=100, cut=1, duration=50),
    ], ids=["offline-pch-1", "offline-pch8", "slow-pch-1", "corrupt-pch8",
            "stall-cut-1", "stall-cut1"])
    def test_out_of_range_target_rejected_at_build(self, fabric_key, event):
        """A plan cannot see the platform, so binding it to a fabric
        range-checks its targets before any cycle runs: a negative pch
        would index from the end, and the MAO and ideal fabrics ignore
        the cut.  SMALL has 8 PCHs and one lateral cut."""
        with pytest.raises(ConfigError):
            _engine(fabric_key, faults=FaultPlan([event], degrade=False))

    @pytest.mark.parametrize("fabric_key", sorted(FABRICS))
    def test_edge_targets_accepted(self, fabric_key):
        plan = FaultPlan([
            FaultEvent(FaultKind.PCH_SLOW, at=100, pch=0, duration=50),
            FaultEvent(FaultKind.PCH_SLOW, at=100, pch=7, duration=50),
            FaultEvent(FaultKind.LINK_STALL, at=100, cut=0, duration=50),
        ])
        assert _engine(fabric_key, faults=plan).run().completed > 0

    def test_fault_runs_deterministic(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.PCH_OFFLINE, at=600, pch=4),
            FaultEvent(FaultKind.DATA_CORRUPT, at=350, duration=400,
                       rate=0.03),
        ], seed=9)
        a = _engine("mao", faults=plan, txn_timeout_cycles=3000).run()
        b = _engine("mao", faults=plan, txn_timeout_cycles=3000).run()
        assert a == b  # full dataclass equality, floats included

    def test_trace_shows_each_attempt_exactly_once(self):
        rec = TraceRecorder(SMALL)
        engine = _engine(faults=_offline_plan(), txn_timeout_cycles=3000)
        engine.observers.append(rec)
        engine.run()
        engine.drain()
        uid_i, status_i, attempt_i = 0, 10, 11
        rows = [tuple(r) for r in rec.as_array().tolist()]
        # (uid, attempt) pairs are unique: no attempt recorded twice.
        pairs = [(r[uid_i], r[attempt_i]) for r in rows]
        assert len(pairs) == len(set(pairs))
        retried = {r[uid_i] for r in rows if r[attempt_i] > 0}
        assert retried, "scenario produced no retries"
        for uid in list(retried)[:20]:
            attempts = sorted(r[attempt_i] for r in rows if r[uid_i] == uid)
            # Contiguous attempt ordinals starting at 0 ...
            assert attempts == list(range(len(attempts)))
            final = [r for r in rows if r[uid_i] == uid
                     and r[attempt_i] == attempts[-1]]
            # ... and only the last attempt completed cleanly.
            assert final[0][status_i] == 0
            assert all(r[status_i] != 0 for r in rows if r[uid_i] == uid
                       and r[attempt_i] < attempts[-1])


# -- observer error surfacing ------------------------------------------------


class _ExplodingObserver:
    def __init__(self, after=5):
        self.seen = 0
        self.after = after

    def on_complete(self, txn, cycle):
        self.seen += 1
        if self.seen >= self.after:
            raise ValueError("boom")


class TestObserverErrors:
    @pytest.mark.parametrize("engine_tier", ENGINE_TIERS)
    def test_raising_observer_surfaces_typed_error(self, engine_tier):
        engine = _engine(cycles=800, warmup=100, engine=engine_tier)
        engine.observers.append(_ExplodingObserver())
        with pytest.raises(ObserverError, match="boom"):
            engine.run()
        # Accounting survived: the engine counted the batch before
        # observers ran, so conservation still holds.
        issued = sum(mp.issued for mp in engine.masters)
        completed = sum(mp.completed for mp in engine.masters)
        outstanding = sum(mp.outstanding for mp in engine.masters)
        assert completed <= issued
        assert outstanding == issued - completed


# -- chaos harness -----------------------------------------------------------


class TestChaos:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos scenario"):
            run_scenario("meteor-strike", platform=SMALL, cycles=600)

    def test_pch_offline_scenario_recovers(self):
        r = run_scenario("pch-offline", fabric=FabricKind.MAO,
                         cycles=1200, platform=SMALL)
        assert r.completed
        assert r.dead_pchs == (2,)
        assert r.unrecoverable == 0
        assert r.retries > 0
        assert 0.5 < r.retained <= 1.01

    def test_strict_scenario_trips_watchdog(self):
        r = run_scenario("pch-offline-strict", fabric=FabricKind.MAO,
                         cycles=1200, platform=SMALL)
        assert not r.completed
        assert r.outcome == "TransactionTimeout"

    def test_format_report_renders_all_scenarios(self):
        results = [run_scenario(k, fabric=FabricKind.MAO, cycles=600,
                                platform=SMALL)
                   for k in sorted(SCENARIOS)]
        text = format_report(results)
        for key in SCENARIOS:
            assert f"'{key}'" in text
        assert "retained" in text


# -- config plumbing ---------------------------------------------------------


class TestResilienceConfig:
    def test_timeout_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(txn_timeout_cycles=0)
        with pytest.raises(ConfigError):
            SimConfig(progress_timeout_cycles=-5)
        with pytest.raises(ConfigError):
            SimConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            SimConfig(retry_backoff_cycles=0)
        with pytest.raises(ConfigError):
            SimConfig(retry_backoff_cycles=64, retry_backoff_cap=32)

    def test_backoff_cap_must_fit_watchdog_window(self):
        """A retry parked past the watchdog deadline is a silent hang
        disguised as a timeout; the config rejects the combination."""
        with pytest.raises(ConfigError, match="retry_backoff_cap"):
            SimConfig(txn_timeout_cycles=600)  # default cap is 1024
        with pytest.raises(ConfigError, match="retry_backoff_cap"):
            SimConfig(txn_timeout_cycles=1024, retry_backoff_cap=1024)
        # Equal-or-below cap with headroom is fine.
        cfg = SimConfig(txn_timeout_cycles=2048, retry_backoff_cap=1024)
        assert cfg.retry_backoff_cap < cfg.txn_timeout_cycles

    def test_retry_knobs_reach_masters(self):
        engine = _engine(max_retries=3, retry_backoff_cycles=32,
                         retry_backoff_cap=256)
        for mp in engine.masters:
            assert mp.max_retries == 3
            assert mp.backoff_base == 32
            assert mp.backoff_cap == 256

    def test_healthy_run_with_watchdogs_is_unchanged(self):
        plain = _engine().run()
        guarded = _engine(txn_timeout_cycles=5000,
                          progress_timeout_cycles=5000).run()
        assert plain == guarded
