"""The code in docs/TUTORIAL.md must actually run (doc rot guard)."""

import numpy as np
import pytest


def test_step1_estimate():
    from repro.core.estimator import BandwidthEstimator, EstimateInputs
    from repro.types import FabricKind, Pattern, RWRatio
    est = BandwidthEstimator()
    values = {}
    for fabric in (FabricKind.XLNX, FabricKind.MAO):
        e = est.estimate(EstimateInputs(fabric=fabric, pattern=Pattern.CCRA,
                                        rw=RWRatio(4, 1)))
        values[fabric] = e.total_gbps
    assert values[FabricKind.MAO] > values[FabricKind.XLNX]


def test_step2_guidelines():
    from repro.core.guidelines import DesignDescription, evaluate_guidelines
    from repro.types import FabricKind, Pattern, RWRatio
    design = DesignDescription(pattern=Pattern.CCRA, fabric=FabricKind.XLNX,
                               rw=RWRatio(4, 1), burst_len=4, outstanding=8)
    findings = evaluate_guidelines(design)
    assert findings


def test_step3_measure_and_trace():
    from repro import make_fabric
    from repro.sim import Engine, SimConfig, TraceRecorder
    from repro.traffic import make_pattern_sources
    from repro.types import FabricKind, Pattern, RWRatio
    fabric = make_fabric(FabricKind.MAO)
    sources = make_pattern_sources(Pattern.CCRA, rw=RWRatio(4, 1),
                                   address_map=fabric.address_map)
    rec = TraceRecorder()
    report = Engine(fabric, sources, SimConfig(cycles=2500, warmup=500),
                    observers=[rec]).run()
    assert report.total_gbps > 0
    assert rec.latency_percentiles()[99] > 0


def test_step4_roofline():
    from repro.roofline import (Ceiling, CeilingKind, RooflineModel,
                                render_roofline)
    roof = RooflineModel([
        Ceiling("BW XLNX", CeilingKind.MEMORY, 70.0),
        Ceiling("BW MAO", CeilingKind.MEMORY, 240.0),
        Ceiling("SpMV compute", CeilingKind.COMPUTE, 38.4),
    ])
    vendor = roof.place("SpMV (XLNX)", opi=0.33, memory="BW XLNX")
    mao = roof.place("SpMV (MAO)", opi=0.33, memory="BW MAO")
    assert vendor.bound.value == "memory"
    assert mao.bound.value == "compute"
    assert vendor.performance_gops == pytest.approx(23.1, abs=0.1)
    text = render_roofline(roof, [vendor, mao], opi_range=(0.1, 100))
    assert "*" in text


def test_step5_memory():
    from repro.core.address_map import InterleavedMap
    from repro.memory import HbmMemory
    mem = HbmMemory(InterleavedMap())
    mem.write_array(0, np.arange(1024, dtype=np.int32))
    assert (mem.read_array(0, (1024,), np.int32)
            == np.arange(1024, dtype=np.int32)).all()


def test_step6_fit():
    from repro.core.mao import MaoConfig
    from repro.resources import MaoResourceModel, ResourceVector, XCVU37P
    core = ResourceVector(luts=120_000, ffs=180_000, dsp=512, bram36=96)
    mao = MaoResourceModel().estimate(MaoConfig()).resources
    XCVU37P.require_fits(core + mao, what="SpMV + MAO")


def test_step8_chaos():
    from repro import make_fabric
    from repro.faults import FaultEvent, FaultKind, FaultPlan
    from repro.sim import Engine, SimConfig
    from repro.traffic import make_pattern_sources
    from repro.types import FabricKind, Pattern
    fabric = make_fabric(FabricKind.MAO)
    sources = make_pattern_sources(Pattern.SCS,
                                   address_map=fabric.address_map)
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=800, pch=2)],
                     degrade=True)
    cfg = SimConfig(cycles=2000, warmup=400,
                    txn_timeout_cycles=12_000,
                    progress_timeout_cycles=12_000)
    engine = Engine(fabric, sources, cfg, faults=plan)
    report = engine.run()
    engine.drain()
    assert report.dead_pchs == [2]
    assert report.retries > 0
    assert report.unrecoverable == 0


def test_step10_profile():
    from repro import make_fabric
    from repro.sim import Engine, SimConfig
    from repro.telemetry import Telemetry, bottleneck_report
    from repro.traffic import make_pattern_sources
    from repro.types import FabricKind, Pattern
    fabric = make_fabric(FabricKind.XLNX)
    sources = make_pattern_sources(Pattern.SCS,
                                   address_map=fabric.address_map)
    tele = Telemetry(interval=200)
    engine = Engine(fabric, sources, SimConfig(cycles=2000, warmup=500))
    tele.attach(engine)
    report = engine.run()
    text = bottleneck_report(tele, report)
    assert "verdict" in text
    assert len(tele.series("master[0].credits_in_use")) == tele.num_samples


def test_step14_observers_leave_the_model_alone():
    from repro import make_fabric
    from repro.sim import Engine, SimConfig
    from repro.traffic import make_pattern_sources
    from repro.types import FabricKind, Pattern
    from tests.test_engine_fastpath import state_digest

    def final_digest(**observers):
        fabric = make_fabric(FabricKind.MAO)
        sources = make_pattern_sources(Pattern.SCS,
                                       address_map=fabric.address_map)
        cfg = SimConfig(cycles=1200, warmup=300, **observers)
        eng = Engine(fabric, sources, cfg)
        eng.run()
        return state_digest(eng.fabric, eng.masters)

    assert final_digest() == final_digest(sanitize=True, telemetry=True)


def test_appendix_spmv():
    from repro import make_fabric
    from repro.accelerators import make_spmv_sources
    from repro.sim import Engine, SimConfig
    from repro.types import FabricKind
    fabric = make_fabric(FabricKind.MAO)
    sources = make_spmv_sources(0.05, n=1 << 18)
    report = Engine(fabric, sources, SimConfig(cycles=2000, warmup=500)).run()
    assert report.total_gbps > 0
