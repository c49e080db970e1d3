"""Tests for the telemetry subsystem: probes, sampler, exporters,
bottleneck analysis, provenance manifests, and the profile harness.

The load-bearing property is the differential one: attaching the
sampler — on either engine loop — must leave the simulation report
bit-identical to an unobserved run.  Telemetry is a pure observer.
"""

from __future__ import annotations

import json

import pytest

from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig, TraceRecorder
from repro.sim.config import ENGINE_TIERS
from repro.telemetry import (
    COUNTER, GAUGE, Log2Histogram, Probe, ProbeSet, Telemetry,
    build_manifest, chrome_trace, validate_chrome_trace, write_manifest,
    analyze, bottleneck_report, format_report, MANIFEST_SCHEMA,
)
from repro.traffic import make_pattern_sources
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

from tests.test_engine_fastpath import _model_digest

FABRICS = {
    "xlnx": SegmentedFabric,
    "mao": MaoFabric,
    "ideal": IdealFabric,
}

#: fabric x pattern grid for the pure-observer differential tests.
GRID = [
    ("xlnx", Pattern.SCS, TWO_TO_ONE),
    ("xlnx", Pattern.CCS, TWO_TO_ONE),
    ("mao", Pattern.CCRA, TWO_TO_ONE),
    ("mao", Pattern.CCS, READ_ONLY),
    ("ideal", Pattern.SCS, TWO_TO_ONE),
]


def _run(small_platform, fabric_key, pattern, rw, *, telemetry,
         cycles=1200, interval=64, outstanding=32, engine="fast"):
    fabric = FABRICS[fabric_key](small_platform)
    sources = make_pattern_sources(pattern, small_platform, burst_len=8,
                                   rw=rw, address_map=fabric.address_map)
    cfg = SimConfig(cycles=cycles, warmup=300, outstanding=outstanding,
                    engine=engine, telemetry=telemetry,
                    telemetry_interval=interval)
    engine_ = Engine(fabric, sources, cfg)
    return engine_, engine_.run()


# -- metrics primitives ------------------------------------------------------


class TestLog2Histogram:
    def test_bucketing(self):
        h = Log2Histogram()
        for v in (0, 1, 2, 3, 4, 1000):
            h.add(v)
        assert h.total == 6
        buckets = {lo: c for lo, _hi, c in h.nonzero()}
        assert buckets[0] == 1          # value 0
        assert buckets[1] == 1          # value 1
        assert buckets[2] == 2          # values 2, 3
        assert buckets[4] == 1          # value 4
        assert sum(buckets.values()) == 6

    def test_as_dict_round_trips_json(self):
        h = Log2Histogram()
        h.add(5)
        json.dumps(h.as_dict(), allow_nan=False)

    def test_empty(self):
        h = Log2Histogram()
        assert h.total == 0
        assert h.nonzero() == []


class TestProbeSet:
    def test_duplicate_names_rejected(self):
        ps = ProbeSet()
        ps.add(Probe("a.x", COUNTER, lambda: 0, "dram"))
        with pytest.raises(ValueError, match="a.x"):
            ps.add(Probe("a.x", GAUGE, lambda: 0, "dram"))

    def test_order_preserved(self):
        ps = ProbeSet()
        ps.extend([Probe("b", COUNTER, lambda: 0, "x"),
                   Probe("a", GAUGE, lambda: 0, "x")])
        assert [p.name for p in ps] == ["b", "a"]
        assert len(ps) == 2


# -- sampler -----------------------------------------------------------------


class TestSampler:
    def test_attach_twice_raises(self, small_platform):
        engine, _ = _run(small_platform, "ideal", Pattern.SCS, TWO_TO_ONE,
                         telemetry=True, cycles=400)
        tele = engine.telemetry
        assert tele is not None
        other_engine, _ = _run(small_platform, "ideal", Pattern.SCS,
                               TWO_TO_ONE, telemetry=False, cycles=400)
        with pytest.raises(RuntimeError):
            tele.attach(other_engine)

    def test_series_and_finals(self, small_platform):
        engine, report = _run(small_platform, "xlnx", Pattern.SCS,
                              TWO_TO_ONE, telemetry=True)
        tele = engine.telemetry
        assert tele.num_samples > 2
        # Counters are monotone; the final sample matches the finals() map.
        for p in range(small_platform.num_pch):
            values = [v for _c, v in tele.series(f"dram.pch{p}.beats")]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] == tele.finals()[f"dram.pch{p}.beats"]
        # The DRAM beat totals agree with the report's byte counters.
        beats = sum(tele.final_value(f"dram.pch{p}.beats")
                    for p in range(small_platform.num_pch))
        assert beats * small_platform.bytes_per_beat >= (
            report.read_bytes + report.write_bytes)

    def test_gauges_have_histograms_counters_do_not(self, small_platform):
        engine, _ = _run(small_platform, "xlnx", Pattern.SCS, TWO_TO_ONE,
                         telemetry=True)
        tele = engine.telemetry
        hist = tele.histogram("master[0].credits_in_use")
        assert hist.total == tele.num_samples
        with pytest.raises(KeyError):
            tele.histogram("dram.pch0.beats")  # counter: no distribution

    def test_fast_path_jumps_recorded(self, small_platform):
        # outstanding=1: each master waits out a full round trip between
        # issues, leaving quiescent stretches the fast path jumps over.
        engine, _ = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                         telemetry=True, outstanding=1)
        tele = engine.telemetry
        assert tele.jumps
        assert tele.skipped_cycles() == sum(
            t - c - 1 for c, t in tele.jumps)
        assert tele.skipped_cycles() > 0

    def test_sample_idempotent_per_cycle(self, small_platform):
        engine, _ = _run(small_platform, "ideal", Pattern.SCS, TWO_TO_ONE,
                         telemetry=True, cycles=400)
        tele = engine.telemetry
        n = tele.num_samples
        tele.sample(tele.sample_cycles[-1])  # same cycle: no-op
        assert tele.num_samples == n


# -- the pure-observer guarantee ---------------------------------------------


@pytest.mark.parametrize("fabric_key,pattern,rw", GRID,
                         ids=[f"{f}-{p.name}-{r.reads}to{r.writes}"
                              for f, p, r in GRID])
def test_telemetry_is_a_pure_observer(small_platform, fabric_key, pattern,
                                      rw):
    """Reports and model state are bit-identical with telemetry on vs.
    off, on the fast path — sampling must never perturb the simulation."""
    plain_eng, plain = _run(small_platform, fabric_key, pattern, rw,
                            telemetry=False)
    eng, observed = _run(small_platform, fabric_key, pattern, rw,
                         telemetry=True)
    assert plain == observed
    assert _model_digest(eng) == _model_digest(plain_eng)


def test_pure_observer_on_jumpy_workload(small_platform):
    """The event-horizon hook runs inside the fast path's jump branch —
    it too must not perturb the simulation."""
    _, plain = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                    telemetry=False, outstanding=1)
    engine, observed = _run(small_platform, "ideal", Pattern.SCRA,
                            READ_ONLY, telemetry=True, outstanding=1)
    assert engine.telemetry.jumps
    assert plain == observed


def test_telemetry_identical_across_engine_loops(small_platform):
    """Both tiers drive the sampler through the same cycle grid: grid
    samples that fall inside a clock jump are filled in from the frozen
    pre-jump state, so the sample schedule, every series, the gauge
    high-water marks and the bottleneck split match the per-cycle oracle
    even on a workload the fast tier jumps through."""
    e_legacy, r_legacy = _run(small_platform, "ideal", Pattern.SCRA,
                              READ_ONLY, telemetry=True, outstanding=1,
                              engine="legacy")
    eng, report = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                       telemetry=True, outstanding=1)
    tl, tele = e_legacy.telemetry, eng.telemetry
    assert not tl.jumps
    assert report == r_legacy
    assert tele.jumps  # the workload actually jumps
    assert tele.sample_cycles == tl.sample_cycles
    for probe in tele.probes:
        assert tele.series(probe.name) == tl.series(probe.name), probe.name
    assert tele.high_water_marks() == tl.high_water_marks()
    assert (bottleneck_report(tele, report)
            == bottleneck_report(tl, r_legacy))


def test_telemetry_finals_loop_invariant_despite_jumps(small_platform):
    """On a workload where the fast path does jump, every final counter
    total must agree with the per-cycle loop — the totals are simulation
    state, not sampling artifacts."""
    e_fast, r_fast = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                          telemetry=True, outstanding=1)
    e_legacy, r_legacy = _run(small_platform, "ideal", Pattern.SCRA,
                              READ_ONLY, telemetry=True, engine="legacy",
                              outstanding=1)
    assert r_fast == r_legacy
    tf, tl = e_fast.telemetry, e_legacy.telemetry
    assert tf.jumps and not tl.jumps
    finals_f, finals_l = tf.finals(), tl.finals()
    for probe in tf.probes:
        if probe.kind == COUNTER:
            assert finals_f[probe.name] == finals_l[probe.name], probe.name


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_non_dividing_interval_is_still_pure(small_platform, engine):
    """With a sampling interval that does *not* divide the engines' jump
    lengths (97 is prime), grid samples fall mid-jump: they are filled
    in, not simulated — telemetry stays a pure observer on every tier,
    the report is bit-identical to the telemetry-off run of the same
    tier, and every sample but the end-of-run one sits on the grid."""
    _, plain = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                    telemetry=False, outstanding=1, interval=97,
                    engine=engine)
    eng, observed = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                         telemetry=True, outstanding=1, interval=97,
                         engine=engine)
    assert plain == observed
    tele = eng.telemetry
    if engine != "legacy":
        assert tele.jumps  # the interval was actually exercised
        assert any(c < g < t for c, t in tele.jumps
                   for g in tele.sample_cycles)
    grid = list(range(0, eng.config.cycles, 97))
    assert tele.sample_cycles == grid + [eng.config.cycles - 1]


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_non_dividing_interval_reports_identical_across_engines(
        small_platform, engine):
    """And across tiers: the non-dividing interval must not open a gap
    between any engine's report and the legacy oracle's."""
    _, report = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                     telemetry=True, outstanding=1, interval=97,
                     engine=engine)
    _, oracle = _run(small_platform, "ideal", Pattern.SCRA, READ_ONLY,
                     telemetry=True, outstanding=1, interval=97,
                     engine="legacy")
    assert report == oracle


# -- exporters ---------------------------------------------------------------


class TestChromeTrace:
    def _trace(self, small_platform):
        fabric = SegmentedFabric(small_platform)
        sources = make_pattern_sources(Pattern.SCS, small_platform,
                                       burst_len=8,
                                       address_map=fabric.address_map)
        cfg = SimConfig(cycles=1200, warmup=300, telemetry=True,
                        telemetry_interval=64)
        rec = TraceRecorder(small_platform)
        engine = Engine(fabric, sources, cfg, observers=[rec])
        engine.run()
        engine.drain()
        return chrome_trace(recorder=rec, telemetry=engine.telemetry,
                            platform=small_platform)

    def test_schema_valid_and_json_serializable(self, small_platform):
        trace = self._trace(small_platform)
        assert validate_chrome_trace(trace) == []
        text = json.dumps(trace, allow_nan=False)
        assert json.loads(text)["traceEvents"]

    def test_contains_slices_counters_metadata(self, small_platform):
        events = self._trace(small_platform)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "C", "M"} <= phases
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in xs)

    def test_validator_catches_garbage(self):
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1}]})


# -- bottleneck analysis -----------------------------------------------------


class TestBottleneck:
    def test_requires_samples(self):
        tele = Telemetry(interval=64)
        with pytest.raises(ValueError):
            analyze(tele, DEFAULT_PLATFORM, 1000, 100.0)

    def test_analysis_on_real_run(self, small_platform):
        engine, report = _run(small_platform, "xlnx", Pattern.SCS,
                              TWO_TO_ONE, telemetry=True, cycles=2000)
        analysis = analyze(engine.telemetry, small_platform, report.cycles,
                           report.total_gbps)
        assert analysis.components  # something was active
        assert analysis.components == sorted(
            analysis.components, key=lambda c: (-c.utilization, c.name))
        if analysis.attribution:
            assert sum(analysis.attribution.values()) == pytest.approx(1.0)
        text = format_report(analysis)
        assert "verdict" in text and "GB/s" in text

    def test_report_convenience_wrapper(self, small_platform):
        engine, report = _run(small_platform, "mao", Pattern.CCRA,
                              TWO_TO_ONE, telemetry=True, cycles=2000)
        text = bottleneck_report(engine.telemetry, report)
        assert "achieved" in text


# -- provenance manifest -----------------------------------------------------


class TestManifest:
    def test_deterministic_bytes(self, tmp_path, small_platform):
        cfg = SimConfig(cycles=500, warmup=100, telemetry=True)
        m1 = build_manifest("fig2", small_platform, cfg, seed=3,
                            cache_hits=1, cache_misses=2)
        m2 = build_manifest("fig2", small_platform, cfg, seed=3,
                            cache_hits=1, cache_misses=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(str(p1), m1)
        write_manifest(str(p2), m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_wall_clock_and_schema(self, small_platform):
        cfg = SimConfig(cycles=500, warmup=100)
        m = build_manifest("fig3", small_platform, cfg)
        assert m["schema"] == MANIFEST_SCHEMA
        assert not any("time" in k or "date" in k for k in m)
        assert m["engine_path"] in ("fast", "legacy")
        json.dumps(m, allow_nan=False)


# -- profile harness ---------------------------------------------------------


class TestProfileExperiment:
    def test_profile_fig2_end_to_end(self, tmp_path):
        from repro.telemetry.profile import profile_experiment

        trace_path = tmp_path / "trace.json"
        manifest_path = tmp_path / "manifest.json"
        result = profile_experiment("fig2", cycles=1500,
                                    trace_out=str(trace_path),
                                    manifest_out=str(manifest_path))
        assert "verdict" in result.summary
        # The written trace is loadable, schema-valid Perfetto JSON.
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiment"] == "fig2"
        assert manifest["samples"] == result.telemetry.num_samples

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigError
        from repro.telemetry.profile import profile_experiment

        with pytest.raises(ConfigError):
            profile_experiment("table3")
