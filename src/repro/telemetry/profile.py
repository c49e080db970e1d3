"""Profile one experiment's representative point under full telemetry.

``repro-hbm profile <experiment>`` answers the question the aggregate
experiment tables cannot: *where inside the machine* did this workload's
bandwidth go.  Each profilable experiment maps to one representative
simulation point (the configuration its figure/table is *about*); the
profiler runs that point once with a :class:`~repro.sim.trace.TraceRecorder`
and an attached :class:`~repro.telemetry.sampler.Telemetry`, then emits

* a deterministic text summary with the ranked bottleneck report,
* optionally a Perfetto/Chrome trace JSON (``--trace-out``),
* optionally a provenance manifest (``--manifest-out``).

The ``chaos`` experiment profiles its refresh-storm scenario under the
fault plan, so the timeline shows the disturbance and the recovery.

This module is intentionally *not* imported from
``repro.telemetry.__init__``: it pulls in the experiment/traffic layers,
which would create an import cycle for fabrics exposing telemetry probes.
The CLI imports it lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ConfigError
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim import Engine, SimConfig, TraceRecorder
from ..sim.cache import DEFAULT_CACHE
from ..sim.stats import SimReport
from ..traffic import make_pattern_sources
from ..types import FabricKind, Pattern, RWRatio
from .. import make_fabric
from .bottleneck import BottleneckAnalysis, analyze, format_report
from .export import chrome_trace, write_chrome_trace
from .manifest import build_manifest
from .sampler import Telemetry


@dataclass(frozen=True)
class ProfilePoint:
    """The representative simulation point of one experiment."""

    fabric: FabricKind
    pattern: Pattern
    burst_len: int = 16
    rw: RWRatio = RWRatio(2, 1)
    #: Chaos scenario key to inject while profiling, or ``None``.
    scenario: Optional[str] = None
    note: str = ""

    def describe(self) -> str:
        s = (f"{self.fabric.value} / {self.pattern.name} "
             f"x{self.burst_len} rw {self.rw.reads}:{self.rw.writes}")
        if self.scenario:
            s += f" + chaos '{self.scenario}'"
        return s


#: Experiment key -> the point its profile runs.  Keys absent here
#: (``table3``) have no simulation to profile.
PROFILE_POINTS: Dict[str, ProfilePoint] = {
    "fig2": ProfilePoint(FabricKind.XLNX, Pattern.SCS,
                         note="partitioned streams at the peak 2:1 ratio"),
    "fig3": ProfilePoint(FabricKind.XLNX, Pattern.CCS,
                         note="cross-channel streams through the switch"),
    "fig4": ProfilePoint(FabricKind.XLNX, Pattern.CCS,
                         note="lateral-link pressure of crossing traffic"),
    "fig5": ProfilePoint(FabricKind.MAO, Pattern.SCRA, burst_len=4,
                         note="short strided random access under MAO"),
    "fig6": ProfilePoint(FabricKind.MAO, Pattern.CCRA, burst_len=4,
                         note="reordered cross-channel random access"),
    "fig7": ProfilePoint(FabricKind.XLNX, Pattern.SCS, rw=RWRatio(1, 0),
                         note="read-only streaming (roofline bandwidth)"),
    "table2": ProfilePoint(FabricKind.XLNX, Pattern.SCS, rw=RWRatio(1, 0),
                           note="latency scenario traffic"),
    "table4": ProfilePoint(FabricKind.MAO, Pattern.CCRA,
                           note="MAO throughput point"),
    "table5": ProfilePoint(FabricKind.XLNX, Pattern.SCS,
                           note="accelerator streaming traffic"),
    "extensions": ProfilePoint(FabricKind.IDEAL, Pattern.CCRA,
                               note="zero-contention reference crossbar"),
    "chaos": ProfilePoint(FabricKind.XLNX, Pattern.SCS,
                          scenario="refresh-storm",
                          note="fault timeline: one channel 3x slow"),
}


@dataclass
class ProfileResult:
    """Everything one profiling run produced."""

    experiment: str
    point: ProfilePoint
    report: SimReport
    telemetry: Telemetry
    recorder: TraceRecorder
    analysis: BottleneckAnalysis
    manifest: Dict[str, Any]
    summary: str


def _default_interval(cycles: int) -> int:
    """~64 samples per run, never denser than every 16 cycles."""
    return max(16, cycles // 64)


def profile_experiment(
    key: str,
    cycles: int = 6000,
    interval: Optional[int] = None,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    seed: int = 0,
    trace_out: Optional[str] = None,
    manifest_out: Optional[str] = None,
) -> ProfileResult:
    """Profile the representative point of ``key`` (see PROFILE_POINTS)."""
    point = PROFILE_POINTS.get(key)
    if point is None:
        have = ", ".join(sorted(PROFILE_POINTS))
        raise ConfigError(
            f"experiment {key!r} has no profilable simulation point; "
            f"choose from {have}")
    if interval is None:
        interval = _default_interval(cycles)

    plan = None
    if point.scenario is not None:
        from ..faults.chaos import SCENARIOS
        plan = SCENARIOS[point.scenario].build(cycles, seed)

    fab = make_fabric(point.fabric, platform)
    sources = make_pattern_sources(
        point.pattern, platform, burst_len=point.burst_len, rw=point.rw,
        address_map=fab.address_map, seed=seed)
    cfg = SimConfig(cycles=cycles, warmup=min(cycles // 4, 3_000),
                    telemetry=True, telemetry_interval=interval)
    rec = TraceRecorder(platform)
    engine = Engine(fab, sources, cfg, observers=[rec], faults=plan)
    # The config's telemetry flag made the engine attach a sampler;
    # keep a handle on it for the analysis below.
    tele = engine.telemetry
    assert tele is not None
    report = engine.run()
    engine.drain()

    analysis = analyze(tele, platform, cfg.cycles, report.total_gbps)
    manifest = build_manifest(
        key, platform, cfg, seed=seed, fault_plan=plan,
        cache_hits=DEFAULT_CACHE.hits, cache_misses=DEFAULT_CACHE.misses,
        extra={"profile_point": point.describe(),
               "samples": tele.num_samples,
               "fast_path_jumps": len(tele.jumps),
               "skipped_cycles": tele.skipped_cycles()})

    summary = format_summary(key, point, cfg, report, tele, rec, analysis)

    if trace_out is not None:
        write_chrome_trace(trace_out, chrome_trace(
            recorder=rec, telemetry=tele, platform=platform))
    if manifest_out is not None:
        from .manifest import write_manifest
        write_manifest(manifest_out, manifest)

    return ProfileResult(
        experiment=key, point=point, report=report, telemetry=tele,
        recorder=rec, analysis=analysis, manifest=manifest, summary=summary)


def format_summary(
    key: str,
    point: ProfilePoint,
    cfg: SimConfig,
    report: SimReport,
    tele: Telemetry,
    rec: TraceRecorder,
    analysis: BottleneckAnalysis,
) -> str:
    """Deterministic profile summary (golden-file tested)."""
    path = "fast path" if cfg.engine == "fast" else "legacy loop"
    lines = [
        f"profile: {key} — {point.describe()}, {cfg.cycles} cycles ({path})",
    ]
    if point.note:
        lines.append(f"  point     : {point.note}")
    lines.append(format_report(analysis))
    lines.append(
        f"  telemetry : {len(tele.probes)} probes, {tele.num_samples} "
        f"samples (interval {tele.interval}), {len(tele.jumps)} fast-path "
        f"jumps skipping {tele.skipped_cycles()} cycles")
    dropped = f" ({rec.dropped} dropped)" if rec.dropped else ""
    lines.append(
        f"  trace     : {len(rec)} transaction attempts recorded{dropped}")
    return "\n".join(lines)
