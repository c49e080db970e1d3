"""Chaos harness: sweep fault scenarios, report resilience.

Each named scenario builds a :class:`~repro.faults.plan.FaultPlan` scaled
to the run length, then the harness simulates the *same* traffic twice —
once fault-free, once under the plan with both watchdogs armed — and
summarizes what survived (a suite of scenarios shares one fault-free
run):

* bandwidth retained (faulted vs. baseline steady-state GB/s),
* read p99 latency inflation (successful attempts only, so NACKed
  attempts don't pollute the distribution),
* recovery effort (retries, NACKs, ECC corrections) and losses
  (uncorrectable beats, transactions abandoned past ``max_retries``),
* channels left dead at the end of the run.

Everything is deterministic given (scenario, fabric, pattern, cycles,
seed), and bit-identical between the engine's fast path and legacy loop,
so the report can be golden-file tested and diffed across engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, FaultError
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim import Engine, SimConfig, TraceRecorder
from ..sim.cache import DEFAULT_CACHE, sweep_key
from ..sim.stats import SimReport
from ..sim.trace import FIELDS
from ..traffic import make_pattern_sources
from ..types import FabricKind, Pattern
from .plan import FaultEvent, FaultKind, FaultPlan

#: (cycles, seed) -> FaultPlan
PlanBuilder = Callable[[int, int], FaultPlan]


@dataclass(frozen=True)
class ChaosScenario:
    """A named, run-length-scaled fault schedule."""

    key: str
    title: str
    build: PlanBuilder


def _onset(cycles: int) -> int:
    """Faults manifest a third of the way in: past warmup, with enough
    tail left for recovery to show up in the measurement window."""
    return max(1, cycles // 3)


def _pch_offline(cycles: int, seed: int) -> FaultPlan:
    return FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=_onset(cycles),
                                 pch=2)],
                     seed=seed, degrade=True)


def _pch_offline_strict(cycles: int, seed: int) -> FaultPlan:
    return FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=_onset(cycles),
                                 pch=2)],
                     seed=seed, degrade=False)


def _refresh_storm(cycles: int, seed: int) -> FaultPlan:
    return FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=_onset(cycles),
                                 pch=1, duration=max(1, cycles // 4),
                                 factor=3.0)],
                     seed=seed)


def _link_stall(cycles: int, seed: int) -> FaultPlan:
    return FaultPlan([FaultEvent(FaultKind.LINK_STALL, at=_onset(cycles),
                                 cut=None, duration=max(1, cycles // 4))],
                     seed=seed)


def _ecc_storm(cycles: int, seed: int) -> FaultPlan:
    return FaultPlan([FaultEvent(FaultKind.DATA_CORRUPT, at=_onset(cycles),
                                 pch=None, duration=max(1, cycles // 4),
                                 rate=0.02)],
                     seed=seed, dbit_fraction=0.05)


#: The scenario library, keyed by CLI name.
SCENARIOS: Dict[str, ChaosScenario] = {
    s.key: s for s in (
        ChaosScenario(
            "pch-offline",
            "hard channel failure, degradation masks + remaps",
            _pch_offline),
        ChaosScenario(
            "pch-offline-strict",
            "hard channel failure, no degradation: watchdog must trip",
            _pch_offline_strict),
        ChaosScenario(
            "refresh-storm",
            "one channel 3x slow for a quarter of the run",
            _refresh_storm),
        ChaosScenario(
            "link-stall",
            "every lateral cut / distribution stage frozen briefly",
            _link_stall),
        ChaosScenario(
            "ecc-storm",
            "2% of read beats corrupted; SECDED corrects or poisons",
            _ecc_storm),
    )
}


@dataclass(frozen=True)
class ChaosResult:
    """Resilience summary of one scenario: baseline vs. faulted run."""

    scenario: str
    fabric: str
    pattern: str
    cycles: int
    seed: int
    plan_text: str
    #: Whether the plan's degradation policy was enabled.
    degraded: bool
    #: "completed", or the FaultError subclass that aborted the run.
    outcome: str
    baseline_gbps: float
    faulted_gbps: float
    baseline_read_p99: float
    faulted_read_p99: float
    retries: int
    nacks: int
    ecc_corrected: int
    ecc_uncorrectable: int
    unrecoverable: int
    dead_pchs: Tuple[int, ...]

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def retained(self) -> float:
        """Fraction of baseline bandwidth the faulted run delivered."""
        if self.baseline_gbps <= 0.0:
            return 0.0
        return self.faulted_gbps / self.baseline_gbps

    @property
    def p99_inflation(self) -> float:
        """Faulted / baseline read p99 ratio (1.0 = unchanged)."""
        if self.baseline_read_p99 <= 0.0:
            return 0.0
        return self.faulted_read_p99 / self.baseline_read_p99


def _read_p99(rec: TraceRecorder) -> float:
    """p99 round-trip latency (accel cycles) of *successful* read
    attempts — NACK bounces are recovery traffic, not service latency."""
    arr = rec.as_array()
    if arr.size == 0:
        return 0.0
    ok = arr[(arr[:, FIELDS.index("status")] == 0)
             & (arr[:, FIELDS.index("is_read")] == 1)]
    if ok.size == 0:
        return 0.0
    lat = (ok[:, FIELDS.index("complete")]
           - ok[:, FIELDS.index("issue")]).astype(np.float64)
    return float(np.percentile(lat * rec.platform.clock_ratio, 99))


def _worst_latency(rec: TraceRecorder) -> int:
    """Max round-trip latency (engine cycles) over successful attempts."""
    arr = rec.as_array()
    if arr.size == 0:
        return 0
    ok = arr[arr[:, FIELDS.index("status")] == 0]
    if ok.size == 0:
        return 0
    return int((ok[:, FIELDS.index("complete")]
                - ok[:, FIELDS.index("issue")]).max())


def _one_run(
    fabric_kind: FabricKind,
    pattern: Pattern,
    cfg: SimConfig,
    platform: HbmPlatform,
    seed: int,
    faults: Optional[FaultPlan],
    telemetry=None,
) -> Tuple[Optional[SimReport], TraceRecorder, str]:
    """Simulate once; a watchdog abort yields (None, trace, error name)."""
    from .. import make_fabric

    fab = make_fabric(fabric_kind, platform)
    sources = make_pattern_sources(pattern, platform,
                                   address_map=fab.address_map, seed=seed)
    rec = TraceRecorder(platform)
    engine = Engine(fab, sources, cfg, observers=[rec], faults=faults)
    if telemetry is not None:
        telemetry.attach(engine)
    try:
        report = engine.run()
        engine.drain()
    except FaultError as exc:
        # Detection worked: the run aborted with a typed error instead of
        # hanging.  Report the class, not the message — messages carry
        # process-global transaction uids.
        return None, rec, type(exc).__name__
    return report, rec, "completed"


@dataclass(frozen=True)
class _Baseline:
    """What a scenario reads off its fault-free run, which depends only on
    (fabric, pattern, cycles, seed, platform): a suite runs it once."""

    gbps: float
    read_p99: float
    #: Watchdog guard of the faulted runs, calibrated from this run.
    guard: int


def _baseline(fabric: FabricKind, pattern: Pattern, cycles: int, seed: int,
              platform: HbmPlatform) -> _Baseline:
    # The baseline is fault-free by construction, so it runs with no
    # watchdogs armed — and then *calibrates* the guard for the faulted
    # run.  Worst healthy latency is a property of the exact (fabric,
    # pattern, horizon) point only the run itself knows: saturated
    # crossing patterns legitimately queue for several multiples of the
    # horizon, strided ones finish in hundreds of cycles.  4x the worst
    # healthy round trip clears every recoverable disturbance the
    # scenario library injects (a 3x-slowed channel, retry backoff) while
    # a genuinely dead channel still trips it.  Healthy runs are
    # bit-identical with and without watchdogs, so disarming the baseline
    # changes no numbers.
    base_cfg = SimConfig(cycles=cycles, warmup=cycles // 5)
    base_rep, base_rec, base_outcome = _one_run(
        fabric, pattern, base_cfg, platform, seed, None)
    assert base_rep is not None, f"fault-free baseline {base_outcome}"
    return _Baseline(
        gbps=base_rep.total_gbps, read_p99=_read_p99(base_rec),
        guard=max(2000, 2 * cycles, 4 * _worst_latency(base_rec)))


def _check(scenario: str, cycles: int) -> None:
    """Raise a ConfigError for an unknown scenario or a too-short run."""
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown chaos scenario {scenario!r}; "
            f"choose from {sorted(SCENARIOS)}")
    if cycles < 30:
        raise ConfigError("chaos runs need at least 30 cycles")


def _against(scenario: str, fabric: FabricKind, pattern: Pattern,
             cycles: int, seed: int, platform: HbmPlatform, base: _Baseline,
             telemetry=None) -> ChaosResult:
    """Run one scenario's faulted run and summarize it against ``base``."""
    plan = SCENARIOS[scenario].build(cycles, seed)
    cfg = SimConfig(cycles=cycles, warmup=cycles // 5,
                    txn_timeout_cycles=base.guard,
                    progress_timeout_cycles=base.guard)
    flt_rep, flt_rec, outcome = _one_run(
        fabric, pattern, cfg, platform, seed, plan, telemetry=telemetry)

    return ChaosResult(
        scenario=scenario,
        fabric=fabric.value,
        pattern=pattern.name,
        cycles=cycles,
        seed=seed,
        plan_text=plan.describe(),
        degraded=plan.degrade,
        outcome=outcome,
        baseline_gbps=base.gbps,
        faulted_gbps=flt_rep.total_gbps if flt_rep else 0.0,
        baseline_read_p99=base.read_p99,
        faulted_read_p99=_read_p99(flt_rec),
        retries=flt_rep.retries if flt_rep else 0,
        nacks=flt_rep.nacks if flt_rep else 0,
        ecc_corrected=flt_rep.ecc_corrected if flt_rep else 0,
        ecc_uncorrectable=flt_rep.ecc_uncorrectable if flt_rep else 0,
        unrecoverable=flt_rep.unrecoverable if flt_rep else 0,
        dead_pchs=tuple(flt_rep.dead_pchs) if flt_rep else (),
    )


def run_scenario(
    scenario: str,
    fabric: FabricKind = FabricKind.XLNX,
    pattern: Pattern = Pattern.SCS,
    cycles: int = 6000,
    seed: int = 0,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    telemetry=None,
) -> ChaosResult:
    """Run one scenario and its fault-free baseline; summarize.

    ``telemetry`` (an unattached
    :class:`~repro.telemetry.sampler.Telemetry`) is attached to the
    *faulted* run, so its samples cover the disturbance and recovery the
    scenario is about; the baseline stays unobserved.
    """
    _check(scenario, cycles)
    base = _baseline(fabric, pattern, cycles, seed, platform)
    return _against(scenario, fabric, pattern, cycles, seed, platform, base,
                    telemetry=telemetry)


def _suite_point(args: tuple) -> ChaosResult:
    """One suite scenario against the suite's baseline (module-level so
    it is process-pool picklable)."""
    return _against(*args)


def _suite_point_key(args: tuple) -> tuple:
    """Result-store key of one suite scenario (its plan included, so an
    edited scenario never answers from a stale entry)."""
    key, fabric, pattern, cycles, seed, platform = args[:6]
    return sweep_key("chaos-scenario", platform, scenario=key,
                     plan=SCENARIOS[key].build(cycles, seed), fabric=fabric,
                     pattern=pattern, cycles=cycles, seed=seed)


def run_suite(
    scenarios: Optional[Sequence[str]] = None,
    fabric: FabricKind = FabricKind.XLNX,
    pattern: Pattern = Pattern.SCS,
    cycles: int = 6000,
    seed: int = 0,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    workers: int = 1,
) -> List[ChaosResult]:
    """Run several scenarios (default: the whole library, sorted).

    The scenarios share one fault-free baseline, which the parent runs
    once unless every scenario is in the result store.  Their faulted
    runs go on the supervised sweep runtime: with ``workers > 1`` they
    fan out over a crash-supervised process pool, and a
    scenario that crashes its worker surfaces as a structured
    :class:`~repro.errors.SweepError` instead of a bare
    ``BrokenProcessPool``.  Results are deterministic and identical at
    any worker count.  Each finished scenario goes to the result store,
    so a re-run against the same ``REPRO_SIM_CACHE_DIR`` simulates only
    the scenarios an interrupted run did not finish.
    """
    keys = sorted(SCENARIOS) if scenarios is None else list(scenarios)
    # Pre-validate inputs here so a typo'd scenario still raises a plain
    # ConfigError, not a sweep failure wrapping one.
    for key in keys:
        _check(key, cycles)
    from ..experiments.parallel import parallel_sweep
    points = [(k, fabric, pattern, cycles, seed, platform) for k in keys]
    base = None
    if any(_suite_point_key(p) not in DEFAULT_CACHE for p in points):
        base = _baseline(fabric, pattern, cycles, seed, platform)
    return parallel_sweep(_suite_point, [p + (base,) for p in points],
                          workers, cache=DEFAULT_CACHE,
                          key_fn=_suite_point_key)


def format_result(r: ChaosResult) -> str:
    """Human-readable resilience report for one scenario."""
    plan = r.plan_text.replace("\n", "\n" + " " * 24)
    lines = [
        f"chaos scenario '{r.scenario}'  "
        f"[{r.fabric} / {r.pattern}, {r.cycles} cycles, seed {r.seed}]",
        f"  fault plan          : {plan}",
        f"  outcome             : {r.outcome}",
    ]
    if r.completed:
        lines += [
            f"  bandwidth           : {r.baseline_gbps:7.2f} -> "
            f"{r.faulted_gbps:7.2f} GB/s  ({100.0 * r.retained:5.1f}% "
            f"retained)",
            f"  read p99 latency    : {r.baseline_read_p99:7.1f} -> "
            f"{r.faulted_read_p99:7.1f} accel cycles  "
            f"(x{r.p99_inflation:.2f})",
            f"  retries / nacks     : {r.retries} / {r.nacks}",
            f"  ecc corrected       : {r.ecc_corrected}   "
            f"uncorrectable: {r.ecc_uncorrectable}",
            f"  unrecoverable loss  : {r.unrecoverable}",
            f"  dead channels       : {list(r.dead_pchs)}",
        ]
    elif r.degraded:
        lines += [
            "  (run aborted by watchdog despite degradation — the "
            "horizon left no room to recover; raise --cycles)",
        ]
    else:
        lines += [
            "  (run aborted by watchdog — fault detected, no silent "
            "loss; enable degradation to recover instead)",
        ]
    return "\n".join(lines)


def format_report(results: Sequence[ChaosResult]) -> str:
    """Join per-scenario reports into one document."""
    return "\n\n".join(format_result(r) for r in results)
