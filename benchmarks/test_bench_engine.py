"""Engine-tier wall-clock benchmarks: legacy vs. fast.

Three measured points, each asserting bit-identity before timing is even
reported (a fast-but-wrong engine is worthless):

1. ``mao-depth1-ccra`` — the saturated Fig. 6 reorder-depth-1 point.
   The fast path polls every lane-saturated master every cycle, so it
   has nothing to skip here; the ratio is recorded, not asserted.
2. ``seg-ccs-hot`` — the saturated Fig. 2 hot-spot point on the vendor
   fabric, where masters blocked on a full ingress FIFO are stepped
   every cycle; recorded, not asserted.
3. ``starvation-window`` — the hot PCH goes offline with no degrade
   remap and no watchdogs: every credit parks behind the dead channel.
   The fabric's event horizon parks the dead channel's queue and proves
   the refused staged deque cannot move without a scheduler pop, so
   the fast tier jumps the window.  This is the ≥10× acceptance point.

Each run writes its results — wall-clock seconds and stepped-cycle
counts per engine per point, plus the fast/legacy speedup — to
``BENCH_engine.json`` under pytest's base temporary directory, so a run
never touches the tracked file.  To refresh the committed numbers the
assertions were calibrated against, run with ``--basetemp DIR`` and copy
``DIR/BENCH_engine.json`` over ``benchmarks/BENCH_engine.json``.
"""

import json
import time

import pytest

from repro.core.mao import MaoConfig
from repro.fabric import MaoFabric, SegmentedFabric
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

from conftest import show

#: Module-level accumulator; each benchmark adds its point, and the file
#: is rewritten after every update so partial runs still record.
_RESULTS = {}


@pytest.fixture
def bench_out(tmp_path_factory):
    return tmp_path_factory.getbasetemp() / "BENCH_engine.json"


def _measure(out, name, build, cycles, warmup, outstanding, faults=None):
    """Time one run per engine tier; assert reports bit-identical."""
    point = {}
    reports = {}
    for engine in ENGINE_TIERS:
        fabric, sources = build()
        cfg = SimConfig(cycles=cycles, warmup=warmup,
                        outstanding=outstanding, engine=engine)
        eng = Engine(fabric, sources, cfg, faults=faults)
        t0 = time.perf_counter()
        reports[engine] = eng.run()
        elapsed = time.perf_counter() - t0
        point[engine] = {"seconds": round(elapsed, 4),
                         "stepped_cycles": eng.stepped_cycles}
    assert reports["fast"] == reports["legacy"], f"{name}: fast != legacy"
    point["speedup_fast_vs_legacy"] = round(
        point["legacy"]["seconds"] / point["fast"]["seconds"], 2)
    point["cycles"] = cycles
    _RESULTS[name] = point
    with open(out, "w") as fh:
        json.dump(_RESULTS, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return point, reports["legacy"]


def _fmt(name, point):
    rows = "\n".join(
        f"{tier:7s}: {point[tier]['seconds']:7.3f}s  "
        f"stepped {point[tier]['stepped_cycles']}"
        for tier in ENGINE_TIERS)
    return (f"{rows}\n"
            f"fast vs legacy: {point['speedup_fast_vs_legacy']:.2f}x")


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_engine_mao_depth1(benchmark, bench_out):
    """Saturated reorder-depth-1 random reads (the Fig. 6 floor)."""
    def build():
        fab = MaoFabric(DEFAULT_PLATFORM,
                        MaoConfig(reorder_depth=1, stages=2))
        srcs = make_pattern_sources(Pattern.CCRA, DEFAULT_PLATFORM,
                                    burst_len=16, rw=READ_ONLY, seed=11)
        return fab, srcs

    def run():
        return _measure(bench_out, "mao-depth1-ccra", build, cycles=12_000,
                        warmup=2_000, outstanding=32)

    point, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: MAO depth-1 CCRA (saturated)", _fmt("x", point))


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_engine_seg_hotspot(benchmark, bench_out):
    """Vendor-fabric hot-spot (the Fig. 2 CCS collapse)."""
    def build():
        fab = SegmentedFabric(DEFAULT_PLATFORM)
        srcs = make_pattern_sources(Pattern.CCS, DEFAULT_PLATFORM,
                                    burst_len=16, rw=TWO_TO_ONE, seed=3)
        return fab, srcs

    def run():
        return _measure(bench_out, "seg-ccs-hot", build, cycles=12_000,
                        warmup=2_000, outstanding=32)

    point, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: segmented CCS hot-spot", _fmt("x", point))


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_engine_starvation_window(benchmark, bench_out):
    """The ≥10x acceptance point: a starved fabric that the fast tier
    proves idle through the fabric's event horizon."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=2000, pch=0)],
                     degrade=False)

    def build():
        fab = MaoFabric(DEFAULT_PLATFORM)
        srcs = make_hotspot_sources(0, DEFAULT_PLATFORM, burst_len=8,
                                    rw=READ_ONLY,
                                    address_map=fab.address_map)
        return fab, srcs

    def run():
        return _measure(bench_out, "starvation-window", build, cycles=60_000,
                        warmup=1_000, outstanding=32, faults=plan)

    point, report = benchmark.pedantic(run, rounds=1, iterations=1)
    show("Engine tiers: starvation window (offline hot PCH, no degrade)",
         _fmt("x", point))
    # The fast tier must jump the dead window, not merely shave it.
    assert point["fast"]["stepped_cycles"] < 10_000
    assert point["speedup_fast_vs_legacy"] >= 10.0
