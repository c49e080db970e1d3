"""Work budgets: how often the model's hot functions run on fixed points.

The report freeze (``tests/test_model_freeze.py``) pins what the model
computes; this test pins how much work it does to compute it.  Each
point runs once under cProfile on the fast tier, and the test compares
the engine's ``stepped_cycles`` and the call counts of the functions
that dominate the saturated and starved regimes with
``tests/golden/work_budgets.json``.  Call counts are deterministic, so
the gate is an exact match: a change that lowers a count re-records the
file with ``pytest tests/test_work_budgets.py --update-golden`` and
quotes the diff; a rise is a regression unless the change says why.

The points use the default platform, 2,000 cycles, BL16 traffic with
seed 5: CCRA 2:1 on each fabric, CCS 2:1 on the vendor fabric (blocked
masters), and MAO reorder depth 1 on read-only CCRA (lane-saturated
masters).  The starvation point sends hot-spot BL8 reads to PCH 9 on
the MAO and takes that channel offline at cycle 2,000 with no degrade
remap, for 30,000 cycles.

The tier is pinned in each :class:`~repro.sim.SimConfig`, so the budgets
do not move under ``REPRO_ENGINE``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path

import pytest

from repro.axi.master import MasterPort
from repro.core.mao import MaoConfig
from repro.dram.controller import MemoryController
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.fabric.base import BaseFabric
from repro.fabric.links import ArbOutput
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

GOLDEN = Path(__file__).parent / "golden" / "work_budgets.json"

#: Budgeted functions shared by every point; the fabric's ``step`` and
#: ``admits`` are added per point, named after the class defining them.
FUNCTIONS = {
    "MasterPort.step": MasterPort.step,
    "ArbOutput.step": ArbOutput.step,
    "ArbOutput._try_grant": ArbOutput._try_grant,
    "MemoryController.step": MemoryController.step,
    "MemoryController._pick": MemoryController._pick,
    "MemoryController.try_accept": MemoryController.try_accept,
    "MemoryController.room": MemoryController.room,
    "BaseFabric._retry_staged": BaseFabric._retry_staged,
}


def _table4(fabric, pattern, rw=TWO_TO_ONE):
    sources = make_pattern_sources(
        pattern, DEFAULT_PLATFORM, burst_len=16, rw=rw,
        address_map=fabric.address_map, seed=5)
    cfg = SimConfig(cycles=2000, warmup=500, engine="fast")
    return Engine(fabric, sources, cfg)


def _starve():
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=2000, pch=9)],
                     degrade=False)
    fabric = MaoFabric(DEFAULT_PLATFORM)
    sources = make_hotspot_sources(
        9, DEFAULT_PLATFORM, burst_len=8, rw=READ_ONLY,
        address_map=fabric.address_map)
    cfg = SimConfig(cycles=30_000, warmup=1000, engine="fast")
    return Engine(fabric, sources, cfg, faults=plan)


POINTS = {
    "xlnx/CCRA": lambda: _table4(SegmentedFabric(DEFAULT_PLATFORM),
                                 Pattern.CCRA),
    "mao/CCRA": lambda: _table4(MaoFabric(DEFAULT_PLATFORM), Pattern.CCRA),
    "ideal/CCRA": lambda: _table4(IdealFabric(DEFAULT_PLATFORM),
                                  Pattern.CCRA),
    "xlnx/CCS": lambda: _table4(SegmentedFabric(DEFAULT_PLATFORM),
                                Pattern.CCS),
    "mao-depth1/CCRA/1to0": lambda: _table4(
        MaoFabric(DEFAULT_PLATFORM, MaoConfig(reorder_depth=1)),
        Pattern.CCRA, READ_ONLY),
    "mao/starve-offline": _starve,
}


def _label(fn):
    """cProfile's key for a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def work_budget(engine) -> dict:
    """Stepped cycles and budgeted call counts of one profiled run."""
    functions = dict(FUNCTIONS)
    fabric_cls = type(engine.fabric)
    for method in (fabric_cls.step, fabric_cls.admits):
        functions[method.__qualname__] = method
    profiler = cProfile.Profile()
    profiler.runcall(engine.run)
    stats = pstats.Stats(profiler).stats
    calls = {}
    for name, fn in functions.items():
        entry = stats.get(_label(fn))
        calls[name] = 0 if entry is None else entry[1]
    return {"stepped_cycles": engine.stepped_cycles, "calls": calls}


def test_work_budgets_match(update_golden):
    got = {name: work_budget(make()) for name, make in POINTS.items()}
    if update_golden:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden work budgets rewritten")
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want), "the budgeted points changed"
    drift = []
    for point in sorted(got):
        g, w = got[point], want[point]
        if g["stepped_cycles"] != w["stepped_cycles"]:
            drift.append(f"{point}: stepped_cycles "
                         f"{w['stepped_cycles']} -> {g['stepped_cycles']}")
        for fn in sorted(set(g["calls"]) | set(w["calls"])):
            before, after = w["calls"].get(fn), g["calls"].get(fn)
            if before != after:
                drift.append(f"{point}: {fn} {before} -> {after}")
    assert not drift, "work budgets moved:\n" + "\n".join(drift)
