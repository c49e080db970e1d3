"""Report freeze: the model's outputs on a fixed grid, pinned by hash.

The fast-vs-legacy differential tests compare two loops over one model,
so they cannot see a change in code both loops share.  This test pins
what the model itself computes.  For every point it hashes three things
with SHA-256 and compares them with ``tests/golden/model_reports.json``:

* ``report`` — the :class:`~repro.sim.stats.SimReport`;
* ``probes`` — the final value of every ``fabric.telemetry_probes()``
  probe, which covers counters the report does not hold (per-link
  ``grant_stalls``, per-PCH ``port_stalls``);
* ``drain`` — the totals after ``engine.drain()``: drain cycles (or the
  drain's error type), the masters' transaction counts, the controllers'
  accepts and the summed DRAM counters.

The grid is the small platform (1,200 cycles) over 3 fabrics × 4
patterns × 3 R/W mixes × 2 traffic seeds, the 10 fault-grid plans, six
hot-spot degrade points, and two default-platform vendor-fabric points
(CCRA and CCS, 2,000 cycles) where lateral head-of-line blocking
dominates.  The hot-spot degrade points send every master to PCH 0 and
take PCH 0 offline under a degradation policy on the MAO and ideal
fabrics, so staged arrivals for the dead channel are NACKed from the
staging sweep while arrivals for survivors keep queueing.  Two more
default-platform CCRA points stall the lateral buses — every cut, and
cut 3 alone — while crossing traffic keeps them busy: the fault-grid
plans run SCS traffic, which hardly crosses a lateral, and a link stall
is the one write to a bus meter that no arbitration output makes.

A change that is meant to alter the model re-records the file with
``pytest tests/test_model_freeze.py --update-golden`` and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import (Pattern, RWRatio, READ_ONLY, TWO_TO_ONE,
                         WRITE_ONLY)
from tests.test_engine_fastpath import FABRICS, FAULT_GRID, FAULT_PLANS

GOLDEN = Path(__file__).parent / "golden" / "model_reports.json"

PATTERNS = (Pattern.SCS, Pattern.CCS, Pattern.SCRA, Pattern.CCRA)
MIXES = {"2to1": TWO_TO_ONE, "1to0": READ_ONLY, "1to1": RWRatio(1, 1)}
HOTSPOT_MIXES = {"2to1": TWO_TO_ONE, "1to0": READ_ONLY, "0to1": WRITE_ONLY}
SEEDS = (0, 1)

#: Drain budget: generous for every point, short enough that a drain
#: which cannot finish fails quickly on the per-cycle loop too.
DRAIN_CYCLES = 20_000


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_engine(platform, fabric_key, pattern, rw, seed):
    fabric = FABRICS[fabric_key](platform)
    sources = make_pattern_sources(
        pattern, platform, burst_len=8, rw=rw,
        address_map=fabric.address_map, seed=seed)
    cfg = SimConfig(cycles=1200, warmup=300, outstanding=32)
    return Engine(fabric, sources, cfg)


def _fault_engine(platform, fabric_key, plan_key, **cfg_kw):
    fabric = FABRICS[fabric_key](platform)
    sources = make_pattern_sources(
        Pattern.SCS, platform, burst_len=8, rw=TWO_TO_ONE,
        address_map=fabric.address_map)
    cfg = SimConfig(cycles=1200, warmup=300, outstanding=16,
                    txn_timeout_cycles=4000, progress_timeout_cycles=4000,
                    **cfg_kw)
    return Engine(fabric, sources, cfg, faults=FAULT_PLANS[plan_key])


def _hotspot_degrade_engine(platform, fabric_key, rw, **cfg_kw):
    fabric = FABRICS[fabric_key](platform)
    sources = make_hotspot_sources(
        0, platform, burst_len=8, rw=rw, address_map=fabric.address_map)
    cfg = SimConfig(cycles=1200, warmup=300, outstanding=16,
                    txn_timeout_cycles=4000, progress_timeout_cycles=4000,
                    **cfg_kw)
    return Engine(fabric, sources, cfg,
                  faults=FAULT_PLANS["hotspot-degrade"])


def _table4_engine(pattern, faults=None, fabric_key="xlnx", **cfg_kw):
    fabric = FABRICS[fabric_key](DEFAULT_PLATFORM)
    sources = make_pattern_sources(
        pattern, DEFAULT_PLATFORM, burst_len=16, rw=TWO_TO_ONE,
        address_map=fabric.address_map, seed=5)
    cfg = SimConfig(cycles=2000, warmup=500, **cfg_kw)
    return Engine(fabric, sources, cfg, faults=faults)


def link_stall_plan(cut):
    """Lateral cut ``cut`` (``None``: every cut) stalls for 400 cycles."""
    return FaultPlan([FaultEvent(FaultKind.LINK_STALL, at=600,
                                 duration=400, cut=cut)])


def freeze_points(small_platform):
    """``(point id, engine factory)`` for every frozen point."""
    points = []
    for fabric_key in sorted(FABRICS):
        for pattern in PATTERNS:
            for mix, rw in MIXES.items():
                for seed in SEEDS:
                    points.append((
                        f"{fabric_key}/{pattern.name}/{mix}/s{seed}",
                        lambda f=fabric_key, p=pattern, r=rw, s=seed:
                            _grid_engine(small_platform, f, p, r, s)))
    for fabric_key, plan_key in FAULT_GRID:
        points.append((
            f"{fabric_key}/fault/{plan_key}",
            lambda f=fabric_key, k=plan_key:
                _fault_engine(small_platform, f, k)))
    for fabric_key in ("mao", "ideal"):
        for mix, rw in HOTSPOT_MIXES.items():
            points.append((
                f"{fabric_key}/hotspot-degrade/{mix}",
                lambda f=fabric_key, r=rw:
                    _hotspot_degrade_engine(small_platform, f, r)))
    for pattern in (Pattern.CCRA, Pattern.CCS):
        points.append((f"default/xlnx/{pattern.name}",
                       lambda p=pattern: _table4_engine(p)))
    for tag, cut in (("all", None), ("cut3", 3)):
        points.append((f"default/xlnx/CCRA/link-stall-{tag}",
                       lambda c=cut: _table4_engine(Pattern.CCRA,
                                                    link_stall_plan(c))))
    return points


def freeze_hashes(engine) -> dict:
    """The three hashes of one point, running and draining ``engine``."""
    report = engine.run()
    fabric = engine.fabric
    probes = [(p.name, p.read()) for p in fabric.telemetry_probes()]
    try:
        drained = engine.drain(max_cycles=DRAIN_CYCLES)
    except ReproError as exc:  # a fault the drain cannot resolve
        drained = type(exc).__name__
    masters = engine.masters
    totals = {
        "drained": drained,
        "cycle": engine.cycle,
        "masters": [(mp.issued, mp.completed, mp.retries, mp.nacks,
                     mp.unrecoverable, mp.outstanding) for mp in masters],
        "accepts": [mc.accepts for mc in fabric.mcs],
        "dram": dataclasses.asdict(fabric.dram_counters()),
    }
    return {"report": _digest(dataclasses.asdict(report)),
            "probes": _digest(probes),
            "drain": _digest(totals)}


def test_model_reports_match_the_freeze(small_platform, update_golden):
    got = {pid: freeze_hashes(make())
           for pid, make in freeze_points(small_platform)}
    if update_golden:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip("golden model reports rewritten")
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want), "the frozen grid changed"
    drift = [f"{pid}: {part}" for pid in sorted(got)
             for part in ("report", "probes", "drain")
             if got[pid][part] != want[pid][part]]
    assert drift == [], "model outputs drifted from the freeze"
