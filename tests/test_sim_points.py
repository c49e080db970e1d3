"""One description per simulation: :class:`SimPoint` builds and keys
every plain experiment run, so a point asked for by two experiments
simulates once."""

from __future__ import annotations

import enum
import pathlib
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mao import MaoConfig
from repro.experiments import (_common, extensions, fig3_burst_length,
                               fig4_rotation, fig6_reorder, table2_latency,
                               table4_throughput)
from repro.experiments._common import SimPoint
from repro.experiments.surface import (SURFACE_BURST_LENGTHS, PatternPoint,
                                       point_cache_key)
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.params import HbmPlatform
from repro.sim.cache import SimCache, entry_digest
from repro.types import FabricKind, Pattern, RWRatio, TWO_TO_ONE

CYCLES = 600

SMALL = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)


@pytest.fixture
def store(monkeypatch) -> SimCache:
    """A fresh memory-only result store behind ``measure``."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
    cache = SimCache()
    monkeypatch.setattr(_common, "DEFAULT_CACHE", cache)
    return cache


class TestSharedPoints:
    """A point two experiments ask for runs once, whichever asks first."""

    def test_pooled_fig3_reports_answer_table4(self, store, engine_runs):
        """fig3's pool workers return reports, which the parent stores,
        so table4's vendor points are store hits."""
        fig3_burst_length.run(cycles=CYCLES, platform=SMALL,
                              patterns=(Pattern.CCS, Pattern.CCRA),
                              burst_lengths=(16,), workers=2)
        engine_runs.clear()
        table4_throughput.run(cycles=CYCLES, platform=SMALL)
        assert len(engine_runs) == 6  # only the six MAO points

    def test_fig4_rotation8_answers_the_lateral_bus_study(
            self, store, engine_runs):
        """Two lateral buses per direction is the default platform, so
        the study's 2-bus point is Fig. 4's rotation-8 point."""
        rows = fig4_rotation.run(cycles=CYCLES, offsets=(8,), workers=1)
        engine_runs.clear()
        (lateral,) = extensions.lateral_bus_sweep(cycles=CYCLES, counts=(2,))
        assert engine_runs == []
        assert lateral.rotation8_gbps == rows[0].total_gbps

    def test_fig6_default_depth_answers_table2(self, store, engine_runs):
        """Depth 32 is the default MaoConfig, so fig6's last point is
        table2's MAO CCRA burst point."""
        fig6_reorder.run(cycles=CYCLES, platform=SMALL, depths=(32,))
        engine_runs.clear()
        table2_latency.run(cycles=CYCLES, platform=SMALL)
        assert len(engine_runs) == 7  # 8 points, one answered by fig6


class TestKeys:
    def test_default_mao_config_keys_like_none(self):
        plain = SimPoint(FabricKind.MAO, "pattern", dict(pattern=Pattern.CCS))
        spelled = SimPoint(FabricKind.MAO, "pattern",
                           dict(pattern=Pattern.CCS, burst_len=16,
                                rw=TWO_TO_ONE, seed=0),
                           mao=MaoConfig())
        assert spelled == plain and spelled.mao is None
        assert spelled.key() == plain.key()
        deep = SimPoint(FabricKind.MAO, "pattern", dict(pattern=Pattern.CCS),
                        mao=MaoConfig(reorder_depth=8))
        assert deep.key() != plain.key()
        assert "mao" in dict(deep.key()[0][-1])

    def test_empty_fault_plan_keys_like_none(self):
        plain = SimPoint(FabricKind.XLNX, "pattern", dict(pattern=Pattern.SCS))
        empty = SimPoint(FabricKind.XLNX, "pattern", dict(pattern=Pattern.SCS),
                         faults=FaultPlan(seed=3))
        assert empty == plain and empty.key() == plain.key()
        assert SimPoint(FabricKind.XLNX, "pattern", dict(pattern=Pattern.SCS),
                        faults=_PLAN).key() != plain.key()

    def test_bad_descriptions_raise(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            SimPoint(FabricKind.XLNX, "pattern", dict(pattern=Pattern.SCS),
                     mao=MaoConfig(reorder_depth=8))
        with pytest.raises(ConfigError):
            SimPoint(FabricKind.XLNX, "pattern", dict(offset=3))
        with pytest.raises(ConfigError):
            SimPoint(FabricKind.XLNX, "rotation",
                     dict(offset=1, platform=SMALL))
        with pytest.raises(ConfigError):
            SimPoint(FabricKind.XLNX, "replay", {})

    def test_surface_grid_entry_digests_are_pinned(self, monkeypatch):
        """The store keys of the service's surface grid, recorded before
        keys were derived from :class:`SimPoint`: a store written then
        still answers.  Any change to a key's shape (or a deliberate
        ``MODEL_VERSION`` bump, which re-records this table) fails here."""
        for name in ("REPRO_ENGINE", "REPRO_SANITIZE", "REPRO_TELEMETRY"):
            monkeypatch.delenv(name, raising=False)
        got = {(p.name, bl): entry_digest(point_cache_key(
                   PatternPoint(pattern=p, burst_len=bl), SMALL))
               for p in Pattern for bl in SURFACE_BURST_LENGTHS}
        assert got == SURFACE_DIGESTS

    def test_experiments_build_runs_only_through_sim_point(self):
        """Only ``_common`` builds a fabric, a traffic builder's sources
        or a store key in :mod:`repro.experiments`."""
        root = pathlib.Path(_common.__file__).parent
        recipe = re.compile(
            r"\b(make_fabric|\w*Fabric|make_\w+_sources|sweep_key)\(")
        offenders = [f"{path.name}: {m.group(0)}"
                     for path in sorted(root.glob("*.py"))
                     if path.name != "_common.py"
                     for m in recipe.finditer(path.read_text())]
        assert offenders == []


SURFACE_DIGESTS = {
    ("SCS", 1): "8c96e61b0a90d2fd67de3e83ad595f1f5f737efe",
    ("SCS", 2): "467daa778fabca3f296605f9e2fb30c754a2885a",
    ("SCS", 4): "a0db6573bff0ea1bc4853b09fad9e69b5e0a4291",
    ("SCS", 8): "ee217dff526ebf132be0b95d9468eafc1f6fb575",
    ("SCS", 16): "c94d1c192f95bb416f76785d6396a20ac812ea97",
    ("CCS", 1): "d125a2fa52f267b2e80c56a8ec962da8dc66fd52",
    ("CCS", 2): "950c8190b7427ac1187db64229bf9a525e847020",
    ("CCS", 4): "941bca4de643e9174c4351c846b434b94ee30563",
    ("CCS", 8): "22e213f9a2bc1060030ab2edea09c38f52cbb5fb",
    ("CCS", 16): "bedd2790044361c662eb6a865d1875c6bb348717",
    ("SCRA", 1): "a162aebb50af341d4916d7499eea7d981045170b",
    ("SCRA", 2): "f7dd037e4e6fc9b0bba02aa976bbe31de9e75d83",
    ("SCRA", 4): "0883fad9a7fc9e56345263eadfcccd17378b0391",
    ("SCRA", 8): "736af2e45808dee5fc33b6a8b411cd84d12dcbcd",
    ("SCRA", 16): "b6f97d8124d5bb99856b97147d594b9dc598764a",
    ("CCRA", 1): "80c321d673e64bd65a0a3864d1622aeed316b488",
    ("CCRA", 2): "06f176fecb22b93a807181c0650533faa781871c",
    ("CCRA", 4): "adf0e2a93200cc71c03c5cd12558a383f03ebfeb",
    ("CCRA", 8): "beb02de97ed142410d3751a3ca93271588c8d821",
    ("CCRA", 16): "18c95ffe9c768f3cc334aa501ccaabd10d459cee",
}


# --- key alike <=> same run -------------------------------------------------

_PLAN = FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=100, pch=1,
                              duration=200, factor=3.0)], seed=0)
_PLATFORMS = (SMALL, replace(SMALL, lateral_buses=1))
_MAO_CONFIGS = (None, MaoConfig(), MaoConfig(interleave_granularity=512),
                MaoConfig(reorder_depth=8),
                MaoConfig(interleave_granularity=2048))
_BURSTS = (8, 16)
_RWS = (TWO_TO_ONE, RWRatio(1, 0))
#: Traffic kind -> (its required argument, that argument's values).
#: A strided pattern's key carries the seed it ignores (stores written
#: before keep answering), so the seed varies only where it is read.
_TRAFFIC = {
    "pattern": ("pattern", tuple(Pattern)),
    "rotation": ("offset", (0, 2)),
    "stride": ("stride", (512, 8192)),
}


@st.composite
def spellings(draw):
    """One description, spelled with or without its defaults."""
    traffic = draw(st.sampled_from(sorted(_TRAFFIC)))
    name, values = _TRAFFIC[traffic]
    args = {name: draw(st.sampled_from(values))}
    for arg, domain in (("burst_len", _BURSTS), ("rw", _RWS)):
        value = draw(st.sampled_from((None,) + domain))
        if value is not None:
            args[arg] = value
    if traffic == "pattern":
        random = args["pattern"] in (Pattern.SCRA, Pattern.CCRA)
        seed = draw(st.sampled_from((None, 0, 1) if random else (None, 0)))
        if seed is not None:
            args["seed"] = seed
    fabric = draw(st.sampled_from(tuple(FabricKind)))
    return dict(
        fabric=fabric, traffic=traffic, args=args,
        platform=draw(st.sampled_from(_PLATFORMS)),
        mao=(draw(st.sampled_from(_MAO_CONFIGS))
             if fabric is FabricKind.MAO else None),
        cycles=draw(st.sampled_from((400, 600))),
        outstanding=draw(st.sampled_from((16, 32))),
        faults=draw(st.sampled_from((None, FaultPlan(), _PLAN))))


@st.composite
def spelling_pairs(draw):
    """Two descriptions: mostly the first with one field redrawn (which
    may or may not change the run, or only its spelling), else two
    independent ones."""
    first, other = draw(spellings()), draw(spellings())
    if draw(st.integers(0, 3)) == 0:
        return first, other
    second = dict(first)
    field = draw(st.sampled_from(("args", "cycles", "fabric", "faults",
                                  "mao", "outstanding", "platform")))
    if field == "fabric":
        second.update(fabric=other["fabric"], mao=other["mao"])
    elif field == "args":
        if other["traffic"] == first["traffic"]:
            second["args"] = other["args"]
    elif field != "mao" or first["fabric"] is FabricKind.MAO:
        second[field] = other[field]
    return first, second


def _simple(value) -> bool:
    return value is None or isinstance(
        value, (int, float, str, bool, enum.Enum, RWRatio))


def _run_of(spelling) -> tuple:
    """What the built engine would run: the fabric, the engine settings,
    the armed faults, and each master's source with its first bursts."""
    engine = SimPoint(**spelling).engine()
    fabric = engine.fabric
    sources = []
    for master in engine.masters:
        src = master.source
        attrs = sorted((k, repr(v)) for k, v in vars(src).items()
                       if _simple(v))
        bursts = [(t.direction, t.address, t.burst_len)
                  for t in (src.next_txn(0) for _ in range(4))
                  if t is not None]
        sources.append((type(src).__name__, attrs, bursts))
    return (type(fabric).__name__, repr(fabric.platform),
            repr(getattr(fabric, "config", None)), repr(engine.config),
            repr(engine.faults) if engine.injector is not None else None,
            sources)


@settings(max_examples=200, deadline=None)
@given(spelling_pairs())
def test_descriptions_key_alike_iff_they_build_the_same_run(pair):
    a, b = pair
    same_key = SimPoint(**a).key() == SimPoint(**b).key()
    assert same_key == (_run_of(a) == _run_of(b))
