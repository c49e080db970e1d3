"""Differential tests of the engine tiers (legacy / fast).

The fast path (batched master stepping + quiescence skipping) claims to
be an *optimization, never a model change*: for every configuration the
:class:`~repro.sim.stats.SimReport` must be **bit-identical** to the
legacy strictly per-cycle loop — same Welford latency moments (which are
float-order-sensitive, so even completion *ordering* must match), same
byte counters, same histograms — and the model itself must end in the
same state, which :func:`state_digest` fingerprints.  These tests
enforce that claim over a grid of fabric × pattern × direction ×
outstanding configurations, plus the drain/deadlock edge cases.
"""

from __future__ import annotations

import gc
import hashlib
import math
import types
import weakref
from collections import deque
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.axi.transaction import AxiTransaction
from repro.core.mao import MaoConfig
from repro.dram.controller import SchedulerConfig
from repro.errors import SimulationError
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_hotspot_sources, make_pattern_sources
from repro.types import Pattern, RWRatio, READ_ONLY, TWO_TO_ONE

FABRICS = {
    "xlnx": SegmentedFabric,
    "mao": MaoFabric,
    "ideal": IdealFabric,
}

#: The differential grid: (fabric, pattern, rw, outstanding).  Covers all
#: three fabrics, sequential and random patterns, hot-spot (CCS) and
#: partitioned (SCS) placement, both latency scenarios (1 and 32
#: outstanding), and read-only vs. mixed traffic — 14 configurations.
GRID = [
    ("xlnx", Pattern.SCS, TWO_TO_ONE, 32),
    ("xlnx", Pattern.CCS, TWO_TO_ONE, 32),
    ("xlnx", Pattern.CCS, TWO_TO_ONE, 1),
    ("xlnx", Pattern.CCS, READ_ONLY, 32),
    ("xlnx", Pattern.CCRA, TWO_TO_ONE, 32),
    ("xlnx", Pattern.SCRA, TWO_TO_ONE, 8),
    ("mao", Pattern.CCS, TWO_TO_ONE, 32),
    ("mao", Pattern.CCS, TWO_TO_ONE, 1),
    ("mao", Pattern.CCRA, TWO_TO_ONE, 32),
    ("mao", Pattern.CCRA, READ_ONLY, 32),
    ("mao", Pattern.SCS, RWRatio(1, 2), 32),
    ("ideal", Pattern.CCS, TWO_TO_ONE, 32),
    ("ideal", Pattern.CCRA, TWO_TO_ONE, 1),
    ("ideal", Pattern.SCS, READ_ONLY, 32),
]


#: Fault configurations for the differential grid: injection, watchdog
#: deadlines, NACK/retry/backoff, and degradation remapping must all land
#: on the same cycles under every loop for the reports to stay equal.
FAULT_PLANS = {
    "offline-degrade": FaultPlan(
        [FaultEvent(FaultKind.PCH_OFFLINE, at=450, pch=2)], degrade=True),
    "slow-corrupt": FaultPlan(
        [FaultEvent(FaultKind.PCH_SLOW, at=350, pch=1, duration=400,
                    factor=3.0),
         FaultEvent(FaultKind.DATA_CORRUPT, at=500, duration=400,
                    rate=0.05)],
        seed=7, dbit_fraction=0.3),
    "stall-offline": FaultPlan(
        [FaultEvent(FaultKind.LINK_STALL, at=300, duration=200),
         FaultEvent(FaultKind.PCH_OFFLINE, at=700, pch=5)], degrade=True),
    "offline-starve": FaultPlan(
        [FaultEvent(FaultKind.PCH_OFFLINE, at=400, pch=3)],
        degrade=False),  # no recovery: queued work starves
    # The hot spot's own channel dies under degradation: its queue is
    # flushed, and every arrival still staged or in transit for it is
    # NACKed by the staging sweep.
    "hotspot-degrade": FaultPlan(
        [FaultEvent(FaultKind.PCH_OFFLINE, at=450, pch=0)], degrade=True),
}

FAULT_GRID = [
    ("xlnx", "offline-degrade"),
    ("xlnx", "slow-corrupt"),
    ("xlnx", "stall-offline"),
    ("mao", "offline-degrade"),
    ("mao", "slow-corrupt"),
    ("mao", "stall-offline"),
    ("mao", "offline-starve"),
    ("ideal", "offline-degrade"),
    ("ideal", "slow-corrupt"),
    ("ideal", "offline-starve"),
]


def _run(small_platform, fabric_key, pattern, rw, outstanding, engine,
         cycles=1200, warmup=300, faults=None, seed=0, **cfg_kw):
    fabric = FABRICS[fabric_key](small_platform)
    sources = make_pattern_sources(
        pattern, small_platform, burst_len=8, rw=rw,
        address_map=fabric.address_map, seed=seed)
    cfg = SimConfig(cycles=cycles, warmup=warmup, outstanding=outstanding,
                    engine=engine, **cfg_kw)
    eng = Engine(fabric, sources, cfg, faults=faults)
    return eng, eng.run()


#: Values hashed whole, by type and ``repr`` (floats repr exactly).
_LEAVES = (type(None), int, float, str, Enum)


def _fields(obj):
    """``(name, value)`` of every set instance field of ``obj`` —
    ``__slots__`` up the MRO, then ``__dict__`` — or ``None`` when the
    object keeps no Python-level fields (numpy arrays, generators)."""
    names = []
    for cls in reversed(type(obj).__mro__):
        slots = cls.__dict__.get("__slots__", ())
        names += [slots] if isinstance(slots, str) else slots
    state = getattr(obj, "__dict__", None)
    if not names and state is None:
        return None
    skip = {"__dict__", "__weakref__"}
    if isinstance(obj, AxiTransaction):
        skip.add("uid")
    fields = [(n, getattr(obj, n)) for n in names
              if n not in skip and hasattr(obj, n)]
    if state is not None:
        fields += sorted(state.items())
    return fields


def state_digest(*roots) -> str:
    """SHA-256 fingerprint of all model state reachable from ``roots``.

    A depth-first walk over ``__slots__``/``__dict__`` fields and the
    contents of lists, tuples, deques and dicts.  Leaves hash by type
    and ``repr``; objects without Python-level fields (numpy arrays and
    generators) hash through their pickle reduction.  An object met a
    second time hashes as a back-reference to its first visit, so
    shared and cyclic structure is walked once and its sharing is part
    of the digest.  Three things are skipped: callables (hooks and
    completion callbacks), weak proxies (the controller→fabric wiring)
    and ``AxiTransaction.uid``, which numbers transactions from a
    process-global counter.
    """
    out = []
    seen = {}  # id -> (visit ordinal, object); holding the object pins its id
    stack = [("", root) for root in reversed(roots)]
    while stack:
        label, obj = stack.pop()
        if callable(obj) or type(obj) in weakref.ProxyTypes:
            token = "~"
        elif isinstance(obj, bytes):  # array buffers: hash, don't repr
            token = "bytes:" + hashlib.sha256(obj).hexdigest()
        elif isinstance(obj, _LEAVES):
            token = f"{type(obj).__name__}:{obj!r}"
        elif id(obj) in seen:
            token = f"@{seen[id(obj)][0]}"
        else:
            seen[id(obj)] = (len(seen), obj)
            if isinstance(obj, (list, tuple, deque)):
                children = [("", item) for item in obj]
            elif isinstance(obj, dict):
                children = [(tag, x) for item in obj.items()
                            for tag, x in zip("kv", item)]
            else:
                fields = _fields(obj)
                children = ([("." + n, v) for n, v in fields]
                            if fields is not None
                            else [("reduce", obj.__reduce_ex__(4))])
            token = f"{type(obj).__qualname__}[{len(children)}]"
            stack.extend(reversed(children))
        out.append(f"{label}{token};")
    return hashlib.sha256("".join(out).encode()).hexdigest()


def _model_digest(engine):
    return state_digest(engine.fabric, engine.masters)


def _both_tiers(small_platform, fabric_key, pattern, rw, outstanding,
                **kw):
    """Run both tiers; diff the fast report and the fast model state
    against the legacy oracle."""
    runs = {
        engine: _run(small_platform, fabric_key, pattern, rw, outstanding,
                     engine, **kw)
        for engine in ENGINE_TIERS
    }
    (fast, fast_report), (legacy, legacy_report) = (runs["fast"],
                                                    runs["legacy"])
    assert fast_report == legacy_report, "fast != legacy"
    assert _model_digest(fast) == _model_digest(legacy), \
        "fast model state != legacy model state"
    return legacy_report


@pytest.mark.parametrize("fabric_key,pattern,rw,outstanding", GRID,
                         ids=[f"{f}-{p.name}-{r.reads}to{r.writes}-o{o}"
                              for f, p, r, o in GRID])
def test_engines_bit_identical(small_platform, fabric_key, pattern, rw,
                               outstanding):
    # Dataclass equality covers every field, including the float Welford
    # moments and the latency histograms.
    _both_tiers(small_platform, fabric_key, pattern, rw, outstanding)


@pytest.mark.parametrize("fabric_key,plan_key", FAULT_GRID,
                         ids=[f"{f}-{p}" for f, p in FAULT_GRID])
def test_engines_bit_identical_under_faults(small_platform, fabric_key,
                                            plan_key):
    """Fault injection must not break the bit-identity claim: clock jumps
    clamp to fault-event cycles, watchdog deadlines, and retry due times,
    so every loop observes the same failure and recovery schedule."""
    plan = FAULT_PLANS[plan_key]
    kw = dict(faults=plan, txn_timeout_cycles=4000,
              progress_timeout_cycles=4000)
    report = _both_tiers(small_platform, fabric_key, Pattern.SCS, TWO_TO_ONE,
                         16, **kw)
    # The scenario must actually have exercised the fault machinery.
    if plan.offline_pchs and plan.degrade:
        assert report.dead_pchs == plan.offline_pchs
        assert report.nacks > 0


@given(fabric_key=st.sampled_from(sorted(FABRICS)),
       pattern=st.sampled_from((Pattern.SCS, Pattern.CCS, Pattern.SCRA,
                                Pattern.CCRA)),
       rw=st.sampled_from((TWO_TO_ONE, READ_ONLY, RWRatio(1, 1))),
       seed=st.integers(0, 2 ** 16),
       cycles=st.sampled_from((200, 400, 700)))
@settings(max_examples=8, deadline=None)
def test_engines_land_on_identical_state_digests(small_platform, fabric_key,
                                                 pattern, rw, seed, cycles):
    """From any configuration, the fast path's skipping must leave the
    model in exactly the state the per-cycle loop reaches."""
    _both_tiers(small_platform, fabric_key, pattern, rw, 8, cycles=cycles,
                warmup=cycles // 4, seed=seed)


def _numeric_fields(*roots):
    """``(owner, name)`` of every int/float field of every non-enum
    object reachable from ``roots``.

    Reachability comes from the interpreter's own reference traversal
    (``gc.get_referents``) and field names from the classes' slot
    descriptors plus the instance ``__dict__``, so a blind spot in
    :func:`state_digest`'s walker cannot hide itself here.
    """
    found, seen, todo = [], set(), list(roots)
    while todo:
        obj = todo.pop()
        if (id(obj) in seen or type(obj) in weakref.ProxyTypes
                or callable(obj) or isinstance(obj, Enum)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
        names = [name for cls in type(obj).__mro__
                 for name, attr in vars(cls).items()
                 if isinstance(attr, types.MemberDescriptorType)]
        names += list(getattr(obj, "__dict__", ()))
        for name in dict.fromkeys(names):
            value = getattr(obj, name, None)
            if (isinstance(value, (int, float))
                    and not (isinstance(obj, AxiTransaction)
                             and name == "uid")):
                found.append((obj, name))
    return found


#: Faults early enough for a 200-cycle run to carry per-channel fault
#: state and a degrade remap.
EARLY_FAULTS = FaultPlan(
    [FaultEvent(FaultKind.PCH_SLOW, at=60, pch=1, duration=400, factor=3.0),
     FaultEvent(FaultKind.DATA_CORRUPT, at=80, duration=400, rate=0.05),
     FaultEvent(FaultKind.PCH_OFFLINE, at=100, pch=2)],
    degrade=True, seed=7, dbit_fraction=0.3)


@pytest.mark.parametrize("fabric_key", sorted(FABRICS))
def test_state_digest_covers_every_numeric_field(small_platform,
                                                  fabric_key):
    """Adding 1 to any int/float field anywhere in the model changes the
    digest, so the cross-tier state comparison has no blind field.  A
    non-finite value (an idle controller's ``wake`` is ``inf``) absorbs
    the 1, so it is nudged to a finite value instead."""
    eng, _ = _run(small_platform, fabric_key, Pattern.CCRA, TWO_TO_ONE, 2,
                  "fast", cycles=200, warmup=50, faults=EARLY_FAULTS)
    before = _model_digest(eng)
    fields = _numeric_fields(eng.fabric, eng.masters)
    blind = []
    for owner, name in fields:
        value = getattr(owner, name)
        nudged = value + 1 if math.isfinite(value) else 0.0
        object.__setattr__(owner, name, nudged)
        try:
            if _model_digest(eng) == before:
                blind.append(f"{type(owner).__qualname__}.{name}")
        finally:
            object.__setattr__(owner, name, value)
    assert _model_digest(eng) == before
    assert len(fields) > 300  # the enumeration itself has not gone blind
    assert blind == []


def test_fast_path_actually_skips_cycles(small_platform):
    """Sanity: the low-intensity latency scenario has idle stretches the
    fast path must exploit (otherwise it silently degraded to legacy)."""
    engine, _ = _run(small_platform, "mao", Pattern.CCS, TWO_TO_ONE, 1,
                     "fast")
    assert engine.stepped_cycles < engine.config.cycles


def _starved_mao(small_platform, engine, cycles=2400):
    """The hot PCH goes offline with no degrade remap and no watchdogs:
    every credit parks behind the dead channel and its staged arrivals
    wait forever."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=400, pch=0)],
                     degrade=False)
    fabric = MaoFabric(small_platform)
    sources = make_hotspot_sources(
        0, small_platform, burst_len=8, rw=READ_ONLY,
        address_map=fabric.address_map)
    cfg = SimConfig(cycles=cycles, warmup=300, outstanding=16,
                    engine=engine)
    return Engine(fabric, sources, cfg, faults=plan)


def test_optimized_tiers_jump_starvation_window(small_platform):
    """The fabric's horizon parks the dead channel's queue and proves the
    staged arrivals behind it cannot move until a scheduler pop, so the
    fast tier jumps the starvation window instead of grinding it."""
    stepped = {}
    runs = {}
    for engine in ENGINE_TIERS:
        eng = _starved_mao(small_platform, engine)
        runs[engine] = (eng.run(), _model_digest(eng))
        stepped[engine] = eng.stepped_cycles
    assert runs["fast"] == runs["legacy"]
    assert stepped["fast"] < stepped["legacy"] / 4


def test_drain_of_starved_fabric_jumps_to_deadline(small_platform):
    """A drain that can never finish must fail with the same error on
    the fast and legacy tiers — and the fast tier must jump straight to
    the drain deadline instead of stepping every cycle up to it."""
    errors = {}
    steps = {}
    for engine in ("fast", "legacy"):
        eng = _starved_mao(small_platform, engine, cycles=1200)
        eng.run()
        fabric = eng.fabric
        calls = [0]
        real_step = fabric.step

        def counting_step(cycle, _real=real_step, _calls=calls):
            _calls[0] += 1
            _real(cycle)
        fabric.step = counting_step
        with pytest.raises(SimulationError, match="drain") as exc:
            eng.drain(max_cycles=5_000)
        errors[engine] = (type(exc.value), str(exc.value))
        steps[engine] = calls[0]
    assert errors["fast"] == errors["legacy"]
    assert steps["legacy"] == 5_000
    assert steps["fast"] < 1_000


WRITE_ONLY = RWRatio(0, 1)


def _hotspot_tiers(small_platform, fabric_key, rw, plan=None, sched=None,
                   cycles=1600):
    """Hot-spot traffic on PCH 0 under every tier; the reports and the
    model states must agree."""
    runs = {}
    for engine in ENGINE_TIERS:
        fabric = FABRICS[fabric_key](small_platform, sched=sched)
        sources = make_hotspot_sources(
            0, small_platform, burst_len=8, rw=rw,
            address_map=fabric.address_map)
        cfg = SimConfig(cycles=cycles, warmup=300, outstanding=16,
                        engine=engine)
        eng = Engine(fabric, sources, cfg, faults=plan)
        runs[engine] = (eng.run(), _model_digest(eng))
    assert runs["fast"] == runs["legacy"], "fast != legacy"


def test_held_masters_wake_on_completion():
    """With one AXI ID lane per master the MAO refuses a master's reads
    while both of its lane slots are busy, so the fast tier holds it.
    When PCH 5 dies under degradation, a held master's queued read comes
    back as a NACK: the completion must release the hold, or the retry
    it queues is issued late."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_OFFLINE, at=300, pch=5)],
                     degrade=True)
    runs = {}
    for engine in ENGINE_TIERS:
        fabric = MaoFabric(DEFAULT_PLATFORM, MaoConfig(reorder_depth=1))
        sources = make_pattern_sources(
            Pattern.CCRA, DEFAULT_PLATFORM, burst_len=8, rw=RWRatio(1, 1),
            address_map=fabric.address_map, seed=3)
        cfg = SimConfig(cycles=1500, warmup=200, engine=engine)
        eng = Engine(fabric, sources, cfg, faults=plan)
        runs[engine] = (eng.run(), _model_digest(eng))
    assert runs["fast"] == runs["legacy"], "fast != legacy"
    report = runs["legacy"][0]
    assert report.nacks > 0 and report.retries > 0


def test_ideal_link_stall_with_staged_work(small_platform):
    """A link stall on the ideal fabric freezes transit *and* the staged
    retries.  Posted writes return no credit while the stall lasts, so
    nothing is in transit while the hot queue drains; the horizon must
    still wake at the stall's end, where the sweep refills the queue."""
    plan = FaultPlan([FaultEvent(FaultKind.LINK_STALL, at=500,
                                 duration=700)])
    # Precondition: the stall strikes while staged work is waiting.
    fabric = IdealFabric(small_platform)
    sources = make_hotspot_sources(0, small_platform, burst_len=8,
                                   rw=WRITE_ONLY,
                                   address_map=fabric.address_map)
    Engine(fabric, sources,
           SimConfig(cycles=501, warmup=300, outstanding=16,
                     engine="legacy"), faults=plan).run()
    assert fabric._staged_count > 0
    _hotspot_tiers(small_platform, "ideal", WRITE_ONLY, plan)


@pytest.mark.parametrize("fabric_key", ["mao", "ideal"])
def test_one_entry_queues_pop_wakes_staged_work(small_platform,
                                                fabric_key):
    """With one-entry scheduler queues a single pop empties the queue, so
    the controller itself has nothing left to do next cycle; only the
    staged-pop proof wakes the sweep that refills it."""
    sched = SchedulerConfig(window=1, queue_capacity=1)
    _hotspot_tiers(small_platform, fabric_key, TWO_TO_ONE, sched=sched)


@pytest.mark.parametrize("fabric_key", ["mao", "ideal"])
def test_slow_hot_channel_is_not_parked(small_platform, fabric_key):
    """Only *offline* channels are parked: a slowed hot channel keeps
    scheduling, and its queue must keep the horizon at the next cycle."""
    plan = FaultPlan([FaultEvent(FaultKind.PCH_SLOW, at=400, pch=0,
                                 duration=600, factor=4.0)])
    _hotspot_tiers(small_platform, fabric_key, TWO_TO_ONE, plan)


@pytest.mark.parametrize("fabric_key", ["mao", "ideal"])
@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_finished_fabric_freed_without_gc(small_platform, fabric_key,
                                          engine):
    """Controllers call back into their fabric through a weak proxy, so
    a finished run leaves no reference cycle: dropping the engine frees
    the fabric by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        eng, _ = _run(small_platform, fabric_key, Pattern.CCS, TWO_TO_ONE,
                      32, engine, cycles=400, warmup=100)
        ref = weakref.ref(eng.fabric)
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_legacy_steps_every_cycle(small_platform):
    engine, _ = _run(small_platform, "xlnx", Pattern.CCS, TWO_TO_ONE, 32,
                     "legacy")
    assert engine.stepped_cycles == engine.config.cycles


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_drain_restores_outstanding_limits(small_platform, engine):
    """Draining suspends issue credits; they must come back afterwards.

    Regression test: ``drain()`` used to zero ``outstanding_limit``
    permanently, so a drained engine could never issue again."""
    fabric = MaoFabric(small_platform)
    sources = make_pattern_sources(Pattern.CCS, small_platform, burst_len=8)
    cfg = SimConfig(cycles=600, warmup=100, outstanding=16, engine=engine)
    eng = Engine(fabric, sources, cfg)
    eng.run()
    limits_before = [mp.outstanding_limit for mp in eng.masters]
    assert limits_before == [16] * len(eng.masters)
    eng.drain()
    assert [mp.outstanding_limit for mp in eng.masters] == limits_before
    assert all(mp.outstanding == 0 for mp in eng.masters)
    assert fabric.quiescent()


class _LossyFabric(IdealFabric):
    """Drops every Nth read completion — simulates a lost transaction."""

    def __init__(self, *args, drop_every: int = 7, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._drop_every = drop_every
        self._reads_seen = 0

    def _on_read_data(self, txn, time):
        self._reads_seen += 1
        if self._reads_seen % self._drop_every == 0:
            return  # transaction vanishes: never completes
        super()._on_read_data(txn, time)


@pytest.mark.parametrize("engine", ENGINE_TIERS)
def test_drain_detects_lost_transactions(small_platform, engine):
    """A fabric that loses transactions must fail the drain loudly (the
    conservation invariant), on every engine tier — horizon jumps must
    not turn the deadlock into an endless spin or a silent pass."""
    fabric = _LossyFabric(small_platform)
    sources = make_pattern_sources(Pattern.CCS, small_platform, burst_len=8)
    cfg = SimConfig(cycles=400, warmup=100, outstanding=8, engine=engine)
    eng = Engine(fabric, sources, cfg)
    eng.run()
    assert sum(mp.outstanding for mp in eng.masters) > 0
    with pytest.raises(SimulationError, match="drain"):
        eng.drain(max_cycles=20_000)
    # The limits are restored even on the failure path.
    assert all(mp.outstanding_limit == 8 for mp in eng.masters)


def test_lossy_subclass_is_bit_identical(small_platform):
    """A fabric *subclass* overriding a completion hook must still agree
    across tiers: the controllers' callbacks resolve through the fabric
    proxy at call time, so the subclass's ``_on_read_data`` runs on
    every tier."""
    runs = {}
    for engine in ENGINE_TIERS:
        fabric = _LossyFabric(small_platform)
        sources = make_pattern_sources(Pattern.CCS, small_platform,
                                       burst_len=8)
        cfg = SimConfig(cycles=400, warmup=100, outstanding=8, engine=engine)
        eng = Engine(fabric, sources, cfg)
        runs[engine] = (eng.run(), _model_digest(eng))
    assert runs["fast"] == runs["legacy"]


def test_engine_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    assert SimConfig().engine == "legacy"
    monkeypatch.delenv("REPRO_ENGINE")
    assert SimConfig().engine == "fast"
