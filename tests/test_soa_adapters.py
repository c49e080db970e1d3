"""Property tests (hypothesis) for the struct-of-arrays state adapters.

The adapters (:mod:`repro.dram.soa`, :mod:`repro.fabric.soa`) image
DRAM bank state, controller meters, arbitration state, and master
credits as numpy struct-of-arrays.  Two properties keep them honest:

* **Round-trip identity** — ``capture -> restore -> capture`` on an
  unchanged model reproduces the exact same image (digest-equal), from
  any reachable simulation state.  A lossy adapter would restore a
  *different* model than the one it captured.
* **Cross-engine state equality** — running the same configuration
  under the fast and the legacy loop must land every state plane on the
  same digest, not merely the same :class:`~repro.sim.stats.SimReport`.
  State-level equality is the stronger claim the bit-identity tests
  rest on.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dram.soa import DramStateSoA, soa_digest
from repro.fabric import IdealFabric, MaoFabric, SegmentedFabric
from repro.fabric.soa import ArbStateSoA, MasterStateSoA, McStateSoA
from repro.params import HbmPlatform
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_pattern_sources
from repro.types import Pattern, RWRatio

PLATFORM = HbmPlatform(num_pch=8, pch_capacity=64 * 1024 * 1024)

FABRICS = (SegmentedFabric, MaoFabric, IdealFabric)
PATTERNS = (Pattern.SCS, Pattern.CCS, Pattern.SCRA, Pattern.CCRA)
RWS = (RWRatio(2, 1), RWRatio(1, 0), RWRatio(1, 1))


def _build(fabric_idx, pattern_idx, rw_idx, seed, cycles, engine):
    fabric = FABRICS[fabric_idx](PLATFORM)
    sources = make_pattern_sources(
        PATTERNS[pattern_idx], PLATFORM, burst_len=8, rw=RWS[rw_idx],
        address_map=fabric.address_map, seed=seed)
    cfg = SimConfig(cycles=cycles, warmup=cycles // 4, outstanding=8,
                    engine=engine)
    return Engine(fabric, sources, cfg)


def _capture_all(engine):
    """One SoA image per state plane of a finished engine."""
    fabric = engine.fabric
    planes = {
        "dram": DramStateSoA.capture(fabric.pchs),
        "mc": McStateSoA.capture(fabric.mcs),
        "masters": MasterStateSoA.capture(engine.masters),
    }
    if isinstance(fabric, SegmentedFabric):
        planes["arb-req"] = ArbStateSoA.capture(fabric._request_outputs)
        planes["arb-resp"] = ArbStateSoA.capture(fabric._response_outputs)
    return planes


def _digests(planes):
    return {name: soa_digest(soa.arrays()) for name, soa in planes.items()}


config_st = st.tuples(
    st.integers(0, len(FABRICS) - 1),
    st.integers(0, len(PATTERNS) - 1),
    st.integers(0, len(RWS) - 1),
    st.integers(0, 2 ** 16),
    st.sampled_from((200, 400, 700)),
)


@given(config=config_st)
@settings(max_examples=12, deadline=None)
def test_soa_round_trip_is_identity(config):
    """capture -> restore -> capture reproduces the exact image from any
    reachable end-of-run state."""
    fabric_idx, pattern_idx, rw_idx, seed, cycles = config
    eng = _build(fabric_idx, pattern_idx, rw_idx, seed, cycles, "legacy")
    eng.run()
    planes = _capture_all(eng)
    before = _digests(planes)
    fabric = eng.fabric
    planes["dram"].restore(fabric.pchs)
    planes["mc"].restore(fabric.mcs)
    planes["masters"].restore(eng.masters)
    if isinstance(fabric, SegmentedFabric):
        planes["arb-req"].restore(fabric._request_outputs)
        planes["arb-resp"].restore(fabric._response_outputs)
    for soa, seq in (
        (planes["dram"], fabric.pchs),
        (planes["mc"], fabric.mcs),
        (planes["masters"], eng.masters),
    ):
        soa.refresh(seq)
    if isinstance(fabric, SegmentedFabric):
        planes["arb-req"].refresh(fabric._request_outputs)
        planes["arb-resp"].refresh(fabric._response_outputs)
    assert _digests(planes) == before


@given(config=config_st)
@settings(max_examples=8, deadline=None)
def test_engines_land_on_identical_state_digests(config):
    """The fast path's skipping must reach the same state plane digests
    as the strictly per-cycle loop."""
    fabric_idx, pattern_idx, rw_idx, seed, cycles = config
    digests = {}
    for engine in ENGINE_TIERS:
        eng = _build(fabric_idx, pattern_idx, rw_idx, seed, cycles, engine)
        eng.run()
        digests[engine] = _digests(_capture_all(eng))
    assert digests["fast"] == digests["legacy"]
