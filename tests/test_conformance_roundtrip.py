"""Property tests: corpus serialization round-trips bit-exactly.

The corpus format only works if ``to_dict``/``from_dict`` are true
inverses for every value the fuzzer can produce — otherwise a minimized
finding could replay a subtly different scenario than the one that
failed.  Hypothesis drives the three serialized layers: ``FaultEvent``,
``FaultPlan``, ``SimConfig``, and the composite ``FuzzCase``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.case import FAULT_KEYS, FuzzCase, PLATFORMS
from repro.errors import ConfigError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.sim import SimConfig
from repro.sim.config import ENGINE_TIERS

# -- strategies --------------------------------------------------------------

_kinds = st.sampled_from(list(FaultKind))


@st.composite
def fault_events(draw):
    kind = draw(_kinds)
    kwargs = {"at": draw(st.integers(min_value=0, max_value=100_000))}
    if kind is FaultKind.LINK_STALL:
        kwargs["cut"] = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=7)))
    elif kind is FaultKind.DATA_CORRUPT:
        kwargs["pch"] = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=31)))
        kwargs["rate"] = draw(st.floats(min_value=0.001, max_value=1.0,
                                        allow_nan=False))
    else:
        kwargs["pch"] = draw(st.integers(min_value=0, max_value=31))
    if kind is not FaultKind.PCH_OFFLINE:
        kwargs["duration"] = draw(st.integers(min_value=1, max_value=50_000))
    if kind is FaultKind.PCH_SLOW:
        kwargs["factor"] = draw(st.floats(min_value=1.001, max_value=16.0,
                                          allow_nan=False))
    return FaultEvent(kind, **kwargs)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        draw(st.lists(fault_events(), max_size=4)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        degrade=draw(st.booleans()),
        dbit_fraction=draw(st.floats(min_value=0.0, max_value=1.0,
                                     allow_nan=False)),
    )


@st.composite
def sim_configs(draw):
    cycles = draw(st.integers(min_value=100, max_value=50_000))
    return SimConfig(
        cycles=cycles,
        warmup=draw(st.integers(min_value=0, max_value=cycles // 2)),
        outstanding=draw(st.integers(min_value=1, max_value=64)),
        engine=draw(st.sampled_from(ENGINE_TIERS)),
        sanitize=draw(st.booleans()),
    )


# -- round-trips -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(fault_events())
def test_fault_event_roundtrip(event):
    again = FaultEvent.from_dict(event.to_dict())
    assert again == event
    # And via JSON, as the corpus stores it.
    assert FaultEvent.from_dict(
        json.loads(json.dumps(event.to_dict()))) == event


@settings(max_examples=40, deadline=None)
@given(fault_plans())
def test_fault_plan_roundtrip(plan):
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


@settings(max_examples=40, deadline=None)
@given(sim_configs())
def test_sim_config_roundtrip(cfg):
    again = SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_sim_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown SimConfig field"):
        SimConfig.from_dict({"cycles": 100, "warp_factor": 9})


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fuzz_case_roundtrip(data):
    sample = {
        "fabric": data.draw(st.sampled_from(["ideal", "xlnx", "mao"])),
        "pattern": data.draw(st.sampled_from(["SCS", "CCS", "SCRA", "CCRA"])),
        "rw": data.draw(st.sampled_from(["2:1", "1:0", "0:1", "1:1"])),
        "burst_len": data.draw(st.sampled_from([1, 4, 8, 16])),
        "outstanding": data.draw(st.sampled_from([1, 4, 8, 32])),
        "cycles": data.draw(st.integers(min_value=200, max_value=5_000)),
        "warmup_div": data.draw(st.integers(min_value=2, max_value=8)),
        "fault": data.draw(st.sampled_from(FAULT_KEYS)),
        "platform": data.draw(st.sampled_from(sorted(PLATFORMS))),
    }
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    case = FuzzCase.from_sample(sample, seed=seed)
    again = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
    assert again == case
    assert again.sim_config() == case.sim_config()
    assert again.fault_plan() == case.fault_plan()


def test_fuzz_case_from_dict_detects_builder_drift():
    case = FuzzCase.from_sample(
        {"fabric": "ideal", "pattern": "SCS", "rw": "2:1", "burst_len": 8,
         "outstanding": 32, "cycles": 1200, "warmup_div": 4,
         "fault": "slow", "platform": "small"}, seed=0)
    payload = case.to_dict()
    payload["fault_plan"]["events"][0]["factor"] = 99.0
    with pytest.raises(ConfigError, match="no longer matches"):
        FuzzCase.from_dict(payload)
