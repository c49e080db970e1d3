"""The conformance fuzzer: reference model, driver oracle stack, shrinker,
and the pytest smoke tier (a small fixed-seed campaign in tier-1)."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.conformance import driver as driver_mod
from repro.conformance.case import FuzzCase, build_fault_plan
from repro.conformance.driver import (BROAD_DIMS, campaign_cases, run_campaign,
                                      run_case, shrink)
from repro.conformance.reference import Outcome, check, predict
from repro.conformance.space import ParamSpace, covers_all_pairs
from repro.dram.controller import MemoryController
from repro.errors import ConfigError


def _case(**over) -> FuzzCase:
    sample = {"fabric": "ideal", "pattern": "SCS", "rw": "2:1",
              "burst_len": 8, "outstanding": 32, "cycles": 1200,
              "warmup_div": 4, "fault": "none", "platform": "small"}
    seed = over.pop("seed", 0)
    sample.update(over)
    return FuzzCase.from_sample(sample, seed=seed)


# -- reference model ---------------------------------------------------------

def test_fault_free_prediction_shape():
    pred = predict(_case())
    assert pred.fault_free
    assert not pred.may_abort and not pred.must_abort
    assert not pred.expect_nacks and not pred.expect_ecc
    assert pred.dead_pchs == ()
    assert pred.physics_gbps > 0 and pred.port_dir_gbps > 0
    assert pred.roofline_gbps is not None


def test_offline_strict_predicts_mandatory_abort():
    pred = predict(_case(fault="offline-strict"))
    assert pred.must_abort and pred.may_abort
    assert pred.roofline_gbps is None  # no roofline claim under faults


def test_offline_degraded_predicts_dead_channel():
    pred = predict(_case(fault="offline"))
    assert pred.dead_pchs == (1,)
    assert not pred.must_abort


def test_check_flags_conservation_breakage():
    case = _case()
    pred = predict(case)
    fast = driver_mod._one_loop(driver_mod._engine(case, "fast"),
                               case.drain_budget)
    before = copy.deepcopy(fast)
    assert not check(case, pred, fast)  # healthy run passes
    # The reference model is an observer: it reads the outcome it judges
    # and writes nothing back.
    assert fast == before
    # Forge an outcome whose post-drain ledger loses one transaction.
    issued, completed, nacks, retries, unrec = fast.totals
    forged = Outcome(report=fast.report, abort="",
                     drain_cycles=fast.drain_cycles,
                     totals=(issued, completed - 1, nacks, retries, unrec))
    violations = check(case, pred, forged)
    assert any("conservation" in v for v in violations)


def test_check_flags_physics_ceiling_breakage():
    case = _case()
    pred = predict(case)
    fast = driver_mod._one_loop(driver_mod._engine(case, "fast"),
                               case.drain_budget)
    rep = fast.report
    # A report claiming more bandwidth than one beat per PCH per fabric
    # cycle must be called out, whatever the config.
    impossible = int(pred.physics_gbps * 2 * rep.elapsed_seconds * 1e9)
    forged = dataclasses.replace(rep, read_bytes=impossible)
    outcome = Outcome(report=forged, abort="",
                      drain_cycles=fast.drain_cycles, totals=fast.totals)
    violations = check(case, pred, outcome)
    assert any("physic" in v or "ceiling" in v for v in violations)


# -- fault-plan builders -----------------------------------------------------

def test_fault_plans_scale_to_the_horizon():
    for key in ("offline", "slow", "stall", "corrupt", "multi"):
        plan = build_fault_plan(key, cycles=900, seed=0)
        for ev in plan.events:
            assert 0 < ev.at < 900
    with pytest.raises(ConfigError):
        build_fault_plan("meteor-strike", cycles=900, seed=0)


# -- driver ------------------------------------------------------------------

def test_run_case_passes_on_a_healthy_config():
    result = run_case(_case())
    assert result.ok and not result.skipped
    assert result.total_gbps > 0


def test_run_case_skips_statically_impossible_configs():
    """A ConfigError from building the case is a skip, not a finding."""
    result = run_case(_case(outstanding=0))
    assert result.skipped == "outstanding must be >= 1"
    assert result.ok and not result.failures


def test_run_case_reports_a_config_error_raised_mid_run(monkeypatch):
    """Only building the case may skip it: a ConfigError a loop raises
    while it runs (here, every transaction routed to a controller that
    does not front its PCH) is a finding."""
    def misrouted(mc, pch):
        raise ConfigError(f"PCH {pch} not fronted by MC {mc.index}")

    monkeypatch.setattr(MemoryController, "local_index", misrouted)
    result = run_case(_case())
    assert not result.skipped
    assert [f.kind for f in result.failures] == ["error"]
    assert result.failures[0].detail.startswith("ConfigError: PCH ")


def test_campaign_cases_are_deterministic_and_deduped():
    a = campaign_cases(budget=50, seed=3)
    b = campaign_cases(budget=50, seed=3)
    assert a == b
    assert len({c.label() for c in a}) == 50


def test_campaign_wraps_with_fresh_traffic_seeds():
    one_sweep = len(ParamSpace.iter_unique([
        ParamSpace(driver_mod.CORE_DIMS, mode="full"),
        ParamSpace(BROAD_DIMS, mode="pairwise", seed=0),
    ]))
    cases = campaign_cases(budget=one_sweep + 1, seed=0)
    assert cases[one_sweep].seed == 1000
    assert cases[0].to_sample() == cases[one_sweep].to_sample()


def test_broad_space_is_pairwise_covered():
    samples = ParamSpace(BROAD_DIMS, mode="pairwise", seed=0).samples()
    assert covers_all_pairs(BROAD_DIMS, samples)


# -- shrinker ----------------------------------------------------------------

def test_shrink_walks_to_the_minimal_failing_config(monkeypatch):
    """With a synthetic failure predicate (burst_len=16 AND fault=multi
    fails), the shrinker must keep exactly those two dimensions and
    reduce every other one to its most benign value."""
    from repro.conformance.driver import CaseResult, Failure

    def fake_run_case(case):
        if case.burst_len == 16 and case.fault == "multi":
            return CaseResult(case=case,
                              failures=(Failure("sanitizer", "synthetic"),))
        return CaseResult(case=case)

    monkeypatch.setattr(driver_mod, "run_case", fake_run_case)
    noisy = _case(fabric="mao", pattern="CCRA", rw="1:1", burst_len=16,
                  outstanding=4, cycles=2100, warmup_div=3, fault="multi",
                  platform="wide", seed=9)
    minimal, runs = shrink(noisy)
    assert minimal.burst_len == 16 and minimal.fault == "multi"
    for dim in ("fabric", "pattern", "rw", "outstanding", "cycles",
                "warmup_div", "platform"):
        assert minimal.to_sample()[dim] == BROAD_DIMS[dim][0], dim
    assert minimal.seed == 9  # the traffic seed is never shrunk
    assert 0 < runs <= driver_mod.MAX_SHRINK_RUNS


def test_shrink_rejects_a_passing_case():
    with pytest.raises(ConfigError):
        shrink(_case())


# -- smoke tier --------------------------------------------------------------

def test_fuzz_smoke_campaign_is_clean():
    """Tier-1 smoke: a small fixed-seed campaign over the real engine
    with the sanitizer armed must come back clean — fast/legacy loops
    bit-identical and every reference-model prediction satisfied."""
    report = run_campaign(budget=16, seed=0, minimize=False, corpus_dir=None)
    assert report.ok, report.summary()
    ran = [r for r in report.results if not r.skipped]
    assert len(ran) >= 12  # the exhaustive core space at minimum


# -- regression: MAO same-ID ordering under deep reorder ---------------------

def test_mao_lane_allocation_keeps_deep_reorder_ordered():
    """Regression for the fuzz finding minimized into
    tests/corpus/sanitizer-21c8c8817d.json: blind round-robin lane
    allocation let two in-DRAM reads share an AXI ID lane, and
    out-of-order DRAM completions then inverted the lane's release
    chain (OrderingViolation).  Free-lane-preferring allocation keeps
    reorder_depth >= outstanding strictly ordered."""
    case = _case(fabric="mao", pattern="CCRA", burst_len=1, seed=2000)
    result = run_case(case)
    assert result.ok, [f.detail for f in result.failures]
