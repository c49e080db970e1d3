"""Tests of the runtime invariant sanitizer (``repro.check.sanitizer``).

Two complementary halves:

* **differential**: over the fast-path grid, a sanitizer-enabled run must
  be clean *and* bit-identical to the plain run, in its report and in
  the model state it leaves — the sanitizer is a pure observer, never a
  timing change;
* **mutation**: seeded simulator bugs (duplicated completions, leaked
  reorder slots, scrambled or hopped AXI ID lanes, lying bank state)
  must each be caught with the matching typed
  :class:`~repro.errors.SanitizerError` subclass, carrying a minimal
  repro context.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import Sanitizer
from repro.core.mao import MaoConfig
from repro.dram.bank import BankSet
from repro.errors import (BankStateViolation, ConservationViolation,
                          CreditLeak, OrderingViolation, SanitizerError)
from repro.fabric import IdealFabric, MaoFabric
from repro.sim import Engine, SimConfig
from repro.sim.config import ENGINE_TIERS
from repro.traffic import make_pattern_sources
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

from tests.test_engine_fastpath import (FABRICS, FAULT_GRID, FAULT_PLANS,
                                        GRID, _model_digest, _run)


def _engine(small_platform, fabric, *, pattern=Pattern.CCS, rw=READ_ONLY,
            outstanding=32, cycles=1200, warmup=300, **cfg_kw):
    sources = make_pattern_sources(pattern, small_platform, burst_len=8,
                                   rw=rw, address_map=fabric.address_map)
    cfg = SimConfig(cycles=cycles, warmup=warmup, outstanding=outstanding,
                    **cfg_kw)
    return Engine(fabric, sources, cfg)


# -- differential: clean runs stay clean and bit-identical -------------------

@pytest.mark.parametrize("engine", ENGINE_TIERS)
@pytest.mark.parametrize("fabric_key,pattern,rw,outstanding", GRID,
                         ids=[f"{f}-{p.name}-{r.reads}to{r.writes}-o{o}"
                              for f, p, r, o in GRID])
def test_sanitized_grid_clean_and_bit_identical(small_platform, fabric_key,
                                                pattern, rw, outstanding,
                                                engine):
    """The sanitizer must see the same event stream under every engine
    tier: its ledgers are part of the observable surface the fast path's
    skipping may not perturb."""
    eng, sanitized = _run(small_platform, fabric_key, pattern, rw,
                          outstanding, engine, sanitize=True)
    plain_eng, plain = _run(small_platform, fabric_key, pattern, rw,
                            outstanding, engine)
    assert sanitized == plain
    assert _model_digest(eng) == _model_digest(plain_eng)
    san = eng.sanitizer
    assert san is not None and san.checks_run > 0
    assert san.attempts_issued == san.attempts_finished + len(san._inflight)
    # On guaranteed-ordering configurations no inversion is even counted.
    assert san.relaxed_inversions == 0 or not san._ordering_armed


@pytest.mark.parametrize("fabric_key,plan_key", FAULT_GRID[:4],
                         ids=[f"{f}-{p}" for f, p in FAULT_GRID[:4]])
def test_sanitized_fault_runs_clean(small_platform, fabric_key, plan_key):
    """NACK storms, degradation remaps, and retries all stay within the
    sanitizer's ledgers — the invariants hold under fault injection."""
    kw = dict(faults=FAULT_PLANS[plan_key], txn_timeout_cycles=4000,
              progress_timeout_cycles=4000)
    eng, sanitized = _run(small_platform, fabric_key, Pattern.SCS,
                          TWO_TO_ONE, 16, "fast", sanitize=True, **kw)
    plain_eng, plain = _run(small_platform, fabric_key, Pattern.SCS,
                            TWO_TO_ONE, 16, "fast", **kw)
    assert sanitized == plain
    assert _model_digest(eng) == _model_digest(plain_eng)
    assert eng.sanitizer.checks_run > 0


@pytest.mark.parametrize("fabric_key", ["xlnx", "mao", "ideal"])
def test_sanitized_drain_releases_everything(small_platform, fabric_key):
    eng = _engine(small_platform, FABRICS[fabric_key](small_platform),
                  rw=TWO_TO_ONE, sanitize=True)
    eng.run()
    eng.drain()
    san = eng.sanitizer
    assert not san._inflight and not san._lanes


def test_sanitize_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert SimConfig().sanitize is True
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert SimConfig().sanitize is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert SimConfig().sanitize is False


def test_double_attach_rejected(small_platform):
    eng = _engine(small_platform, IdealFabric(small_platform), sanitize=True)
    with pytest.raises(SanitizerError, match="already attached"):
        eng.sanitizer.attach(eng)


# -- mutation: seeded bugs must be caught with the right typed error ---------

class _DupFabric(IdealFabric):
    """Delivers every 11th read completion twice (conservation bug)."""

    def _on_read_data(self, txn, time):
        super()._on_read_data(txn, time)
        if txn.uid % 11 == 0:
            super()._on_read_data(txn, time)


class _DoubleFreeFabric(MaoFabric):
    """Returns each read's reorder slot twice (credit accounting bug)."""

    def _on_read_data(self, txn, time):
        self._reads_in_flight[txn.master] -= 1
        super()._on_read_data(txn, time)


class _ScrambledLaneFabric(MaoFabric):
    """Collapses every read onto AXI ID lane 0 *after* lane allocation,
    so responses release on their real lanes but claim lane 0 — the
    delivery order seen on lane 0 is no longer issue order."""

    def submit(self, txn, cycle):
        ok = super().submit(txn, cycle)
        if ok and txn.is_read:
            txn.axi_id = 0
        return ok


class _LyingBankSet(BankSet):
    """Performs real row management but always reports a row hit."""

    def access(self, local_addr, earliest):
        ready, _hit = super().access(local_addr, earliest)
        return ready, True


class _EarlyColumnBankSet(BankSet):
    """Reports the column ready one cycle before the request arrived."""

    def access(self, local_addr, earliest):
        _ready, hit = super().access(local_addr, earliest)
        return earliest - 1, hit


class _ForgetfulBankSet(BankSet):
    """Activates the row but leaves its bank closed afterwards."""

    def access(self, local_addr, earliest):
        ready, hit = super().access(local_addr, earliest)
        self.open_row[self.bank_of(local_addr)] = -1
        return ready, hit


class _RewindingBankSet(BankSet):
    """Lowers a bank's activate bound below its old value on a miss."""

    def access(self, local_addr, earliest):
        bank = self.bank_of(local_addr)
        bound = self.next_act[bank]
        ready, hit = super().access(local_addr, earliest)
        if not hit:
            self.next_act[bank] = bound - 1
        return ready, hit


class _LaneHoppingFabric(MaoFabric):
    """Moves each read to the next AXI ID once its data leaves the
    controller, after the issue hook filed it on its real lane."""

    def _on_read_data(self, txn, time):
        super()._on_read_data(txn, time)
        txn.axi_id = (txn.axi_id + 1) % self.config.reorder_depth


def test_duplicate_completion_caught(small_platform):
    eng = _engine(small_platform, _DupFabric(small_platform), sanitize=True)
    with pytest.raises(ConservationViolation, match="not in flight") as ei:
        eng.run()
    assert ei.value.context.get("fabric") == "ideal"
    assert "txn" in ei.value.context


def test_reorder_slot_leak_caught(small_platform):
    eng = _engine(small_platform, _DoubleFreeFabric(small_platform),
                  sanitize=True)
    with pytest.raises(CreditLeak, match="reorder read slots"):
        eng.run()


def test_lane_scramble_caught_when_ordering_guaranteed(small_platform):
    # reorder_depth (32, default) >= outstanding (32): the ordering check
    # is armed without strict mode.
    eng = _engine(small_platform, _ScrambledLaneFabric(small_platform),
                  sanitize=True)
    with pytest.raises(OrderingViolation, match="overtook"):
        eng.run()


def test_bank_state_lie_caught(small_platform):
    fabric = IdealFabric(small_platform)
    for pch in fabric.pchs:
        pch.banks = _LyingBankSet(pch.banks.timing)
    eng = _engine(small_platform, fabric, sanitize=True)
    with pytest.raises(BankStateViolation, match="implies miss"):
        eng.run()


@pytest.mark.parametrize("bank_set,message", [
    (_EarlyColumnBankSet, "column-ready .* before request time"),
    (_ForgetfulBankSet, "access left bank open at row -1 instead of"),
    (_RewindingBankSet, "activate bound moved backwards"),
], ids=["ready", "open-row", "act-bound"])
def test_bank_state_fault_caught(small_platform, bank_set, message):
    """Each of the proxy's other three checks catches its own fault."""
    fabric = IdealFabric(small_platform)
    for pch in fabric.pchs:
        pch.banks = bank_set(pch.banks.timing)
    eng = _engine(small_platform, fabric, sanitize=True)
    with pytest.raises(BankStateViolation, match=message) as ei:
        eng.run()
    assert ei.value.context.get("fabric") == "ideal"


def test_read_moved_off_its_lane_caught(small_platform):
    eng = _engine(small_platform, _LaneHoppingFabric(small_platform),
                  sanitize=True)
    with pytest.raises(ConservationViolation,
                       match="not tracked on its AXI ID lane") as ei:
        eng.run()
    assert "txn" in ei.value.context


def test_violation_context_renders_repro_recipe(small_platform):
    eng = _engine(small_platform, _DupFabric(small_platform), sanitize=True)
    with pytest.raises(ConservationViolation) as ei:
        eng.run()
    msg = str(ei.value)
    # The minimal repro config rides along in the message text.
    assert "fabric=ideal" in msg and "cycle=" in msg and "outstanding=" in msg


# -- relaxed vs. strict same-ID ordering -------------------------------------

def test_shallow_reorder_inversions_counted_not_raised(small_platform):
    """Below reorder_depth >= outstanding the MAO's analytical release
    rule is a documented approximation: same-lane inversions happen on
    healthy runs and are *counted*, not raised."""
    fabric = MaoFabric(small_platform, MaoConfig(reorder_depth=2))
    # Random cross-channel reads (CCRA) complete at per-PCH-dependent
    # times, so same-lane delivery order diverges from issue order.
    eng = _engine(small_platform, fabric, pattern=Pattern.CCRA,
                  sanitize=True)
    eng.run()
    san = eng.sanitizer
    assert not san._ordering_armed
    assert san.relaxed_inversions > 0


def test_strict_ordering_arms_the_check(small_platform):
    fabric = MaoFabric(small_platform, MaoConfig(reorder_depth=2))
    eng = _engine(small_platform, fabric, pattern=Pattern.CCRA)
    Sanitizer(strict_ordering=True).attach(eng)
    with pytest.raises(OrderingViolation, match="overtook"):
        eng.run()
