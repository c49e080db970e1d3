"""Observers write no simulation state, checked at run time.

The sanitizer and the telemetry sampler are *observers*: a run reports
the same numbers with them attached or not, which holds only if no hook
of theirs writes simulation state.  :class:`PurityGuard` wraps every
hook in :data:`HOOKS` and compares :func:`state_digest` of the whole
engine before and after a call.  The digest hashes the observers
themselves as skipped, so what they write into their own ledgers does
not count; any other change is a violation naming the hook.  A
whole-engine digest costs milliseconds, so each hook is checked only at
its calls number 0, 1, 2, 4, 8, ...: every hook early, and a
logarithmic share of its later calls.

The seeded writes below show the guard catches what it exists for,
including a write hidden in a probe lambda, which the observers' own
code does not show.  The conformance reference model receives no
engine; ``test_check_flags_conservation_breakage`` in
``tests/test_conformance.py`` checks that it leaves its input unchanged.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import pytest

from repro.check.sanitizer import Sanitizer
from repro.errors import SanitizerError
from repro.fabric.base import BaseFabric
from repro.sim.config import ENGINE_TIERS
from repro.telemetry import COUNTER, Probe, Telemetry
from repro.types import Pattern, READ_ONLY, TWO_TO_ONE

from tests.test_engine_fastpath import FAULT_PLANS, _run, state_digest

#: Every observer entry point the engine calls.
HOOKS = {
    Sanitizer: ("on_issue", "on_complete", "after_batch", "finish",
                "check_drained"),
    Telemetry: ("sample", "note_jump", "finish"),
}

#: One point per fabric, run with both observers attached and then
#: drained, so every hook is called: faults bring NACKs and retries, and
#: one outstanding transaction per master leaves quiet stretches for the
#: fast tier to jump.
POINTS = {
    "xlnx": (Pattern.CCS, TWO_TO_ONE, 32, "slow-corrupt"),
    "mao": (Pattern.SCS, TWO_TO_ONE, 16, "offline-degrade"),
    "ideal": (Pattern.SCRA, READ_ONLY, 1, None),
}


class PurityGuard:
    """Wraps the observer hooks for the life of ``monkeypatch``.

    ``violations`` lists ``(hook, call ordinal)`` for each checked call
    that changed the engine's digest; ``checked`` counts checked calls
    per hook.
    """

    def __init__(self, monkeypatch, hooks=HOOKS) -> None:
        self.calls = Counter()
        self.checked = Counter()
        self.violations = []
        for cls, names in hooks.items():
            for name in names:
                real = getattr(cls, name, None)
                if not callable(real):
                    raise AssertionError(
                        f"{cls.__name__} has no hook {name!r}: the "
                        f"guard's table is stale")
                monkeypatch.setattr(
                    cls, name, self._wrap(f"{cls.__name__}.{name}", real))

    def _wrap(self, hook, real):
        def checked(observer, *args):
            n = self.calls[hook]
            self.calls[hook] = n + 1
            if n & (n - 1):  # not 0 or a power of two
                return real(observer, *args)
            engine = observer.engine
            before = state_digest(engine)
            try:
                return real(observer, *args)
            finally:
                self.checked[hook] += 1
                if state_digest(engine) != before:
                    self.violations.append((hook, n))
        return checked


def _run_point(small_platform, fabric_key, engine, cycles=1200):
    pattern, rw, outstanding, plan = POINTS[fabric_key]
    eng, _ = _run(small_platform, fabric_key, pattern, rw, outstanding,
                  engine, cycles=cycles, faults=FAULT_PLANS.get(plan),
                  sanitize=True, telemetry=True, txn_timeout_cycles=4000,
                  progress_timeout_cycles=4000)
    eng.drain()


# -- the shipped tree ---------------------------------------------------------

@pytest.fixture(scope="module")
def shipped(small_platform):
    """``{point: guard}`` of every point on both tiers."""
    guards = {}
    for fabric_key in POINTS:
        for engine in ENGINE_TIERS:
            with pytest.MonkeyPatch.context() as mp:
                guards[f"{fabric_key}-{engine}"] = PurityGuard(mp)
                _run_point(small_platform, fabric_key, engine)
    return guards


@pytest.mark.parametrize("point", [f"{f}-{e}" for f in POINTS
                                   for e in ENGINE_TIERS])
def test_shipped_tree_observers_pure(shipped, point):
    assert shipped[point].violations == []


def test_every_hook_is_checked(shipped):
    checked = sum((g.checked for g in shipped.values()), Counter())
    assert sorted(checked) == sorted(
        f"{cls.__name__}.{name}" for cls, names in HOOKS.items()
        for name in names)


def test_stale_hook_table_is_an_error(monkeypatch):
    with pytest.raises(AssertionError, match="stale"):
        PurityGuard(monkeypatch, {Sanitizer: ("on_issue", "on_retire")})


# -- seeded writes ------------------------------------------------------------

def _violations(monkeypatch, small_platform):
    """Violations on a short guarded run with a seeded write in place.
    The write may derail the run after the guard has recorded it: a
    bumped attempt ordinal trips the sanitizer, a master replaced by
    ``None`` breaks the engine loop."""
    guard = PurityGuard(monkeypatch)
    with contextlib.suppress(SanitizerError, AttributeError):
        _run_point(small_platform, "mao", "fast", cycles=400)
    return guard.violations


def test_sanitizer_writes_engine(monkeypatch, small_platform):
    real = Sanitizer.on_issue

    def on_issue(self, txn, cycle):
        real(self, txn, cycle)
        self.engine.cycle = -1

    monkeypatch.setattr(Sanitizer, "on_issue", on_issue)
    assert ("Sanitizer.on_issue", 0) in _violations(monkeypatch,
                                                    small_platform)


def _scrub(victim):
    victim.retries += 1


def test_sanitizer_writes_through_helper(monkeypatch, small_platform):
    real = Sanitizer.on_issue

    def on_issue(self, txn, cycle):
        real(self, txn, cycle)
        _scrub(txn)

    monkeypatch.setattr(Sanitizer, "on_issue", on_issue)
    assert ("Sanitizer.on_issue", 0) in _violations(monkeypatch,
                                                    small_platform)


def test_telemetry_stores_into_engine(monkeypatch, small_platform):
    real = Telemetry.sample

    def sample(self, cycle):
        real(self, cycle)
        self.engine.masters[0] = None

    monkeypatch.setattr(Telemetry, "sample", sample)
    assert ("Telemetry.sample", 0) in _violations(monkeypatch,
                                                  small_platform)


def test_probe_lambda_writes_counter(monkeypatch, small_platform):
    real = BaseFabric.telemetry_probes

    def telemetry_probes(self):
        c = self.pchs[0].counters

        def bump(c=c):
            c.refreshes += 1
            return c.refreshes

        return real(self) + [Probe("dram.pch0.bumped", COUNTER, bump,
                                   "dram")]

    monkeypatch.setattr(BaseFabric, "telemetry_probes", telemetry_probes)
    assert ("Telemetry.sample", 0) in _violations(monkeypatch,
                                                  small_platform)
