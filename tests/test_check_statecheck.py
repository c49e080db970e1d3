"""Tests of the state-coverage / observer-purity analyzer.

Two layers:

* **clean-tree gates** — the shipped sources must pass both analyses
  (this is the same property ``repro-hbm check --state`` and run
  pre-validation enforce);
* **seeded mutations** — copies of the *real* sources with a synthetic
  uncovered field or a hidden observer write injected must be flagged
  with the right SC00x code.  This proves the analyzer detects the bug
  classes it exists for, not merely that the current tree happens to be
  quiet.
"""

from __future__ import annotations

import ast

import pytest

from repro.check.astutil import dotted, load_sources, module_name
from repro.check.findings import render_json
from repro.check.statecheck import (ALLOWLIST, DERIVED_PRAGMA,
                                    check_observer_purity, check_state,
                                    check_state_coverage,
                                    component_inventory, render_state_report,
                                    state_stats)


@pytest.fixture(scope="module")
def sources():
    return load_sources()


def _inject_method(source: str, classname: str, method_src: str) -> str:
    """Splice ``method_src`` (4-space-indented ``def`` lines) in front of
    the first method of ``classname``.  Textual, so existing comments and
    pragmas in the module survive verbatim."""
    anchor = source.index(f"class {classname}")
    first_def = source.index("\n    def ", anchor)
    return source[:first_def] + "\n" + method_src + source[first_def:]


def _codes(findings):
    return sorted({f.code for f in findings})


# -- clean-tree gates ---------------------------------------------------------

def test_shipped_tree_state_coverage_clean(sources):
    findings = check_state_coverage(sources)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_shipped_tree_observers_pure(sources):
    findings = check_observer_purity(sources)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_inventory_sees_the_known_hot_state(sources):
    """Spot-check the inventory against fields the engine demonstrably
    mutates every cycle — if these vanish, the analyzer went blind and
    the clean-tree gates above prove nothing."""
    inv = component_inventory(sources)
    assert "open_row" in inv["BankSet"]
    assert "accepts" in inv["MemoryController"]
    assert "pending_in" in inv["ArbOutput"]
    assert "outstanding" in inv["MasterPort"]
    assert "txns_serviced" in inv["PchCounters"]
    # The derived pragma is honored: exhausted is recomputed, not state.
    assert inv["MasterPort"]["exhausted"].derived


def test_report_renders_stats_and_verdict(sources):
    text = render_state_report(check_state(sources), state_stats(sources))
    assert "component classes" in text
    assert "cannot silently drift" in text


# -- SC001: uncovered sim-state field -----------------------------------------

def test_sc001_synthetic_field_is_flagged(sources):
    src = dict(sources)
    src["repro.dram.controller"] = _inject_method(
        src["repro.dram.controller"], "MemoryController",
        "    def _sc_mutate(self) -> None:\n"
        "        self.shadow_meter = 1\n")
    findings = check_state_coverage(src)
    assert _codes(findings) == ["SC001"]
    assert "MemoryController.shadow_meter" in findings[0].message
    assert findings[0].location.startswith("repro/dram/controller.py:")


def test_sc001_derived_pragma_exempts_the_field(sources):
    src = dict(sources)
    src["repro.dram.controller"] = _inject_method(
        src["repro.dram.controller"], "MemoryController",
        "    def _sc_mutate(self) -> None:\n"
        f"        self.shadow_meter = 1  # {DERIVED_PRAGMA}\n")
    assert check_state_coverage(src) == []


def test_sc001_pragma_must_cover_every_mutation_site(sources):
    """One pragma'd line does not launder a second, bare mutation."""
    src = dict(sources)
    src["repro.dram.controller"] = _inject_method(
        src["repro.dram.controller"], "MemoryController",
        "    def _sc_mutate(self) -> None:\n"
        f"        self.shadow_meter = 1  # {DERIVED_PRAGMA}\n"
        "        self.shadow_meter = 2\n")
    assert _codes(check_state_coverage(src)) == ["SC001"]


def test_sc001_external_write_counts_as_mutation(sources):
    """A module-level helper poking a component field from outside the
    class is state mutation too (that is how the fault injector and the
    engine's drain flag work)."""
    src = dict(sources)
    src["repro.dram.controller"] = src["repro.dram.controller"].replace(
        "        self.accepts = 0",
        "        self.accepts = 0\n"
        "        self.shadow_meter2 = 0", 1) + (
        "\n\ndef _sc_poke(mc):\n"
        "    mc.shadow_meter2 = 7\n")
    findings = check_state_coverage(src)
    assert _codes(findings) == ["SC001"]
    assert "shadow_meter2" in findings[0].message


def test_sc002_stale_allowlist_entry(sources):
    allow = dict(ALLOWLIST)
    allow[("Fifo", "ghost_field")] = "left over from a refactor"
    findings = check_state_coverage(sources, allowlist=allow)
    assert _codes(findings) == ["SC002"]
    assert "Fifo.ghost_field" in findings[0].message


# -- SC003: observer purity ---------------------------------------------------

def test_sc003_direct_observer_write(sources):
    src = dict(sources)
    san = src["repro.check.sanitizer"]
    san = _inject_method(
        san, "Sanitizer",
        "    def _sc_evil(self, cycle: int) -> None:\n"
        "        self.engine.cycle = -1\n")
    san = san.replace(
        "        if self._track_lanes and txn.is_read:",
        "        self._sc_evil(cycle)\n"
        "        if self._track_lanes and txn.is_read:", 1)
    src["repro.check.sanitizer"] = san
    findings = check_observer_purity(src)
    assert _codes(findings) == ["SC003"]
    assert any(".cycle" in f.message for f in findings)


def test_sc003_interprocedural_write_through_helper(sources):
    """A hidden write two calls deep — the observer passes a sim object
    to a helper that mutates it."""
    src = dict(sources)
    san = src["repro.check.sanitizer"]
    san = _inject_method(
        san, "Sanitizer",
        "    def _sc_probe(self, txn) -> None:\n"
        "        self._sc_scrub(txn)\n\n"
        "    def _sc_scrub(self, victim) -> None:\n"
        "        victim.retries = 0\n")
    san = san.replace(
        "        if self._track_lanes and txn.is_read:",
        "        self._sc_probe(txn)\n"
        "        if self._track_lanes and txn.is_read:", 1)
    src["repro.check.sanitizer"] = san
    findings = check_observer_purity(src)
    assert _codes(findings) == ["SC003"]
    assert any(".retries" in f.message for f in findings)


def test_sc003_telemetry_subscript_store_on_sim_object(sources):
    src = dict(sources)
    sam = src["repro.telemetry.sampler"]
    sam = _inject_method(
        sam, "Telemetry",
        "    def _sc_stomp(self) -> None:\n"
        "        self.engine.masters[0] = None\n")
    sam = sam.replace("        cycles = self.sample_cycles",
                      "        self._sc_stomp()\n"
                      "        cycles = self.sample_cycles", 1)
    src["repro.telemetry.sampler"] = sam
    findings = check_observer_purity(src)
    assert any(f.code == "SC003" and "subscript store" in f.message
               for f in findings), "\n".join(str(f) for f in findings)


def test_sc003_stale_observer_table_is_an_error(sources):
    src = dict(sources)
    src["repro.conformance.reference"] = (
        src["repro.conformance.reference"].replace(
            "def predict(", "def predict_renamed(", 1))
    findings = check_observer_purity(src)
    assert any(f.code == "SC003" and "predict" in f.message
               for f in findings)


# -- plumbing -----------------------------------------------------------------

def test_syntax_error_becomes_sc000(sources):
    src = dict(sources)
    src["repro.fabric.links"] = "def broken(:\n"
    findings = check_state(src)
    assert any(f.code == "SC000" for f in findings)


def test_render_json_is_sorted_and_parseable(sources):
    import json
    src = dict(sources)
    src["repro.dram.controller"] = _inject_method(
        src["repro.dram.controller"], "MemoryController",
        "    def _sc_mutate(self) -> None:\n"
        "        self.shadow_meter = 1\n")
    payload = json.loads(render_json(check_state_coverage(src)))
    assert payload and payload[0]["code"] == "SC001"
    assert set(payload[0]) == {"severity", "code", "message", "location"}


# -- astutil (satellite c) ----------------------------------------------------

def test_dotted_sees_through_calls():
    expr = ast.parse("random.Random().random()", mode="eval").body
    assert dotted(expr.func) == ("random", "Random", "random")
    plain = ast.parse("a.b.c", mode="eval").body
    assert dotted(plain) == ("a", "b", "c")
    assert dotted(ast.parse("f()", mode="eval").body.func) == ("f",)


def test_module_name_mapping(tmp_path):
    root = tmp_path / "repro"
    assert module_name(root / "dram" / "soa.py", root) == "repro.dram.soa"
    assert module_name(root / "check" / "__init__.py", root) == "repro.check"
