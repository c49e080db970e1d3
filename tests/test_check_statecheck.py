"""Tests of the observer-purity analyzer.

Two layers:

* **clean-tree gate** — the shipped sources must pass the analysis
  (this is the same property ``repro-hbm check --state`` and run
  pre-validation enforce);
* **seeded mutations** — copies of the *real* sources with a hidden
  observer write injected must be flagged as SC003.  This proves the
  analyzer detects the bug class it exists for, not merely that the
  current tree happens to be quiet.
"""

from __future__ import annotations

import ast

import pytest

from repro.check.astutil import dotted, load_sources, module_name
from repro.check.findings import render_json
from repro.check.statecheck import check_observer_purity, render_state_report


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


# -- clean-tree gate ----------------------------------------------------------

def test_shipped_tree_observers_pure(sources):
    findings = check_observer_purity(sources)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_report_renders_stats_and_verdict(sources):
    text = render_state_report(check_observer_purity(sources), len(sources))
    assert f"state analyzer: {len(sources)} modules" in text
    assert "entry points traced interprocedurally" in text
    assert "observers write no simulation state" in text


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
    findings = check_observer_purity(src)
    assert any(f.code == "SC000" for f in findings)


def test_render_json_is_sorted_and_parseable(sources):
    import json
    src = dict(sources)
    san = _inject_method(
        src["repro.check.sanitizer"], "Sanitizer",
        "    def _sc_evil(self, cycle: int) -> None:\n"
        "        self.engine.cycle = -1\n")
    src["repro.check.sanitizer"] = san.replace(
        "        if self._track_lanes and txn.is_read:",
        "        self._sc_evil(cycle)\n"
        "        if self._track_lanes and txn.is_read:", 1)
    payload = json.loads(render_json(check_observer_purity(src)))
    assert payload and payload[0]["code"] == "SC003"
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
    assert module_name(root / "dram" / "pch.py", root) == "repro.dram.pch"
    assert module_name(root / "check" / "__init__.py", root) == "repro.check"
