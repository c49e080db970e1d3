"""Corpus replay regression tier.

Every minimized fuzz finding committed under ``tests/corpus/`` is re-run
through the full oracle stack (sanitizer + fast/legacy diff + reference
model).  An entry documents a bug that was found and fixed; replaying it
keeps the fix honest forever.  A *stale* entry — one the static analyzer
now rejects, or whose embedded derivations no longer match the case
builders — fails loudly instead of silently testing nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.conformance.corpus import (default_corpus_dir, list_entries,
                                      load_entry)
from repro.conformance.driver import run_case
from repro.sim import Engine
from repro.sim.config import ENGINE_TIERS

ENTRIES = list_entries(default_corpus_dir())


def test_corpus_directory_is_not_empty():
    """PR history guarantee: the first fuzz campaign's finding (the MAO
    lane-allocation ordering bug) is committed here."""
    assert ENTRIES, f"no corpus entries under {default_corpus_dir()}"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.name)
def test_corpus_entry_replays_clean(path):
    case = load_entry(path)  # raises ConfigError if the entry went stale
    result = run_case(case)
    assert not result.skipped, \
        f"{path.name}: rejected by config validation ({result.skipped}) " \
        "— stale entry"
    assert result.ok, "\n".join(
        f"[{f.kind}] {f.detail}" for f in result.failures)


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.name)
def test_corpus_entry_bit_identical_across_engines(path):
    """Every corpus scenario — each one a minimized real finding — must
    replay bit-identically under both engine tiers.  ``run_case``
    already diffs the loops internally; this replays each tier explicitly
    so a divergence shows up as a plain report mismatch."""
    case = load_entry(path)
    reports = {}
    for tier in ENGINE_TIERS:
        fabric, sources = case.build()
        eng = Engine(fabric, sources, case.sim_config(engine=tier),
                     faults=case.fault_plan() or None)
        reports[tier] = eng.run()
    assert reports["fast"] == reports["legacy"], "fast != legacy"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.name)
def test_corpus_entry_documents_its_finding(path):
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["failure"]["kind"] in (
        "sanitizer", "engine-diff", "prediction", "termination", "error")
    assert payload["failure"]["details"], "entry must describe the failure"
    assert {"seed", "budget"} <= set(payload["found_by"])
