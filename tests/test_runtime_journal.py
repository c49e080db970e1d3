"""Unit tests for the durable run journal (repro.runtime.journal)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.runtime import (JOURNAL_VERSION, JournalState, RunJournal,
                           load_journal)


def test_round_trip(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, meta={"kind": "unit", "seed": 7}) as journal:
        journal.start("a")
        journal.finish("a", {"value": 1})
        journal.start("b")  # in flight at "crash" time — no finish
    state = load_journal(path)
    assert state.version == JOURNAL_VERSION
    assert state.meta == {"kind": "unit", "seed": 7}
    assert state.is_finished("a") and state.payload("a") == {"value": 1}
    assert not state.is_finished("b")
    assert state.started == {"b"}
    assert state.resumes == 0


def test_records_are_durable_line_at_a_time(tmp_path):
    """Every record is a complete fsync'd line the moment it returns —
    a reader sees it without waiting for close()."""
    path = str(tmp_path / "run.jsonl")
    journal = RunJournal(path, meta={})
    journal.finish("t", {"n": 1})
    state = load_journal(path)  # journal still open for writing
    assert state.is_finished("t")
    journal.close()


def test_torn_trailing_line_is_dropped_with_warning(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, meta={}) as journal:
        journal.finish("done", {"v": 1})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"type": "finish", "task": "torn", "payl')  # crash mid-append
    with pytest.warns(RuntimeWarning, match="torn record"):
        state = load_journal(path)
    assert state.is_finished("done")
    assert not state.is_finished("torn")  # the torn task will simply re-run


def test_mid_file_corruption_raises(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, meta={}) as journal:
        journal.finish("a")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"type": "finish", "task": "b"}) + "\n")
    with pytest.raises(ConfigError, match="corrupt beyond a torn tail"):
        load_journal(path)


def test_version_mismatch_refuses_resume(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "journal",
                             "version": JOURNAL_VERSION + 1,
                             "meta": {}}) + "\n")
    with pytest.raises(ConfigError, match="version"):
        load_journal(path)


def test_empty_and_headerless_journals_raise(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_journal(str(empty))
    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text(
        json.dumps({"type": "finish", "task": "a"}) + "\n")
    with pytest.raises(ConfigError, match="no header"):
        load_journal(str(headerless))


def test_unknown_record_type_raises(tmp_path):
    # ``failure`` records are no longer written, so they are refused too.
    for i, record in enumerate([{"type": "telemetry", "x": 1},
                                {"type": "failure", "task": "t",
                                 "failure": {"kind": "crash"}}]):
        path = str(tmp_path / f"run{i}.jsonl")
        with RunJournal(path, meta={}):
            pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="unknown record type"):
            load_journal(path)


def test_resume_appends_marker_and_preserves_history(tmp_path):
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, meta={"seed": 0}) as journal:
        journal.finish("a", {"v": 1})
    with RunJournal(path, resume=True) as journal:
        journal.finish("b", {"v": 2})
    state = load_journal(path)
    assert state.resumes == 1
    assert state.is_finished("a") and state.is_finished("b")
    assert state.meta == {"seed": 0}  # header from the original run


def test_resume_of_missing_journal_raises(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        RunJournal(str(tmp_path / "nope.jsonl"), resume=True)


def test_finish_supersedes_start_on_resume(tmp_path):
    """A task in flight when run 1 died and finished by run 2 is
    finished, no longer started."""
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, meta={}) as journal:
        journal.start("t")
    assert load_journal(path).started == {"t"}
    with RunJournal(path, resume=True) as journal:
        journal.start("t")
        journal.finish("t", {"v": 42})
    state = load_journal(path)
    assert state.is_finished("t") and state.payload("t") == {"v": 42}
    assert "t" not in state.started


def test_closed_journal_refuses_writes(tmp_path):
    journal = RunJournal(str(tmp_path / "run.jsonl"), meta={})
    journal.close()
    with pytest.raises(ConfigError, match="closed"):
        journal.finish("a")


def test_journal_state_defaults():
    state = JournalState(path="x")
    assert not state.is_finished("a")
    assert state.payload("a") is None
