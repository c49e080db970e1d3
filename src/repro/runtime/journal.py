"""Durable, append-only run journal (crash-safe progress record).

A :class:`RunJournal` is a JSONL file with one self-contained record per
line.  The conformance fuzz campaign (:mod:`repro.conformance.driver`,
``repro-hbm fuzz``) appends a record as each case starts and finishes;
after a crash, an OOM kill, or an operator SIGINT, :func:`load_journal`
recovers exactly which cases completed (and their recorded payloads) so
a resumed campaign re-executes only the unfinished remainder.  Sweeps
keep no journal: their resume record is the result store
(:mod:`repro.sim.cache`), which holds every finished point.

Durability contract
-------------------
Every record is written as one complete line, flushed, and ``fsync``'d
before :meth:`RunJournal.record` returns: a task is either durably
journaled or not journaled at all.  A crash mid-write can leave at most
one torn trailing line, which :func:`load_journal` detects and drops (a
torn *non*-trailing line would indicate external corruption and raises).

Schema versioning
-----------------
The first line of every journal is a header record carrying
:data:`JOURNAL_VERSION` plus caller-supplied ``meta`` (campaign seed,
budget, :data:`~repro.sim.cache.MODEL_VERSION`, ...).  Like
``MODEL_VERSION`` for cached simulation results, ``JOURNAL_VERSION`` is
bumped on any incompatible change to the record format so a resume can
never silently misread an old journal.  Callers should additionally
fold their own compatibility keys into ``meta`` and validate them on
resume (the fuzz driver checks campaign seed and model version).

Record kinds (the ``type`` field):

``journal``   header; first line, carries ``version`` + ``meta``
``resume``    appended every time an existing journal is reopened
``start``     task dispatched (``task`` id)
``finish``    task completed (``task`` id, optional ``payload`` object)

A ``start`` with no ``finish`` names the task a crashed run was
executing; a resume runs it again.

Task ids are caller-chosen strings; the fuzz driver uses the
content-addressed :func:`~repro.conformance.driver.case_digest` of each
case, so an id names the *work*, not its position in some mutable list.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Optional, Set

from ..errors import ConfigError

#: Journal file-format version; bump on incompatible record changes
#: (the resume path refuses to read a journal from a different version).
JOURNAL_VERSION = 1


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovered from one journal file."""

    path: str
    version: int = JOURNAL_VERSION
    meta: Dict[str, Any] = field(default_factory=dict)
    #: task id -> the ``payload`` object its ``finish`` record carried.
    finished: Dict[str, Any] = field(default_factory=dict)
    #: ids with a ``start`` but no ``finish`` — in flight at the
    #: moment the journaled run died; a resume re-executes them.
    started: Set[str] = field(default_factory=set)
    #: total records read (headers and resume markers included).
    records: int = 0
    #: number of times the journal was reopened for append.
    resumes: int = 0

    def is_finished(self, task_id: str) -> bool:
        return task_id in self.finished

    def payload(self, task_id: str) -> Any:
        return self.finished.get(task_id)


def load_journal(path: str) -> JournalState:
    """Parse a journal back into a :class:`JournalState`.

    Tolerates exactly one torn (incomplete) final line — the signature
    of a crash mid-append; any other unparseable line raises
    :class:`~repro.errors.ConfigError`, as does a missing header or a
    :data:`JOURNAL_VERSION` mismatch.
    """
    state = JournalState(path=path)
    header_seen = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read journal {path!r}: {exc}") from exc
    lines = raw.split("\n")
    # A well-formed journal ends with "\n", so the final split element is
    # empty; anything else is a torn trailing record from a crash.
    torn = lines[-1]
    lines = lines[:-1]
    if torn:
        warnings.warn(
            f"journal {path} ends in a torn record (crash mid-append); "
            f"dropping it — the task it described will simply re-run",
            RuntimeWarning, stacklevel=2)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ConfigError(
                f"journal {path} line {lineno} is not valid JSON "
                f"({exc}); the file is corrupt beyond a torn tail") from exc
        state.records += 1
        kind = rec.get("type")
        if kind == "journal":
            version = rec.get("version")
            if version != JOURNAL_VERSION:
                raise ConfigError(
                    f"journal {path} has version {version!r}; this build "
                    f"reads version {JOURNAL_VERSION} — re-run without "
                    f"--resume to start a fresh journal")
            state.version = int(version)
            state.meta = dict(rec.get("meta") or {})
            header_seen = True
        elif kind == "resume":
            state.resumes += 1
        elif kind == "start":
            state.started.add(str(rec["task"]))
        elif kind == "finish":
            task = str(rec["task"])
            state.finished[task] = rec.get("payload")
            state.started.discard(task)
        else:
            raise ConfigError(
                f"journal {path} line {lineno}: unknown record type "
                f"{kind!r}")
    if state.records == 0:
        raise ConfigError(f"journal {path} is empty")
    if not header_seen:
        raise ConfigError(f"journal {path} has no header record")
    return state


class RunJournal:
    """Append-only writer half of the journal (see module docstring).

    Open fresh with ``RunJournal(path, meta={...})`` (truncates) or
    continue an interrupted run with ``RunJournal(path, resume=True)``
    (appends a ``resume`` marker; the caller loads prior progress with
    :func:`load_journal` first).  Usable as a context manager.
    """

    def __init__(self, path: str, *, meta: Optional[Dict[str, Any]] = None,
                 resume: bool = False) -> None:
        self.path = path
        self._fh: Optional[IO[str]] = None
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        if resume and not os.path.exists(path):
            raise ConfigError(
                f"cannot resume: journal {path!r} does not exist")
        self._fh = open(path, "a" if resume else "w", encoding="utf-8")
        if resume:
            self.record("resume")
        else:
            self.record("journal", version=JOURNAL_VERSION,
                        meta=dict(meta or {}))

    # -- record writing ------------------------------------------------------

    def record(self, type_: str, **fields: Any) -> None:
        """Append one record durably (write + flush + fsync)."""
        if self._fh is None:
            raise ConfigError(f"journal {self.path} is closed")
        line = json.dumps({"type": type_, **fields}, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def start(self, task_id: str) -> None:
        self.record("start", task=task_id)

    def finish(self, task_id: str, payload: Any = None) -> None:
        self.record("finish", task=task_id, payload=payload)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
