"""Crash-safe execution runtime for long-running harness work.

The simulator itself became fault-tolerant in :mod:`repro.faults`; this
package makes the *harness that runs it* fault-tolerant:

* :mod:`repro.runtime.pool` — :class:`SupervisedPool`, a process pool
  with ``BrokenProcessPool`` recovery, retry with capped exponential
  backoff, poison-task quarantine, and structured
  :class:`TaskFailure`/:class:`SweepOutcome` reporting; and
  :func:`run_isolated`, one call in a fresh single-worker process
  under an optional timeout,
* :mod:`repro.runtime.journal` — :class:`RunJournal`, the durable
  append-only JSONL progress record that makes an interrupted
  ``repro-hbm fuzz`` campaign exactly resumable,
* :mod:`repro.runtime.signals` — :class:`GracefulShutdown`, two-stage
  SIGINT/SIGTERM handling for the fuzz campaign's clean
  checkpoint-and-exit.

The experiment sweeps (:func:`repro.experiments.parallel
.parallel_sweep`), the chaos suite, and ``repro-hbm fuzz`` all run on
this substrate, and ``repro-hbm serve --isolate`` runs each job through
:func:`run_isolated`.  A sweep resumes from its result store
(``REPRO_SIM_CACHE_DIR``), not from a journal: every finished point is
spilled there the moment it completes.
"""

from __future__ import annotations

from .journal import JOURNAL_VERSION, JournalState, RunJournal, load_journal
from .pool import (ISOLATED_ENV, SupervisedPool, SweepOutcome, TaskFailure,
                   run_isolated)
from .signals import GracefulShutdown

__all__ = [
    "JOURNAL_VERSION", "JournalState", "RunJournal", "load_journal",
    "ISOLATED_ENV", "SupervisedPool", "SweepOutcome", "TaskFailure",
    "run_isolated", "GracefulShutdown",
]
