"""The conformance fuzz driver: sample → run → oracle → shrink.

For every sampled configuration the driver runs the *real* engine twice
— fast path and legacy per-cycle loop, both with the runtime sanitizer
armed and both watchdogs set — drains, and then applies three stacked
oracles:

1. the sanitizer (AXI ordering, conservation ledgers, credit leaks,
   DRAM bank legality) raising typed :class:`SanitizerError`\\ s,
2. a bit-exactness diff between the two loops' reports and post-drain
   counters,
3. the analytical reference model (:mod:`repro.conformance.reference`).

A failing case is auto-minimized by greedy dimension shrinking (walk
every dimension toward its most benign value while the same failure
kind persists) and written to the replayable corpus
(:mod:`repro.conformance.corpus`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple

from ..errors import ConfigError, FaultError, SanitizerError, SimulationError
from ..runtime import JournalState, RunJournal, load_journal
from ..sim import Engine
from ..sim.cache import MODEL_VERSION
from .case import FuzzCase, FAULT_KEYS, SCHEMA_VERSION
from .reference import Outcome, Prediction, check, predict
from .space import ParamSpace

#: The exhaustive core space: every fabric x pattern combination at the
#: paper's default knobs.  Small enough to enumerate fully, and the axis
#: pair where interaction bugs are most likely to hide.
CORE_DIMS: Dict[str, Tuple[object, ...]] = {
    "fabric": ("ideal", "xlnx", "mao"),
    "pattern": ("SCS", "CCS", "SCRA", "CCRA"),
    "rw": ("2:1",),
    "burst_len": (8,),
    "outstanding": (32,),
    "cycles": (1200,),
    "warmup_div": (4,),
    "fault": ("none",),
    "platform": ("small",),
}

#: The broad space, sampled pairwise.  Dimension values are ordered most
#: benign first — the shrinker walks each dimension toward index 0.
BROAD_DIMS: Dict[str, Tuple[object, ...]] = {
    "fabric": ("ideal", "xlnx", "mao"),
    "pattern": ("SCS", "CCS", "SCRA", "CCRA"),
    "rw": ("2:1", "1:0", "0:1", "1:1"),
    "burst_len": (8, 16, 4, 1),
    "outstanding": (32, 8, 4, 1),
    "cycles": (1200, 900, 2100),
    "warmup_div": (4, 6, 3),
    "fault": FAULT_KEYS,
    "platform": ("small", "wide"),
}


@dataclass(frozen=True)
class Failure:
    """One conformance finding on one case."""

    kind: str
    """``sanitizer`` / ``engine-diff`` / ``prediction`` / ``termination``
    / ``error`` — the shrinker preserves this while minimizing."""

    detail: str


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one case under the full oracle stack."""

    case: FuzzCase
    failures: Tuple[Failure, ...] = ()
    skipped: str = ""
    """The message of the :class:`~repro.errors.ConfigError` building
    the case raised, if any: its config or fault plan is invalid, which
    is not a finding."""

    total_gbps: float = 0.0
    abort: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


class _InvalidCase(Exception):
    """A :class:`~repro.errors.ConfigError` raised while a case's engine
    is built.  Only this skips a case: one raised while a loop runs is a
    finding like any other error, since model bugs raise them too."""


def _engine(case: FuzzCase, engine_tier: str) -> Engine:
    """A fresh engine for one loop of ``case``; raises
    :class:`_InvalidCase` when its config or fault plan is invalid."""
    try:
        fabric, sources = case.build()
        return Engine(fabric, sources, case.sim_config(engine=engine_tier),
                      faults=case.fault_plan() or None)
    except ConfigError as exc:
        raise _InvalidCase(str(exc)) from exc


def _one_loop(engine: Engine, drain_budget: int) -> Outcome:
    """Run one engine loop to a drained end state."""
    try:
        report = engine.run()
        drain_cycles = engine.drain(max_cycles=drain_budget)
    except FaultError as exc:
        return Outcome(report=None, abort=type(exc).__name__,
                       drain_cycles=0, totals=_totals(engine))
    return Outcome(report=report, abort="", drain_cycles=drain_cycles,
                   totals=_totals(engine))


def _totals(engine: Engine) -> Tuple[int, int, int, int, int]:
    mps = engine.masters
    return (sum(mp.issued for mp in mps),
            sum(mp.completed for mp in mps),
            sum(mp.nacks for mp in mps),
            sum(mp.retries for mp in mps),
            sum(mp.unrecoverable for mp in mps))


def _diff_outcomes(fast: Outcome, legacy: Outcome) -> List[str]:
    """Bit-exactness diff between the two engine loops."""
    diffs: List[str] = []
    if fast.abort != legacy.abort:
        diffs.append(f"abort differs: fast={fast.abort or 'completed'!r} "
                     f"legacy={legacy.abort or 'completed'!r}")
        return diffs
    if fast.totals != legacy.totals:
        diffs.append(f"post-drain counters differ: fast={fast.totals} "
                     f"legacy={legacy.totals}")
    if fast.report != legacy.report:
        diffs.append("SimReport differs between fast and legacy loops")
    return diffs


def run_case(case: FuzzCase) -> CaseResult:
    """One case through the full oracle stack."""
    failures: List[Failure] = []
    try:
        fast = _one_loop(_engine(case, "fast"), case.drain_budget)
        legacy = _one_loop(_engine(case, "legacy"), case.drain_budget)
    except _InvalidCase as exc:
        return CaseResult(case=case, skipped=str(exc))
    except SanitizerError as exc:
        return CaseResult(case=case, failures=(
            Failure("sanitizer", f"{type(exc).__name__}: {exc}"),))
    except SimulationError as exc:
        return CaseResult(case=case, failures=(
            Failure("termination", f"{type(exc).__name__}: {exc}"),))
    except Exception as exc:  # noqa: BLE001 — a crash is a finding too
        return CaseResult(case=case, failures=(
            Failure("error", f"{type(exc).__name__}: {exc}"),))

    for diff in _diff_outcomes(fast, legacy):
        failures.append(Failure("engine-diff", diff))
    for violation in check(case, predict(case), fast):
        failures.append(Failure("prediction", violation))
    rep = fast.report
    return CaseResult(
        case=case,
        failures=tuple(failures),
        total_gbps=rep.total_gbps if rep is not None else 0.0,
        abort=fast.abort,
    )


# -- shrinking ---------------------------------------------------------------

#: Hard cap on shrink re-runs per failing case (each re-run simulates
#: both loops, so minimization cost stays bounded).
MAX_SHRINK_RUNS = 64


def _fails_like(case: FuzzCase, kinds: Sequence[str]) -> bool:
    result = run_case(case)
    return any(f.kind in kinds for f in result.failures)


def shrink(case: FuzzCase, dims: Optional[Dict[str, Tuple[object, ...]]] = None,
           ) -> Tuple[FuzzCase, int]:
    """Greedy dimension shrinking toward a minimal failing config.

    Walks every dimension (in :data:`BROAD_DIMS` order) toward its most
    benign value — index 0 of the dimension tuple — keeping each move
    only when a failure of the *same kind* persists, and iterates to a
    fixpoint.  Returns the minimized case and the number of verification
    runs spent.  The result is guaranteed to still fail.
    """
    dims = dict(BROAD_DIMS if dims is None else dims)
    baseline = run_case(case)
    kinds = sorted({f.kind for f in baseline.failures})
    if not kinds:
        raise ConfigError("shrink() needs a failing case")
    sample = case.to_sample()
    runs = 0
    changed = True
    while changed and runs < MAX_SHRINK_RUNS:
        changed = False
        for name, values in dims.items():
            if name not in sample or sample[name] not in values:
                continue
            idx = values.index(sample[name])
            # Try increasingly benign values, most benign first.
            for cand_idx in range(idx):
                if runs >= MAX_SHRINK_RUNS:
                    break
                trial = dict(sample)
                trial[name] = values[cand_idx]
                runs += 1
                if _fails_like(FuzzCase.from_sample(trial, seed=case.seed),
                               kinds):
                    sample = trial
                    changed = True
                    break
    return FuzzCase.from_sample(sample, seed=case.seed), runs


# -- campaigns ---------------------------------------------------------------


def case_digest(case: FuzzCase) -> str:
    """Content-addressed identity of one case (the journal task id).

    Hashes the full serialized case — sample, seed, and the embedded
    ``SimConfig``/``FaultPlan`` derivations — so a digest names the
    exact run, and any builder drift since the journal was written
    changes the digest and forces a re-run instead of a stale skip.
    """
    blob = json.dumps(case.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _campaign_meta(seed: int) -> Dict[str, Any]:
    """Journal header meta; resume refuses on any mismatch here."""
    return {"kind": "fuzz-campaign", "seed": seed,
            "model_version": MODEL_VERSION, "case_schema": SCHEMA_VERSION}


def _check_resume_meta(state: JournalState, seed: int) -> None:
    meta = state.meta
    expected = _campaign_meta(seed)
    for key in ("kind", "seed", "model_version", "case_schema"):
        if meta.get(key) != expected[key]:
            raise ConfigError(
                f"journal {state.path} is not resumable by this campaign: "
                f"{key}={meta.get(key)!r} (expected {expected[key]!r}); "
                f"matching seed and model/schema versions are required for "
                f"a bit-identical resume")


def _result_payload(result: CaseResult, minimal: Optional[FuzzCase],
                    corpus_path: Optional[str]) -> Dict[str, Any]:
    """JSON form of everything the campaign recorded for one case."""
    return {
        "result": {
            "failures": [{"kind": f.kind, "detail": f.detail}
                         for f in result.failures],
            "skipped": result.skipped,
            "total_gbps": result.total_gbps,
            "abort": result.abort,
        },
        "minimized": minimal.to_dict() if minimal is not None else None,
        "corpus_path": corpus_path,
    }


def _restore_result(case: FuzzCase, payload: Mapping[str, Any],
                    ) -> Tuple[CaseResult, Optional[FuzzCase],
                               Optional[str]]:
    """Rebuild a journaled case's outcome bit-identically.

    JSON round-trips Python floats exactly (``repr``-based), so the
    restored :class:`CaseResult` compares equal to the one an
    uninterrupted run would have produced."""
    data = payload["result"]
    result = CaseResult(
        case=case,
        failures=tuple(Failure(str(f["kind"]), str(f["detail"]))
                       for f in data.get("failures", ())),
        skipped=str(data.get("skipped", "")),
        total_gbps=float(data.get("total_gbps", 0.0)),
        abort=str(data.get("abort", "")),
    )
    minimal = (FuzzCase.from_dict(payload["minimized"])
               if payload.get("minimized") else None)
    corpus_path = payload.get("corpus_path") or None
    return result, minimal, corpus_path


@dataclass
class CampaignReport:
    """Everything one fuzz campaign did."""

    seed: int
    budget: int
    results: List[CaseResult] = field(default_factory=list)
    minimized: List[Tuple[CaseResult, FuzzCase]] = field(default_factory=list)
    corpus_written: List[str] = field(default_factory=list)
    #: Cases restored from a resume journal instead of re-simulated.
    resumed: int = 0
    #: True when a shutdown request stopped the campaign early.
    interrupted: bool = False
    #: True when ``max_minutes`` expired before the budget was spent.
    deadline_reached: bool = False
    #: Cases of the budget not yet run (interrupt/deadline checkpoints).
    remaining: int = 0
    #: Journal backing this campaign, if any (the resume target).
    journal_path: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.remaining == 0

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.ok and not r.skipped]

    @property
    def skipped(self) -> List[CaseResult]:
        return [r for r in self.results if r.skipped]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        ran = len(self.results) - len(self.skipped)
        lines = [
            f"conformance fuzz: seed {self.seed}, budget {self.budget} -> "
            f"{ran} configs run, {len(self.skipped)} rejected by config "
            f"validation, {len(self.failures)} failing",
        ]
        for r in self.failures:
            lines.append(f"  FAIL {r.case.label()}")
            for f in r.failures:
                lines.append(f"       [{f.kind}] {f.detail}")
        for original, minimal in self.minimized:
            lines.append(f"  minimized {original.case.label()} -> "
                         f"{minimal.label()}")
        for path in self.corpus_written:
            lines.append(f"  corpus entry written: {path}")
        if self.ok:
            lines.append("  all reference-model predictions satisfied; "
                         "fast/legacy loops bit-identical on every config")
        return "\n".join(lines)


def campaign_cases(budget: int, seed: int) -> List[FuzzCase]:
    """The deterministic case list of a ``(budget, seed)`` campaign.

    The exhaustive core space runs first, then the pairwise broad space.
    A budget beyond one sweep wraps around with a bumped traffic seed
    (same configs, fresh stimulus), so arbitrarily large budgets stay
    meaningful.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    samples = ParamSpace.iter_unique([
        ParamSpace(CORE_DIMS, mode="full"),
        ParamSpace(BROAD_DIMS, mode="pairwise", seed=seed),
    ])
    cases: List[FuzzCase] = []
    for i in range(budget):
        sweep, idx = divmod(i, len(samples))
        cases.append(FuzzCase.from_sample(samples[idx],
                                          seed=seed + 1000 * sweep))
    return cases


def run_campaign(budget: int = 200, seed: int = 0, *, minimize: bool = True,
                 corpus_dir: Optional[str] = None,
                 progress: Optional[Callable[["CaseResult"], None]] = None,
                 journal_path: Optional[str] = None,
                 resume_from: Optional[str] = None,
                 max_minutes: Optional[float] = None,
                 should_stop: Optional[Callable[[], bool]] = None,
                 ) -> CampaignReport:
    """Run a seeded fuzz campaign; optionally minimize and persist
    failures into the corpus directory.

    Crash safety: with ``journal_path`` every case's outcome is recorded
    durably in a :class:`~repro.runtime.RunJournal` the moment it
    completes.  ``resume_from`` restores a prior journal's completed
    cases bit-identically (the deterministic :func:`campaign_cases`
    list plus content-addressed :func:`case_digest` ids make the skip
    exact) and re-simulates only the remainder, appending to the same
    journal.  ``max_minutes`` checkpoints cleanly at a wall-clock
    deadline; ``should_stop`` (e.g. a
    :class:`~repro.runtime.GracefulShutdown`) checkpoints on operator
    interrupt.  Either way the report says how many cases remain and a
    rerun with ``resume_from`` finishes the campaign.
    """
    from . import corpus as corpus_mod
    report = CampaignReport(seed=seed, budget=budget)
    state: Optional[JournalState] = None
    journal: Optional[RunJournal] = None
    if resume_from is not None:
        if journal_path is not None and journal_path != resume_from:
            raise ConfigError(
                "pass either journal_path or resume_from (a resume "
                "appends to the journal it resumes from)")
        state = load_journal(resume_from)
        _check_resume_meta(state, seed)
        journal_path = resume_from
        journal = RunJournal(journal_path, resume=True)
    elif journal_path is not None:
        journal = RunJournal(journal_path, meta=_campaign_meta(seed))
    report.journal_path = journal_path

    # Supervision plumbing, not simulated behaviour: the deadline bounds
    # operator wall-clock, never the simulated cycle count.
    deadline = (time.monotonic() + max_minutes * 60.0  # det-lint: allow
                if max_minutes is not None else None)
    cases = campaign_cases(budget, seed)
    try:
        for case in cases:
            digest = case_digest(case)
            if state is not None and state.is_finished(digest):
                try:
                    restored = _restore_result(case, state.payload(digest))
                except (ConfigError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"journal {journal_path} entry {digest} cannot be "
                        f"restored ({exc}); re-run without --resume"
                    ) from exc
                result, minimal, corpus_path = restored
                report.results.append(result)
                report.resumed += 1
                if minimal is not None:
                    report.minimized.append((result, minimal))
                if corpus_path:
                    report.corpus_written.append(corpus_path)
                continue
            if should_stop is not None and should_stop():
                report.interrupted = True
                break
            if (deadline is not None
                    and time.monotonic() >= deadline):  # det-lint: allow
                report.deadline_reached = True
                break
            if journal is not None:
                journal.start(digest)
            result = run_case(case)
            report.results.append(result)
            if progress is not None:
                progress(result)
            minimal = None
            corpus_path = None
            if not (result.ok or result.skipped):
                target = case
                if minimize:
                    minimal, _runs = shrink(case)
                    report.minimized.append((result, minimal))
                    target = minimal
                if corpus_dir is not None:
                    minimal_result = run_case(target)
                    corpus_path = corpus_mod.write_entry(
                        corpus_dir, target,
                        minimal_result.failures or result.failures,
                        seed=seed, budget=budget)
                    report.corpus_written.append(corpus_path)
            if journal is not None:
                journal.finish(digest,
                               _result_payload(result, minimal, corpus_path))
        report.remaining = budget - len(report.results)
    finally:
        if journal is not None:
            journal.close()
    return report
