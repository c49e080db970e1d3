"""Runtime invariant sanitizer for the cycle simulation.

The :class:`Sanitizer` attaches to a live :class:`~repro.sim.engine.Engine`
and validates, on every transaction attempt, the invariants a silent
modeling bug would break first (Sec. IV-A/B of the paper — exactly the
machinery the reproduced figures rest on):

* **AXI same-ID response ordering** — on fabrics that guarantee it (the
  MAO's reorder-buffer lanes), read responses on one ``(master, AXI ID)``
  lane must be delivered in issue order.  The MAO timing model preserves
  this whenever the reorder depth covers the outstanding credit
  (``reorder_depth >= outstanding``: same-lane reads are then never
  concurrently in flight).  Below that the analytical release rule is a
  documented approximation — inversions are *counted*
  (:attr:`Sanitizer.relaxed_inversions`) and only raise under
  ``strict_ordering``.
* **Transaction conservation** — every completion matches exactly one
  in-flight issue, and at the end of the run each master's ledger
  balances: ``issued == completed + unrecoverable + queued retries +
  in flight`` (per transaction) and ``issued + retries == completed +
  nacks + in flight`` (per attempt).
* **Credit / reorder-slot leaks** — outstanding credits stay within
  ``[0, limit]``, the MAO's per-master read slots within
  ``[0, reorder_depth * READS_PER_LANE]``, and after a successful drain
  every credit and slot is back home.
* **Monotonic timestamps** — delivery cycles never move backwards and
  ``issue <= accept <= complete`` per attempt.
* **DRAM bank-state legality** — each pseudo-channel's
  :class:`~repro.dram.bank.BankSet` is wrapped in a shadow
  :class:`CheckedBankSet` proxy that verifies every access: a claimed
  row hit must target the open row, a miss must open the row it
  activates, and the per-bank activate bound never moves backwards.
* **Watchdog/retry consistency** — a completion's attempt ordinal
  matches its issue and re-issues bump the ordinal by exactly one.

Violations raise typed :class:`~repro.errors.SanitizerError` subclasses
carrying a minimal repro context (fabric, config, fault plan, cycle,
transaction).  When the sanitizer is *off* (the default) the engine pays
a single ``is None`` test per completion batch — the near-zero-overhead
contract benchmarked in the fast-path tests.

The sanitizer is a pure observer: it never changes timing, so a run with
the sanitizer enabled produces a bit-identical
:class:`~repro.sim.stats.SimReport`.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Tuple)

from ..axi.transaction import (AxiTransaction, STATUS_NAMES, STATUS_OK,
                               check_burst_legal)
from ..errors import (AxiProtocolError, BankStateViolation,
                      ConservationViolation, CreditLeak, OrderingViolation,
                      RetryConsistencyViolation, SanitizerError,
                      TimestampViolation)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..params import DramTiming
    from ..sim.engine import Engine


class CheckedBankSet:
    """Shadow proxy validating every :class:`~repro.dram.bank.BankSet` op.

    Delegates everything to the wrapped bank set (timing is untouched, so
    reports stay bit-identical) while cross-checking each ``access``
    against the pre-call row state: the legality invariant is that a
    column access may only claim a hit on the currently open row, and a
    miss must activate — never earlier than the bank's ``next_act``
    bound.  The scheduler reads ``open_row`` on every pick, so it and
    the other row-state fields are plain properties; the rest goes
    through ``__getattr__``.  The message of a violation is built only
    once one is found.
    """

    __slots__ = ("_inner", "_san", "_pch")

    def __init__(self, inner, sanitizer: "Sanitizer", pch_index: int) -> None:
        self._inner = inner
        self._san = sanitizer
        self._pch = pch_index

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def open_row(self) -> List[int]:
        return self._inner.open_row

    @property
    def next_act(self) -> List[float]:
        return self._inner.next_act

    @property
    def timing(self) -> "DramTiming":
        return self._inner.timing

    def access(self, local_addr: int, earliest: float) -> Tuple[float, bool]:
        inner = self._inner
        t = inner.timing
        row = local_addr // t.row_bytes
        bank = row % t.num_banks
        predicted_hit = inner.open_row[bank] == row
        act_bound = inner.next_act[bank]
        ready, hit = inner.access(local_addr, earliest)
        self._san.checks_run += 1
        if (hit != predicted_hit or ready < earliest
                or inner.open_row[bank] != row
                or (not hit and inner.next_act[bank] < act_bound)):
            self._violation(row, bank, predicted_hit, act_bound, earliest,
                            ready, hit)
        return ready, hit

    def _violation(self, row: int, bank: int, predicted_hit: bool,
                   act_bound: float, earliest: float, ready: float,
                   hit: bool) -> None:
        """Raise the first of :meth:`access`'s checks that failed."""
        inner = self._inner
        ctx = self._san._ctx()
        where = f"pch {self._pch} bank {bank} row {row}"
        if hit != predicted_hit:
            raise BankStateViolation(
                f"column access to {where} reported "
                f"{'hit' if hit else 'miss'} but row "
                f"{inner.open_row[bank] if predicted_hit else 'closed/other'}"
                f" state implies {'hit' if predicted_hit else 'miss'}", ctx)
        if ready < earliest:
            raise BankStateViolation(
                f"{where}: column-ready {ready} before request time "
                f"{earliest}", ctx)
        if inner.open_row[bank] != row:
            raise BankStateViolation(
                f"{where}: access left bank open at row "
                f"{inner.open_row[bank]} instead of {row}", ctx)
        raise BankStateViolation(
            f"{where}: activate bound moved backwards "
            f"({act_bound} -> {inner.next_act[bank]})", ctx)


class Sanitizer:
    """Runtime invariant checker; attach with :meth:`attach`.

    The engine constructs and attaches one automatically when
    :attr:`~repro.sim.config.SimConfig.sanitize` is set (CLI
    ``--sanitize``, env ``REPRO_SANITIZE=1``).  Tests may attach their
    own instance — e.g. with ``strict_ordering=True`` — to an engine
    built with sanitizing off.

    The sanitizer refers to its engine weakly.  The engine, its issue
    hooks and its bank-set proxies all hold the sanitizer, so a strong
    reference back would put a finished run in reference cycles, which
    only the cyclic garbage collector frees.
    """

    def __init__(self, strict_ordering: bool = False) -> None:
        self.strict_ordering = strict_ordering
        self._engine: Optional["weakref.ref[Engine]"] = None
        #: uid -> (txn, issue cycle, attempt ordinal) of in-flight attempts.
        self._inflight: Dict[int, Tuple[AxiTransaction, int, int]] = {}
        #: (master, axi_id) -> issue-ordered uids of in-flight reads.
        self._lanes: Dict[Tuple[int, int], Deque[int]] = {}
        #: uid -> attempt ordinal of the last *failed* completion.
        self._last_attempt: Dict[int, int] = {}
        self._last_cycle = -1
        self.attempts_issued = 0
        self.attempts_finished = 0
        #: Total individual invariant checks performed (diagnostics).
        self.checks_run = 0
        #: Same-lane delivery inversions observed while the ordering check
        #: was *relaxed* (reorder_depth < outstanding: the analytical
        #: release rule does not guarantee issue order there).
        self.relaxed_inversions = 0
        self._track_lanes = False
        self._ordering_armed = False
        #: The platform's channel count and per-channel capacity, the
        #: bounds of every issue's resolved ``pch`` and ``local`` (set at
        #: :meth:`attach`).
        self._num_pch = 0
        self._pch_capacity = 0

    # -- wiring --------------------------------------------------------------

    @property
    def engine(self) -> Optional["Engine"]:
        """The attached engine; ``None`` before :meth:`attach` or once
        the engine has been freed."""
        ref = self._engine
        return None if ref is None else ref()

    def attach(self, engine: "Engine") -> None:
        """Hook into ``engine``: issue hooks, observer list, bank proxies."""
        if self._engine is not None:
            raise SanitizerError("sanitizer already attached")
        self._engine = weakref.ref(engine)
        fabric = engine.fabric
        self._num_pch = fabric.platform.num_pch
        self._pch_capacity = fabric.platform.pch_capacity
        for mp in engine.masters:
            mp.on_issue = self._chain(mp.on_issue)
        engine.observers.append(self)
        engine.sanitizer = self
        for i, pch in enumerate(fabric.pchs):
            pch.banks = CheckedBankSet(pch.banks, self, i)
        self._track_lanes = bool(getattr(fabric, "same_id_ordering", False))
        if self._track_lanes:
            depth = fabric.config.reorder_depth
            outstanding = max((mp.outstanding_limit for mp in engine.masters),
                              default=0)
            self._ordering_armed = (self.strict_ordering
                                    or depth >= outstanding)

    def _chain(
        self, prev: Optional[Callable[[AxiTransaction, int], None]],
    ) -> Callable[[AxiTransaction, int], None]:
        """Compose with an existing issue hook (the transaction watchdog)."""

        def hook(txn: AxiTransaction, cycle: int) -> None:
            if prev is not None:
                prev(txn, cycle)
            self.on_issue(txn, cycle)

        return hook

    def _ctx(self, cycle: Optional[int] = None,
             txn: Optional[AxiTransaction] = None) -> dict:
        """Minimal repro recipe attached to every violation."""
        ctx: dict = {}
        eng = self.engine
        if eng is not None:
            ctx["fabric"] = eng.fabric.name
            cfg = eng.config
            ctx["config"] = (f"cycles={cfg.cycles} warmup={cfg.warmup} "
                             f"outstanding={cfg.outstanding} "
                             f"engine={cfg.engine}")
            if eng.faults is not None and eng.faults:
                ctx["faults"] = eng.faults.describe()
            if cycle is None:
                cycle = eng.cycle
        if cycle is not None:
            ctx["cycle"] = cycle
        if txn is not None:
            ctx["txn"] = (f"#{txn.uid} {'RD' if txn.is_read else 'WR'} "
                          f"m{txn.master}->pch{txn.pch} bl{txn.burst_len} "
                          f"attempt {txn.retries}")
        return ctx

    # -- per-attempt hooks ---------------------------------------------------

    def on_issue(self, txn: AxiTransaction, cycle: int) -> None:
        """Called (chained after the watchdog) on every issue/re-issue."""
        self.checks_run += 1
        self.attempts_issued += 1
        uid = txn.uid
        if uid in self._inflight:
            raise ConservationViolation(
                "transaction issued while already in flight",
                self._ctx(cycle, txn))
        last = self._last_attempt.get(uid)
        if last is None:
            if txn.retries != 0:
                raise RetryConsistencyViolation(
                    f"first issue carries attempt ordinal {txn.retries}",
                    self._ctx(cycle, txn))
        elif txn.retries != last + 1:
            raise RetryConsistencyViolation(
                f"re-issue attempt ordinal {txn.retries} after failed "
                f"attempt {last}", self._ctx(cycle, txn))
        if txn.issue_cycle != cycle:
            raise TimestampViolation(
                f"issue stamped {txn.issue_cycle}, hook called at {cycle}",
                self._ctx(cycle, txn))
        try:
            check_burst_legal(txn.address, txn.burst_len)
        except AxiProtocolError as exc:
            raise SanitizerError(f"illegal burst issued: {exc}",
                                 self._ctx(cycle, txn)) from exc
        if not 0 <= txn.pch < self._num_pch:
            raise SanitizerError(
                f"resolved pseudo-channel {txn.pch} out of range",
                self._ctx(cycle, txn))
        if not 0 <= txn.local < self._pch_capacity:
            raise SanitizerError(
                f"local address {txn.local:#x} outside channel capacity",
                self._ctx(cycle, txn))
        self._inflight[uid] = (txn, cycle, txn.retries)
        if self._track_lanes and txn.is_read:
            key = (txn.master, txn.axi_id)
            lane = self._lanes.get(key)
            if lane is None:
                self._lanes[key] = lane = deque()
            lane.append(uid)

    def on_complete(self, txn: AxiTransaction, cycle: int) -> None:
        """Observer hook: every attempt's completion (OK, NACK, poisoned)."""
        self.checks_run += 1
        self.attempts_finished += 1
        uid = txn.uid
        entry = self._inflight.pop(uid, None)
        if entry is None:
            raise ConservationViolation(
                "completion for a transaction that is not in flight "
                "(spurious or duplicated)", self._ctx(cycle, txn))
        _, issue_cycle, attempt = entry
        if txn.retries != attempt:
            raise RetryConsistencyViolation(
                f"completed attempt ordinal {txn.retries} does not match "
                f"issue-time ordinal {attempt}", self._ctx(cycle, txn))
        if cycle < self._last_cycle:
            raise TimestampViolation(
                f"completion batch at cycle {cycle} after cycle "
                f"{self._last_cycle}", self._ctx(cycle, txn))
        self._last_cycle = cycle
        if txn.status not in STATUS_NAMES:
            raise SanitizerError(f"unknown completion status {txn.status}",
                                 self._ctx(cycle, txn))
        if txn.complete_cycle > cycle:
            raise TimestampViolation(
                f"completion stamped {txn.complete_cycle}, delivered at "
                f"{cycle}", self._ctx(cycle, txn))
        if txn.issue_cycle > txn.complete_cycle:
            raise TimestampViolation(
                f"completion stamp {txn.complete_cycle} before issue stamp "
                f"{txn.issue_cycle}", self._ctx(cycle, txn))
        if (txn.retries == 0 and txn.accept_cycle >= 0
                and not txn.issue_cycle <= txn.accept_cycle
                <= txn.complete_cycle):
            raise TimestampViolation(
                f"accept stamp {txn.accept_cycle} outside "
                f"[{txn.issue_cycle}, {txn.complete_cycle}]",
                self._ctx(cycle, txn))
        if self._track_lanes and txn.is_read:
            self._check_lane_order(txn, cycle)
        if txn.status == STATUS_OK:
            self._last_attempt.pop(uid, None)
        else:
            self._last_attempt[uid] = txn.retries

    def _check_lane_order(self, txn: AxiTransaction, cycle: int) -> None:
        key = (txn.master, txn.axi_id)
        lane = self._lanes.get(key)
        uid = txn.uid
        if lane is not None and lane[0] == uid:
            lane.popleft()
        else:
            if lane is None or uid not in lane:
                raise ConservationViolation(
                    "read completion not tracked on its AXI ID lane",
                    self._ctx(cycle, txn))
            # Successful data responses must leave the lane head-first;
            # NACKs bypass the reorder release path, so they only vacate
            # their slot.
            if txn.status == STATUS_OK:
                if self._ordering_armed:
                    raise OrderingViolation(
                        f"same-ID response overtook transaction #{lane[0]} "
                        f"on lane (master {txn.master}, id {txn.axi_id})",
                        self._ctx(cycle, txn))
                self.relaxed_inversions += 1
            lane.remove(uid)
        if not lane:
            del self._lanes[key]

    # -- batch / end-of-run checks -------------------------------------------

    def after_batch(self, cycle: int) -> None:
        """Credit and conservation checks after one completion batch."""
        self.checks_run += 1
        eng = self.engine
        if eng is None:
            return
        total_out = 0
        for mp in eng.masters:
            if not 0 <= mp.outstanding <= mp.outstanding_limit:
                raise CreditLeak(
                    f"master {mp.index} outstanding credit {mp.outstanding} "
                    f"outside [0, {mp.outstanding_limit}]", self._ctx(cycle))
            total_out += mp.outstanding
        if total_out != len(self._inflight):
            raise ConservationViolation(
                f"{total_out} credits claimed but {len(self._inflight)} "
                f"attempts in flight", self._ctx(cycle))
        reads = getattr(eng.fabric, "_reads_in_flight", None)
        if reads is not None:
            bound = eng.fabric._max_reads
            for m, n in enumerate(reads):
                if not 0 <= n <= bound:
                    raise CreditLeak(
                        f"master {m} reorder read slots {n} outside "
                        f"[0, {bound}]", self._ctx(cycle))

    def finish(self) -> None:
        """End-of-run ledger checks (engine calls this before reporting)."""
        eng = self.engine
        if eng is None:
            return
        for mp in eng.masters:
            self.checks_run += 2
            attempts = mp.issued + mp.retries
            finished = mp.completed + mp.nacks
            if attempts != finished + mp.outstanding:
                raise ConservationViolation(
                    f"master {mp.index} attempt ledger: {attempts} issued "
                    f"!= {finished} finished + {mp.outstanding} in flight",
                    self._ctx())
            queued = len(mp._retry)
            if mp.issued != (mp.completed + mp.unrecoverable + queued
                             + mp.outstanding):
                raise ConservationViolation(
                    f"master {mp.index} transaction ledger: {mp.issued} "
                    f"issued != {mp.completed} completed + "
                    f"{mp.unrecoverable} unrecoverable + {queued} queued "
                    f"retries + {mp.outstanding} in flight", self._ctx())
        if self.attempts_issued != self.attempts_finished + len(self._inflight):
            raise ConservationViolation(
                f"sanitizer ledger: {self.attempts_issued} tracked issues != "
                f"{self.attempts_finished} completions + "
                f"{len(self._inflight)} in flight", self._ctx())
        for (m, lane), uids in self._lanes.items():
            for uid in uids:
                if uid not in self._inflight:
                    raise CreditLeak(
                        f"lane (master {m}, id {lane}) still holds finished "
                        f"transaction #{uid}", self._ctx())

    def check_drained(self) -> None:
        """After a successful drain every credit and slot must be home."""
        eng = self.engine
        if eng is None:
            return
        self.checks_run += 1
        if self._inflight:
            raise ConservationViolation(
                f"{len(self._inflight)} attempts still tracked in flight "
                f"after a successful drain", self._ctx())
        if self._lanes:
            raise CreditLeak(
                f"{len(self._lanes)} AXI ID lanes still occupied after a "
                f"successful drain", self._ctx())
        reads = getattr(eng.fabric, "_reads_in_flight", None)
        if reads is not None:
            for m, n in enumerate(reads):
                if n != 0:
                    raise CreditLeak(
                        f"master {m} leaked {n} reorder read slots through "
                        f"the drain", self._ctx())
