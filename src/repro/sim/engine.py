"""The cycle-stepped simulation kernel.

One :class:`Engine` owns a fabric (with its controllers and
pseudo-channels) and one :class:`~repro.axi.master.MasterPort` per traffic
source.  Every fabric cycle it

1. lets each master issue transactions (credits + clock pacing allowing),
2. advances the fabric (switch arbitration, controllers, DRAM),
3. distributes completions back to the masters and the statistics.

The engine also enforces the conservation invariant — every issued
transaction is either completed or demonstrably buffered somewhere — which
guards against simulator bugs silently inflating throughput.

Two interchangeable main loops (engine tiers) drive the model:

* the **legacy loop** (``engine="legacy"``) steps every master and the
  fabric once per cycle — the reference semantics;
* the **fast path** (``engine="fast"``, the default) skips masters that
  provably cannot issue this cycle (credits exhausted / pacing meter
  pending, or *held*: the fabric refused their transaction and
  :meth:`~repro.fabric.base.BaseFabric.admits` still refuses it) and,
  when every master is asleep, asks the fabric for its *event horizon*
  (:meth:`~repro.fabric.base.BaseFabric.next_event`) and jumps the clock
  forward over provably empty cycles.  The horizon carries the
  controllers' wakes and the two starvation proofs — queues of an
  offline channel are parked, and staged arrivals refused for full
  queues wait for a scheduler pop — so a saturated channel that goes
  dead is jumped, not stepped.

The fast path is an optimization, never a model change: skipped work is
exactly the work the legacy loop would have executed as a no-op, so both
loops produce bit-identical :class:`SimReport` results (enforced by the
differential tests in ``tests/test_engine_fastpath.py``).
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence,
                    Tuple)

from ..axi.master import MasterPort, TrafficSource
from ..axi.transaction import STATUS_OK, AxiTransaction
from ..errors import ObserverError, SanitizerError, SimulationError
from ..fabric.base import BaseFabric
from ..faults.inject import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.watchdog import ProgressWatchdog, TransactionWatchdog
from .config import SimConfig
from .stats import SimReport, StatsCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..check.sanitizer import Sanitizer
    from ..telemetry.sampler import Telemetry

#: One cycle's completion batch as handed over by the fabric:
#: ``(transaction, fabric-time of the last beat)`` pairs.
CompletionBatch = List[Tuple[AxiTransaction, float]]


class CompletionObserver(Protocol):
    """Anything with an ``on_complete(txn, cycle)`` hook.

    Observers see every *attempt* (successes, NACKs, poisoned reads)
    exactly once, after the engine's own accounting for the batch.
    """

    def on_complete(self, txn: AxiTransaction, cycle: int) -> None: ...


class Engine:
    """Drives one simulation run."""

    def __init__(
        self,
        fabric: BaseFabric,
        sources: Sequence[TrafficSource],
        config: Optional[SimConfig] = None,
        observers: Sequence[CompletionObserver] = (),
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.fabric = fabric
        self.config = config or SimConfig()
        #: Objects with an ``on_complete(txn, cycle)`` hook (e.g.
        #: :class:`~repro.sim.trace.TraceRecorder`).
        self.observers: List[CompletionObserver] = list(observers)
        platform = fabric.platform
        if len(sources) > platform.num_masters:
            raise SimulationError(
                f"{len(sources)} sources for {platform.num_masters} masters")
        cfg = self.config
        self.masters: List[MasterPort] = []
        for src in sources:
            idx = getattr(src, "master", len(self.masters))
            self.masters.append(MasterPort(
                idx, platform, src, outstanding_limit=cfg.outstanding,
                max_retries=cfg.max_retries,
                backoff_base=cfg.retry_backoff_cycles,
                backoff_cap=cfg.retry_backoff_cap))
        self.stats = StatsCollector(platform, cfg.warmup)
        #: Fault schedule bound to this run's fabric, or ``None``.
        self.faults = faults
        self.injector = (FaultInjector(faults, fabric)
                         if faults is not None and faults else None)
        self._txn_dog = (TransactionWatchdog(cfg.txn_timeout_cycles)
                         if cfg.txn_timeout_cycles else None)
        self._progress_dog = (ProgressWatchdog(cfg.progress_timeout_cycles)
                              if cfg.progress_timeout_cycles else None)
        if self._txn_dog is not None:
            hook = self._txn_dog.note_issue
            for mp in self.masters:
                mp.on_issue = hook
        #: Runtime invariant checker, or ``None`` (the default).  When
        #: off the engine pays one ``is None`` test per completion batch.
        self.sanitizer: Optional[Sanitizer] = None
        if cfg.sanitize:
            from ..check.sanitizer import Sanitizer
            Sanitizer().attach(self)
        #: Telemetry sampler, or ``None`` (the default).  Same contract
        #: as the sanitizer: a pure observer, one ``is None`` test per
        #: loop iteration when off, bit-identical reports when on.
        self.telemetry: Optional[Telemetry] = None
        if cfg.telemetry:
            from ..telemetry.sampler import Telemetry
            Telemetry(interval=cfg.telemetry_interval).attach(self)
        self.cycle = 0
        #: Cycles the last :meth:`run` actually stepped (diagnostics; equals
        #: ``config.cycles`` on the legacy path, typically less on the fast
        #: path when quiescent stretches were skipped).
        self.stepped_cycles = 0

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimReport:
        if self.config.engine == "fast":
            self._run_fast()
        else:
            self._run_legacy()
        fabric = self.fabric
        masters = self.masters
        if self.sanitizer is not None:
            self.sanitizer.finish()
        if self.telemetry is not None:
            self.telemetry.finish(self.cycle)
        self.stats.finalize_dram(fabric.pchs)
        issued = sum(mp.issued for mp in masters)
        completed = sum(mp.completed for mp in masters)
        if completed > issued:
            raise SimulationError("completed more transactions than issued")
        return self.stats.report(
            self.config.cycles, issued=issued, completed=completed,
            fabric_name=fabric.name,
            retries=sum(mp.retries for mp in masters),
            nacks=sum(mp.nacks for mp in masters),
            unrecoverable=sum(mp.unrecoverable for mp in masters),
            dead_pchs=(list(self.injector.dead) if self.injector else []))

    def _process_completions(self, done: CompletionBatch, cycle: int,
                             by_index: Dict[int, MasterPort]) -> None:
        """Route one cycle's completion batch.

        Two phases: first the accounting (masters, watchdogs, stats) for
        the whole batch, then the observers — so a raising observer
        surfaces as a typed :class:`~repro.errors.ObserverError` *after*
        the conservation-relevant state is consistent, and observers see
        every attempt (successes, NACKs, poisoned reads) exactly once.
        """
        stats = self.stats
        dog = self._txn_dog
        for txn, _time in done:
            mp = by_index[txn.master]
            if dog is not None:
                dog.note_done(txn)
            if txn.status != STATUS_OK:
                mp.on_nack(txn, cycle)
            else:
                mp.on_complete(txn, cycle)
                stats.record(txn, cycle)
        pdog = self._progress_dog
        if pdog is not None:
            pdog.note_progress(cycle)
        observers = self.observers
        if observers:
            for txn, _time in done:
                for obs in observers:
                    try:
                        obs.on_complete(txn, cycle)
                    except SanitizerError:
                        # A sanitizer finding is a typed simulator-bug
                        # report, not an observer crash: let it surface
                        # unwrapped.
                        raise
                    except Exception as exc:
                        raise ObserverError(
                            f"observer {type(obs).__name__} raised on "
                            f"transaction #{txn.uid} at cycle {cycle}: "
                            f"{exc}") from exc
        if self.sanitizer is not None:
            self.sanitizer.after_batch(cycle)

    def _run_legacy(self) -> None:
        """The reference per-cycle loop: every master, every cycle."""
        fabric = self.fabric
        masters = self.masters
        by_index = {mp.index: mp for mp in masters}
        stats = self.stats
        warmup = self.config.warmup
        injector = self.injector
        dog = self._txn_dog
        pdog = self._progress_dog
        tele = self.telemetry
        for cycle in range(self.config.cycles):
            self.cycle = cycle
            if injector is not None:
                injector.fire_due(cycle)
            if cycle == warmup:
                stats.snapshot_dram(fabric.pchs)
            for mp in masters:
                mp.step(cycle, fabric)
            fabric.step(cycle)
            done = fabric.completions
            if done:
                fabric.completions = []
                self._process_completions(done, cycle, by_index)
            if dog is not None:
                dog.check(cycle)
            if pdog is not None and cycle >= pdog.deadline():
                pdog.check(cycle, sum(mp.outstanding for mp in masters))
            if tele is not None and cycle >= tele.next_sample:
                tele.sample(cycle)
        self.stepped_cycles = self.config.cycles

    def _run_fast(self) -> None:
        """Batched loop: skip provably idle masters and empty cycles.

        Per-master ``wake`` cycles encode when a master next needs
        stepping (see :meth:`MasterPort.wake_after`); a completion wakes
        its master for the following cycle.  A master whose step ended
        with a refused transaction (:attr:`MasterPort.held_txn`) and no
        retry queued is *held*: its next step can only offer that
        transaction again, so it is stepped again only once
        ``fabric.admits`` takes it or a completion for the master
        arrives (which may return a credit or queue a retry).  A
        refused ``submit`` has no side effect, so every skipped step is
        one the legacy loop executes as a no-op.  When every master sleeps
        beyond the next cycle, the clock jumps to the earliest of the
        master horizon, the fabric's event horizon, the end of warmup
        (the DRAM snapshot boundary), the next fault event, the watchdog
        deadlines, and the end of the run.  The skipped cycles are
        exactly those in which the legacy loop would have executed no
        observable work.  The fabric's horizon is asked right after its
        step, which is what its staged-pop proof relies on; with a
        saturated channel offline it proves the whole dead window idle.
        """
        fabric = self.fabric
        masters = self.masters
        by_index = {mp.index: mp for mp in masters}
        slot = {mp.index: i for i, mp in enumerate(masters)}
        stats = self.stats
        warmup = self.config.warmup
        cycles = self.config.cycles
        injector = self.injector
        dog = self._txn_dog
        pdog = self._progress_dog
        tele = self.telemetry
        wake: List[float] = [0.0] * len(masters)
        held: List[Optional[AxiTransaction]] = [None] * len(masters)
        snapshotted = False
        stepped = 0
        cycle = 0
        while cycle < cycles:
            self.cycle = cycle
            stepped += 1
            if injector is not None:
                injector.fire_due(cycle)
            if not snapshotted and cycle >= warmup:
                stats.snapshot_dram(fabric.pchs)
                snapshotted = True
            for i, mp in enumerate(masters):
                if wake[i] <= cycle:
                    txn = held[i]
                    if txn is not None:
                        if not fabric.admits(txn):
                            continue
                        held[i] = None
                    mp.step(cycle, fabric)
                    wake[i] = mp.wake_after(cycle)
                    txn = mp.held_txn
                    if txn is not None and not mp.retry_pending:
                        held[i] = txn
            fabric.step(cycle)
            done = fabric.completions
            if done:
                fabric.completions = []
                for txn, _time in done:
                    i = slot[txn.master]
                    held[i] = None
                    if wake[i] > cycle + 1:
                        wake[i] = cycle + 1
                self._process_completions(done, cycle, by_index)
            if dog is not None:
                dog.check(cycle)
            if pdog is not None and cycle >= pdog.deadline():
                pdog.check(cycle, sum(mp.outstanding for mp in masters))
            if tele is not None and cycle >= tele.next_sample:
                tele.sample(cycle)
            nxt = cycle + 1
            horizon = min(wake) if wake else math.inf
            if horizon > nxt:
                target = horizon
                if not snapshotted and warmup > cycle:
                    if warmup < target:
                        target = warmup
                if target > nxt:
                    fabric_next = fabric.next_event(cycle)
                    if fabric_next < target:
                        target = fabric_next
                # Clamp jumps to the fault and watchdog timeline so the
                # skipped stretches contain no observable events — the
                # invariant that keeps fast and legacy runs bit-identical
                # under fault injection.
                if target > nxt and injector is not None:
                    nf = injector.next_fire(cycle)
                    if nf < target:
                        target = nf
                if target > nxt and dog is not None:
                    d = dog.next_deadline()
                    if d < target:
                        target = d
                if (target > nxt and pdog is not None
                        and any(mp.outstanding for mp in masters)):
                    d = pdog.deadline()
                    if d < target:
                        target = d
                if target > nxt:
                    nxt = int(min(target, cycles))
                    if tele is not None:
                        # Event-horizon hook: the pre-jump state persists
                        # across the skipped stretch, so grid samples
                        # inside it are filled in from one reading.
                        tele.note_jump(cycle, nxt)
            cycle = nxt
        if not snapshotted:
            # warmup == cycles is rejected by SimConfig, so the snapshot
            # always lands inside the loop; keep a defensive fallback.
            stats.snapshot_dram(fabric.pchs)  # pragma: no cover
        # The legacy loop leaves ``self.cycle`` at the last simulated
        # cycle; match it so drain() proceeds identically after a run
        # whose trailing quiet cycles were skipped.
        self.cycle = cycles - 1
        self.stepped_cycles = stepped

    def drain(self, max_cycles: int = 200_000) -> int:
        """Run extra cycles (without fresh issues) until quiescent.

        Returns the number of drain cycles used.  Raises
        :class:`~repro.errors.SimulationError` when the fabric does not
        drain — a deadlock or a lost transaction.  Masters are switched
        into draining mode for the duration: fresh source traffic stops,
        but queued *retries* still re-issue (they hold work the fabric
        owes a completion for), so a fault that struck late in the run
        resolves during the drain instead of leaking transactions.  The
        transaction watchdog, when enabled, keeps checking — a silently
        stuck transaction raises a typed
        :class:`~repro.errors.TransactionTimeout` instead of spinning to
        the drain deadline.
        """
        fabric = self.fabric
        masters = self.masters
        by_index = {mp.index: mp for mp in masters}
        for mp in masters:
            mp.draining = True
        fast = self.config.engine == "fast"
        dog = self._txn_dog
        san = self.sanitizer
        start = self.cycle + 1
        end = start + max_cycles
        try:
            cycle = start
            while cycle < end:
                self.cycle = cycle
                for mp in masters:
                    if mp.retry_pending:
                        mp.step(cycle, fabric)
                fabric.step(cycle)
                done = fabric.completions
                if done:
                    fabric.completions = []
                    for txn, _t in done:
                        mp = by_index[txn.master]
                        if dog is not None:
                            dog.note_done(txn)
                        if txn.status != STATUS_OK:
                            mp.on_nack(txn, cycle)
                        else:
                            mp.on_complete(txn, cycle)
                        # Observers are not notified during drain, but the
                        # sanitizer's in-flight ledger must keep tracking.
                        if san is not None:
                            san.on_complete(txn, cycle)
                    if san is not None:
                        san.after_batch(cycle)
                if dog is not None:
                    dog.check(cycle)
                if fabric.quiescent() and all(
                        mp.outstanding == 0 and not mp.retry_pending
                        for mp in masters):
                    if san is not None:
                        san.check_drained()
                    return cycle - start + 1
                nxt = cycle + 1
                if fast:
                    fabric_next = fabric.next_event(cycle)
                    for mp in masters:
                        r = mp.next_retry()
                        if r < fabric_next:
                            fabric_next = r
                    if dog is not None:
                        d = dog.next_deadline()
                        if d < fabric_next:
                            fabric_next = d
                    if fabric_next > nxt:
                        # Nothing can happen before the horizon; jump.
                        # An infinite horizon with work still in flight
                        # means a transaction was lost — fail fast at the
                        # deadline instead of spinning to it.
                        nxt = int(min(fabric_next, end))
                cycle = nxt
        finally:
            for mp in masters:
                mp.draining = False
        raise SimulationError(
            f"fabric failed to drain within {max_cycles} cycles "
            f"({sum(mp.outstanding for mp in masters)} transactions stuck)")


def simulate(
    fabric: BaseFabric,
    sources: Sequence[TrafficSource],
    config: Optional[SimConfig] = None,
    faults: Optional[FaultPlan] = None,
) -> SimReport:
    """Convenience one-shot simulation."""
    return Engine(fabric, sources, config, faults=faults).run()
