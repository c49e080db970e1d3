"""Low-overhead time-sliced telemetry sampler.

:class:`Telemetry` attaches to a live :class:`~repro.sim.engine.Engine`
(exactly like the sanitizer: ``engine.telemetry`` is ``None`` when off,
and the engine then pays one ``is None`` test per loop iteration).  While
attached it takes **samples** — one reading of every registered
:class:`~repro.telemetry.metrics.Probe` — at two kinds of moment:

* on the grid of every ``interval``-th simulated cycle (0, interval,
  2 * interval, ...),
* once at the end of the run (so final counter totals are always
  captured even when the run length is off the grid).

Grid cycles that an optimized engine tier jumps over are filled in by
the *event-horizon* hook :meth:`Telemetry.note_jump` from the pre-jump
state, which persists unchanged across the skipped stretch.  Every tier
therefore takes the same samples at the same cycles, and the probes are
read once per jump, never per skipped cycle.

Samples are stored column-major-friendly (one row of floats per sample)
and post-processed by the exporters; the sampler itself never aggregates
beyond gauge high-water marks and per-gauge log2 histograms, both O(1)
per sample.

The sampler is a **pure observer**: probes only read component counters,
so a run with telemetry enabled produces a bit-identical
:class:`~repro.sim.stats.SimReport` (enforced by the differential tests
in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .metrics import COUNTER, GAUGE, Log2Histogram, Probe, ProbeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Engine


class Telemetry:
    """Structured metrics for one simulation run; attach with :meth:`attach`.

    The engine constructs and attaches one automatically when
    :attr:`~repro.sim.config.SimConfig.telemetry` is set (env
    ``REPRO_TELEMETRY=1``); harnesses that need the object afterwards —
    the profiler, tests — build their own and attach it explicitly::

        tele = Telemetry(interval=200)
        engine = Engine(fabric, sources, cfg)
        tele.attach(engine)
        report = engine.run()
        print(bottleneck_report(tele, report))

    The sampler refers to its engine weakly.  The engine holds the
    sampler, so a strong reference back would put a finished run in
    reference cycles, which only the cyclic garbage collector frees;
    keep the engine alive while the analysis reads its masters.
    """

    def __init__(self, interval: int = 256) -> None:
        if interval < 1:
            raise ValueError("telemetry interval must be >= 1")
        self.interval = interval
        self.probes = ProbeSet()
        #: Sample times (fabric cycles), strictly increasing.
        self.sample_cycles: List[int] = []
        #: One row of probe readings per entry of :attr:`sample_cycles`.
        self.samples: List[List[float]] = []
        #: Fast-path clock jumps recorded as ``(from_cycle, to_cycle)``.
        self.jumps: List[Tuple[int, int]] = []
        #: Next cycle at which the interval baseline wants a sample.
        self.next_sample = 0
        #: Per-probe high-water mark (gauges; counters track their total).
        self.high_water: List[float] = []
        #: Per-gauge log2 histogram of sampled values (None for counters).
        self.hists: List[Optional[Log2Histogram]] = []
        self._engine: Optional["weakref.ref[Engine]"] = None
        #: Cycle :meth:`finish` was called at, or ``None`` while running.
        self.finished_cycle: Optional[int] = None

    @property
    def engine(self) -> Optional["Engine"]:
        """The attached engine; ``None`` before :meth:`attach` or once
        the engine has been freed."""
        ref = self._engine
        return None if ref is None else ref()

    # -- attach ----------------------------------------------------------------

    def attach(self, engine: "Engine") -> "Telemetry":
        """Bind to ``engine`` and build the probe set.

        Probes come from two places: the engine's masters (credits in
        use, retry-queue depth) and the fabric's own
        :meth:`~repro.fabric.base.BaseFabric.telemetry_probes` (links,
        controllers, pseudo-channels — each fabric knows its observable
        components).
        """
        if self._engine is not None:
            raise RuntimeError("telemetry already attached")
        self._engine = weakref.ref(engine)
        engine.telemetry = self
        for mp in engine.masters:
            i = mp.index
            self.probes.add(Probe(
                f"master[{i}].credits_in_use", GAUGE,
                lambda mp=mp: mp.outstanding, "master"))
            self.probes.add(Probe(
                f"master[{i}].retry_queue", GAUGE,
                lambda mp=mp: mp.retry_queue_depth, "master"))
            self.probes.add(Probe(
                f"master[{i}].issued", COUNTER,
                lambda mp=mp: mp.issued, "master"))
        self.probes.extend(engine.fabric.telemetry_probes())
        n = len(self.probes)
        self.high_water = [-math.inf] * n
        self.hists = [Log2Histogram() if p.kind == GAUGE else None
                      for p in self.probes]
        return self

    # -- sampling hooks (called by the engine loops) ---------------------------

    def sample(self, cycle: int) -> None:
        """Take one sample at ``cycle`` (idempotent per cycle)."""
        cycles = self.sample_cycles
        if cycles and cycles[-1] == cycle:
            return
        self._record(cycle, [float(p.read()) for p in self.probes.probes])
        self.next_sample = cycle + self.interval

    def _record(self, cycle: int, row: List[float]) -> None:
        hw = self.high_water
        hists = self.hists
        for i, v in enumerate(row):
            if v > hw[i]:
                hw[i] = v
            h = hists[i]
            if h is not None:
                h.add(v)
        self.sample_cycles.append(cycle)
        self.samples.append(row)

    def note_jump(self, cycle: int, target: int) -> None:
        """The fast path is about to jump ``cycle`` -> ``target``.

        The skipped cycles are exactly those in which the per-cycle loop
        changes nothing, so every grid sample strictly inside the jump
        reads the frozen pre-jump state: it is filled in from one reading
        taken now, and the grid stays where the per-cycle loop has it.
        The jump span is recorded so trace exports can mark quiescent
        stretches explicitly instead of leaving counter tracks to
        interpolate through them.
        """
        self.jumps.append((cycle, target))
        nxt = self.next_sample
        if nxt < target:
            row = [float(p.read()) for p in self.probes.probes]
            step = self.interval
            while nxt < target:
                self._record(nxt, list(row))
                nxt += step
            self.next_sample = nxt

    def finish(self, cycle: int) -> None:
        """Final sample at the end of the run."""
        self.sample(cycle)
        self.finished_cycle = cycle

    # -- views ----------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self.sample_cycles)

    def index_of(self, name: str) -> int:
        for i, p in enumerate(self.probes.probes):
            if p.name == name:
                return i
        raise KeyError(name)

    def series(self, name: str) -> List[Tuple[int, float]]:
        """``(cycle, value)`` samples of one probe."""
        i = self.index_of(name)
        return [(c, row[i]) for c, row in zip(self.sample_cycles, self.samples)]

    def final_value(self, name: str) -> float:
        """Last sampled value of one probe (counters: the run total)."""
        if not self.samples:
            raise RuntimeError("no samples taken")
        return self.samples[-1][self.index_of(name)]

    def finals(self) -> Dict[str, float]:
        """Final sampled value of every probe, by name."""
        if not self.samples:
            return {}
        last = self.samples[-1]
        return {p.name: last[i] for i, p in enumerate(self.probes.probes)}

    def high_water_marks(self) -> Dict[str, float]:
        """Observed high-water mark per *gauge* probe.

        Sampled on the interval grid, so a spike strictly between two
        grid points can be missed.  Documented as a lower bound; the
        same on every engine tier.
        """
        return {p.name: self.high_water[i]
                for i, p in enumerate(self.probes.probes)
                if p.kind == GAUGE
                and self.high_water[i] != -math.inf}  # det-lint: allow (exact never-sampled sentinel)

    def histogram(self, name: str) -> Log2Histogram:
        i = self.index_of(name)
        h = self.hists[i]
        if h is None:
            raise KeyError(f"probe {name!r} is a counter, not a gauge")
        return h

    def skipped_cycles(self) -> int:
        """Total cycles the fast path jumped over while attached."""
        return sum(t - c - 1 for c, t in self.jumps)
