"""Metric primitives of the telemetry layer.

Three kinds of instrument cover everything the profiler reports:

* **counters** — monotonically increasing totals that already live on the
  simulated components (beats transferred, flits granted, page hits).
  The telemetry layer never owns a counter; it *reads* the component's
  own diagnostic field through a :class:`Probe`, so the simulation hot
  path pays nothing extra for being observable.
* **gauges** — instantaneous occupancies (queue depths, credits in use,
  reads in flight).  Sampled gauges additionally track their observed
  high-water mark and feed a :class:`Log2Histogram` of their value
  distribution.
* **log2 histograms** — constant-memory distribution sketches matching
  the latency histograms of :mod:`repro.sim.stats`: bucket ``i`` counts
  values in ``[2**(i-1), 2**i)``, bucket 0 the sub-unit residue.

A :class:`Probe` is the binding between a named metric and the component
attribute it reads.  Probes are built once at attach time (see
:meth:`~repro.fabric.base.BaseFabric.telemetry_probes`); reading one is a
bound-callable call, so the sampler's cost is proportional to the number
of probes, not to the simulated cycle count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.stats import HIST_BUCKETS, hist_bucket

#: Probe kinds.
COUNTER = 0
GAUGE = 1


class Log2Histogram:
    """Constant-memory log2-bucketed histogram of non-negative samples."""

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * HIST_BUCKETS
        self.total = 0

    def add(self, value: float) -> None:
        self.counts[hist_bucket(value)] += 1
        self.total += 1

    def nonzero(self) -> List[tuple]:
        """``(bucket_lo, bucket_hi, count)`` for the occupied buckets."""
        out = []
        for i, c in enumerate(self.counts):
            if c:
                lo = 0 if i == 0 else 1 << (i - 1)
                out.append((lo, 1 << i, c))
        return out

    def as_dict(self) -> Dict[str, object]:
        return {"total": self.total, "counts": list(self.counts)}


class Probe:
    """One named metric bound to a component attribute.

    Parameters
    ----------
    name:
        Stable, dot-separated metric name (``dram.pch3.page_hits``,
        ``link.lat_req[2]R[0].occupancy_beats``).  Names double as
        Perfetto counter-track names, so they must be unique per run.
    kind:
        :data:`COUNTER` (cumulative; exporters emit per-interval deltas)
        or :data:`GAUGE` (instantaneous; exporters emit raw values and
        the sampler tracks the high-water mark).
    read:
        Zero-argument callable returning the current value.  Must be
        side-effect free: probes are read by a pure observer and must
        never perturb simulated state.
    category:
        Coarse component class used by the bottleneck analysis:
        ``"link"``, ``"dram"``, ``"master"``, or ``"fabric"``.
    """

    __slots__ = ("name", "kind", "read", "category")

    def __init__(self, name: str, kind: int, read: Callable[[], float],
                 category: str) -> None:
        self.name = name
        self.kind = kind
        self.read = read
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k = "counter" if self.kind == COUNTER else "gauge"
        return f"Probe({self.name!r} {k} {self.category})"


class ProbeSet:
    """An ordered, name-unique collection of probes."""

    def __init__(self, probes: Optional[List[Probe]] = None) -> None:
        self.probes: List[Probe] = []
        self._names: set = set()
        for p in probes or []:
            self.add(p)

    def add(self, probe: Probe) -> None:
        if probe.name in self._names:
            raise ValueError(f"duplicate probe name {probe.name!r}")
        self._names.add(probe.name)
        self.probes.append(probe)

    def extend(self, probes: List[Probe]) -> None:
        for p in probes:
            self.add(p)

    def __len__(self) -> int:
        return len(self.probes)

    def __iter__(self):
        return iter(self.probes)
