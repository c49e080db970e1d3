"""Precomputed bandwidth surface over the pattern/burst-length grid.

The sweep service (:mod:`repro.service`) must answer "what bandwidth
does pattern P reach at burst length B?" in sub-millisecond time, but a
cycle simulation of one point takes seconds.  This module bridges the
gap: :func:`build_surface` sweeps a grid of :class:`PatternPoint`\\ s
once (through the shared result store, so experiment runs and earlier
service runs warm it), and the resulting :class:`SweepSurface` serves

* **exact** grid points straight from the precomputed samples, and
* **off-grid burst lengths** by log2-linear interpolation between the
  bracketing grid samples — burst-length curves in the paper (Fig. 3)
  are plotted and reasoned about on a log2 axis, where the measured
  curves are close to piecewise linear.

A :class:`PatternPoint` is the service's query type; it converts to
the :class:`~repro.experiments._common.SimPoint` that builds and keys
the run, so a sample is stored under the key every experiment files the
same simulation under, and a ``repro-hbm run fig3`` sweep and a service
warm-up are one shared body of work, not two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, Pattern, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure_all, pct_of_peak

#: Burst-length grid of the precomputed surface (the Fig. 3 axis).
SURFACE_BURST_LENGTHS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class PatternPoint:
    """One point of the measured bandwidth space.

    This is the service's unit of work: everything that shapes a
    simulated bandwidth number except the platform (which the store keys
    separately).  Frozen and repr-stable, so it cache-keys cleanly.
    """

    fabric: FabricKind = FabricKind.XLNX
    pattern: Pattern = Pattern.SCS
    burst_len: int = 16
    rw: RWRatio = TWO_TO_ONE
    cycles: int = DEFAULT_CYCLES
    outstanding: int = 32

    def sim_point(self, platform: HbmPlatform = DEFAULT_PLATFORM
                  ) -> SimPoint:
        """The simulation this point asks for on ``platform``."""
        return SimPoint(self.fabric, "pattern",
                        dict(pattern=self.pattern, burst_len=self.burst_len,
                             rw=self.rw),
                        platform=platform, cycles=self.cycles,
                        outstanding=self.outstanding)


def point_cache_key(point: PatternPoint,
                    platform: HbmPlatform = DEFAULT_PLATFORM) -> Tuple:
    """The store key of ``point``'s simulation on ``platform``."""
    return point.sim_point(platform).key()


def simulate_point(args):
    """Simulate ``args = (point, platform)`` once, unmemoized: the
    caller (the service's job queue) owns the store write."""
    point, platform = args
    return point.sim_point(platform).run()


@dataclass(frozen=True)
class SurfaceSample:
    """One precomputed grid sample of the surface."""

    point: PatternPoint
    total_gbps: float
    read_gbps: float
    write_gbps: float
    fraction_of_peak: float


@dataclass(frozen=True)
class SurfaceValue:
    """A surface answer: exact sample or log2-linear interpolation."""

    total_gbps: float
    interpolated: bool
    lower: SurfaceSample
    upper: SurfaceSample


def _axis_key(point: PatternPoint) -> Tuple:
    """Everything but the burst length — the curve a point lives on."""
    return (point.fabric, point.pattern, point.rw.reads, point.rw.writes,
            point.cycles, point.outstanding)


class SweepSurface:
    """Queryable set of precomputed samples with burst-length
    interpolation along each (fabric, pattern, rw) curve."""

    def __init__(self, samples: List[SurfaceSample]) -> None:
        self._curves: Dict[Tuple, Dict[int, SurfaceSample]] = {}
        for s in samples:
            curve = self._curves.setdefault(_axis_key(s.point), {})
            curve[s.point.burst_len] = s

    def __len__(self) -> int:
        return sum(len(c) for c in self._curves.values())

    def lookup(self, point: PatternPoint) -> Optional[SurfaceValue]:
        """Exact sample, or log2-linear interpolation along burst length.

        Only the burst length may be off-grid; all other fields must
        match a precomputed curve, and the burst length must lie within
        the curve's sampled range (the model is interpolation, never
        extrapolation).  Returns ``None`` when the surface cannot answer
        — the caller falls back to enqueueing a real simulation.
        """
        curve = self._curves.get(_axis_key(point))
        if not curve:
            return None
        hit = curve.get(point.burst_len)
        if hit is not None:
            return SurfaceValue(total_gbps=hit.total_gbps,
                                interpolated=False, lower=hit, upper=hit)
        bls = sorted(curve)
        if not bls[0] < point.burst_len < bls[-1]:
            return None
        lo = max(b for b in bls if b < point.burst_len)
        hi = min(b for b in bls if b > point.burst_len)
        lo_s, hi_s = curve[lo], curve[hi]
        frac = ((math.log2(point.burst_len) - math.log2(lo))
                / (math.log2(hi) - math.log2(lo)))
        value = lo_s.total_gbps + frac * (hi_s.total_gbps - lo_s.total_gbps)
        return SurfaceValue(total_gbps=value, interpolated=True,
                            lower=lo_s, upper=hi_s)


def sample_from_report(point: PatternPoint, report,
                       platform: HbmPlatform = DEFAULT_PLATFORM
                       ) -> SurfaceSample:
    """Fold a ``SimReport`` into the surface's compact sample form."""
    return SurfaceSample(
        point=point,
        total_gbps=report.total_gbps,
        read_gbps=report.read_gbps,
        write_gbps=report.write_gbps,
        fraction_of_peak=pct_of_peak(report.total_gbps, platform))


def build_surface(
    platform: HbmPlatform = DEFAULT_PLATFORM,
    *,
    cycles: int = DEFAULT_CYCLES,
    outstanding: int = 32,
    fabrics: Tuple[FabricKind, ...] = (FabricKind.XLNX,),
    patterns: Tuple[Pattern, ...] = tuple(Pattern),
    burst_lengths: Tuple[int, ...] = SURFACE_BURST_LENGTHS,
    rws: Tuple[RWRatio, ...] = (TWO_TO_ONE,),
    workers: Optional[int] = None,
    cache=None,
) -> SweepSurface:
    """Simulate (or load from ``cache``) the whole grid and index it.

    ``cache`` is the shared result store's :class:`~repro.sim.cache.SimCache`
    (default: the process-wide one) — warm points are loaded, cold points
    simulated on the supervised sweep runtime and stored back, so
    repeated service start-ups cost one grid simulation total.
    """
    points = [PatternPoint(fabric=f, pattern=p, burst_len=bl, rw=rw,
                           cycles=cycles, outstanding=outstanding)
              for f in fabrics for p in patterns
              for rw in rws for bl in burst_lengths]
    reports = measure_all([pt.sim_point(platform) for pt in points],
                          workers, cache=cache)
    return SweepSurface([sample_from_report(pt, rep, platform)
                         for pt, rep in zip(points, reports)])
