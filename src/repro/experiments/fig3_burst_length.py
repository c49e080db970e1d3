"""Fig. 3 — burst-length sweep for the four basic patterns.

One sub-figure per Table I pattern (SCS / CCS / SCRA / CCRA), burst
lengths 1..16, each measured read-only, write-only, and mixed 2:1 on the
vendor fabric.  Key shapes the paper reports:

* length-1 bursts perform significantly worse everywhere; unidirectional
  single-channel gains ~50 % going to length 2 and plateaus early,
* the CCS hot-spot saturates at ~2.8 % of the device (13 GB/s mixed,
  9.6 GB/s unidirectional),
* CCRA still reaches ~5.4x a single channel's maximum thanks to
  memory-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, Pattern, READ_ONLY, WRITE_ONLY, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure_all, pct_of_peak

BURST_LENGTHS = (1, 2, 4, 8, 16)
DIRECTIONS = {"RD": READ_ONLY, "WR": WRITE_ONLY, "Both": TWO_TO_ONE}

PAPER_REFERENCE = {
    "scs_bl16_gbps": 416.7,
    "ccs_hotspot_both_gbps": 13.0,
    "ccs_hotspot_uni_gbps": 9.6,
    "scs_bl1_to_bl2_gain": 0.5,
    "ccra_vs_single_pch_factor": 5.4,
}


@dataclass(frozen=True)
class Fig3Row:
    pattern: Pattern
    direction: str
    burst_len: int
    total_gbps: float
    fraction_of_peak: float


def run(
    cycles: int = DEFAULT_CYCLES,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    patterns=tuple(Pattern),
    burst_lengths=BURST_LENGTHS,
    workers: int | None = None,
) -> List[Fig3Row]:
    grid = [(pattern, dir_name, bl)
            for pattern in patterns
            for dir_name in DIRECTIONS
            for bl in burst_lengths]
    reports = measure_all([
        SimPoint(FabricKind.XLNX, "pattern",
                 dict(pattern=pattern, burst_len=bl, rw=DIRECTIONS[dir_name]),
                 platform=platform, cycles=cycles)
        for pattern, dir_name, bl in grid], workers)
    return [Fig3Row(pattern=pattern, direction=dir_name, burst_len=bl,
                    total_gbps=rep.total_gbps,
                    fraction_of_peak=pct_of_peak(rep.total_gbps, platform))
            for (pattern, dir_name, bl), rep in zip(grid, reports)]


def series(rows: List[Fig3Row], pattern: Pattern,
           direction: str) -> Dict[int, float]:
    """One curve of the figure: burst length -> GB/s."""
    return {r.burst_len: r.total_gbps for r in rows
            if r.pattern is pattern and r.direction == direction}


def format_table(rows: List[Fig3Row]) -> str:
    out = ["Fig. 3 — burst-length sweep (GB/s, vendor fabric)"]
    patterns = sorted({r.pattern for r in rows}, key=lambda p: p.name)
    bls = sorted({r.burst_len for r in rows})
    for pattern in patterns:
        out.append(f"\n  {pattern.name}:")
        header = "    dir  " + "".join(f"{('BL' + str(b)):>10}" for b in bls)
        out.append(header)
        for direction in DIRECTIONS:
            s = series(rows, pattern, direction)
            line = f"    {direction:<5}" + "".join(
                f"{s.get(b, float('nan')):>10.1f}" for b in bls)
            out.append(line)
    return "\n".join(out)
