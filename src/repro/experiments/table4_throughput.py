"""Table IV — HBM throughput comparison: vendor fabric vs. MAO.

CCS and CCRA at burst length 16, read-only / write-only / mixed, on both
interconnects, with the speedup factors.  Paper anchors: CCS improves
from the 13.0 GB/s hot-spot to 414 GB/s (the headline strided speedup);
CCRA from 70.4 GB/s to 266 GB/s (3.78x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import (FabricKind, Pattern, RWRatio, READ_ONLY, WRITE_ONLY,
                     TWO_TO_ONE)
from ._common import DEFAULT_CYCLES, SimPoint, measure, pct_of_peak

DIRECTIONS: Tuple[Tuple[str, RWRatio], ...] = (
    ("RD", READ_ONLY), ("WR", WRITE_ONLY), ("Both", TWO_TO_ONE))

PAPER_REFERENCE = {
    # (pattern, direction) -> (xlnx GB/s, mao GB/s)
    ("CCS", "RD"): (9.6, 307.0),
    ("CCS", "WR"): (9.6, 307.0),
    ("CCS", "Both"): (13.0, 414.0),
    ("CCRA", "RD"): (36.0, 134.0),
    ("CCRA", "WR"): (48.0, 144.0),
    ("CCRA", "Both"): (70.4, 266.0),
}


@dataclass(frozen=True)
class Table4Row:
    pattern: Pattern
    direction: str
    xlnx_gbps: float
    mao_gbps: float

    @property
    def speedup(self) -> float:
        return self.mao_gbps / self.xlnx_gbps if self.xlnx_gbps else 0.0


def run(
    cycles: int = DEFAULT_CYCLES,
    burst_len: int = 16,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    seed: int = 0,
) -> List[Table4Row]:
    rows: List[Table4Row] = []
    for pattern in (Pattern.CCS, Pattern.CCRA):
        for dir_name, rw in DIRECTIONS:
            gbps: Dict[FabricKind, float] = {}
            for kind in (FabricKind.XLNX, FabricKind.MAO):
                gbps[kind] = measure(SimPoint(
                    kind, "pattern",
                    dict(pattern=pattern, burst_len=burst_len, rw=rw,
                         seed=seed),
                    platform=platform, cycles=cycles)).total_gbps
            rows.append(Table4Row(
                pattern=pattern,
                direction=dir_name,
                xlnx_gbps=gbps[FabricKind.XLNX],
                mao_gbps=gbps[FabricKind.MAO],
            ))
    return rows


def find(rows: List[Table4Row], pattern: Pattern, direction: str) -> Table4Row:
    for r in rows:
        if r.pattern is pattern and r.direction == direction:
            return r
    raise KeyError((pattern, direction))


def format_table(rows: List[Table4Row],
                 platform: HbmPlatform = DEFAULT_PLATFORM) -> str:
    out = ["Table IV — throughput comparison [GB/s], BL16",
           f"{'pattern':>8} {'dir':>5} {'XLNX':>14} {'MAO':>14} {'speedup':>9} "
           f"{'paper':>15}"]
    for r in rows:
        ref = PAPER_REFERENCE.get((r.pattern.name, r.direction))
        ref_s = f"{ref[0]:.1f} -> {ref[1]:.0f}" if ref else "—"
        out.append(
            f"{r.pattern.name:>8} {r.direction:>5} "
            f"{r.xlnx_gbps:>8.1f} ({pct_of_peak(r.xlnx_gbps, platform):>4.1%}) "
            f"{r.mao_gbps:>7.1f} ({pct_of_peak(r.mao_gbps, platform):>4.1%}) "
            f"{r.speedup:>8.1f}x {ref_s:>15}")
    return "\n".join(out)
