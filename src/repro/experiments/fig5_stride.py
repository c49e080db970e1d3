"""Fig. 5 — effect of stride length on throughput with the MAO.

The collective window walk of :mod:`repro.traffic.stride` swept over
stride lengths.  Paper shape: strides below 16 KB (the interleaving
period) make several masters fetch the same data and collide on
channels; between 16 KB and 256 KB the maximal performance is reached;
above 256 KB every transaction re-activates the same bank and "DRAM page
misses dominate the achievable throughput".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure, pct_of_peak

KB = 1024
STRIDES = (512, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB,
           128 * KB, 256 * KB, 512 * KB, 1024 * KB, 4096 * KB)

PAPER_REFERENCE = {
    "plateau_low_bytes": 16 * KB,
    "plateau_high_bytes": 256 * KB,
    "plateau_gbps": 414.0,
}


@dataclass(frozen=True)
class Fig5Row:
    stride: int
    total_gbps: float
    fraction_of_peak: float


def run(
    cycles: int = DEFAULT_CYCLES,
    burst_len: int = 16,
    rw: RWRatio = TWO_TO_ONE,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    strides=STRIDES,
) -> List[Fig5Row]:
    rows: List[Fig5Row] = []
    for stride in strides:
        rep = measure(SimPoint(
            FabricKind.MAO, "stride",
            dict(stride=stride, burst_len=burst_len, rw=rw),
            platform=platform, cycles=cycles))
        rows.append(Fig5Row(
            stride=stride,
            total_gbps=rep.total_gbps,
            fraction_of_peak=pct_of_peak(rep.total_gbps, platform),
        ))
    return rows


def plateau_rows(rows: List[Fig5Row]) -> List[Fig5Row]:
    lo = PAPER_REFERENCE["plateau_low_bytes"]
    hi = PAPER_REFERENCE["plateau_high_bytes"]
    return [r for r in rows if lo <= r.stride <= hi]


def format_table(rows: List[Fig5Row]) -> str:
    out = ["Fig. 5 — stride length vs. throughput with MAO (BL16, 2:1)",
           f"{'stride':>10} {'GB/s':>10} {'of peak':>9}"]
    for r in rows:
        s = (f"{r.stride // KB} KB" if r.stride >= KB else f"{r.stride} B")
        out.append(f"{s:>10} {r.total_gbps:>10.1f} {r.fraction_of_peak:>9.1%}")
    out.append("paper: maximum between 16 KB and 256 KB; collisions below, "
               "page misses above")
    return "\n".join(out)
