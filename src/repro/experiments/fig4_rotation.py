"""Fig. 4 — effect of the switch fabric's lateral buses on throughput.

Master ``m`` accesses PCH ``(m + i) mod 32`` for rotation offsets
``i = 0..8``.  Paper anchors (relative to the rot-0 full throughput of
416.7 GB/s): offset 1 is still ideal, offset 2 drops to 74.9 % (two
masters share one lateral bus), offset 4 to 49.8 %, and offset 8
saturates at 4/32 = 12.5 % of the device ("all four lateral paths over
the complete length of the device were now used to their full extend").

The module also runs the analytical max-min flow model over the same
topology as a cross-check (the difference quantifies head-of-line
blocking and arbitration dead cycles, which only the cycle simulation
captures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..fabric.flow import rotation_throughput_gbps
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure_all, pct_of_peak

OFFSETS = tuple(range(9))

PAPER_REFERENCE = {
    "rot0_gbps": 416.7,
    "relative": {0: 1.0, 1: 1.0, 2: 0.749, 4: 0.498, 8: 0.125},
}


@dataclass(frozen=True)
class Fig4Row:
    offset: int
    total_gbps: float
    fraction_of_peak: float
    relative_to_rot0: float
    flow_model_gbps: float


def run(
    cycles: int = DEFAULT_CYCLES,
    burst_len: int = 16,
    rw: RWRatio = TWO_TO_ONE,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    offsets=OFFSETS,
    workers: int | None = None,
) -> List[Fig4Row]:
    reports = measure_all([
        SimPoint(FabricKind.XLNX, "rotation",
                 dict(offset=offset, burst_len=burst_len, rw=rw),
                 platform=platform, cycles=cycles)
        for offset in offsets], workers)
    results = [(offset, rep.total_gbps)
               for offset, rep in zip(offsets, reports)]
    base = results[0][1] if results and results[0][0] == 0 else max(
        g for _, g in results)
    rows = [
        Fig4Row(
            offset=offset,
            total_gbps=gbps,
            fraction_of_peak=pct_of_peak(gbps, platform),
            relative_to_rot0=gbps / base if base else 0.0,
            flow_model_gbps=rotation_throughput_gbps(offset, platform, rw),
        )
        for offset, gbps in results
    ]
    return rows


def format_table(rows: List[Fig4Row]) -> str:
    out = ["Fig. 4 — rotation offset vs. throughput (BL16, 2:1)",
           f"{'offset':>7} {'sim GB/s':>10} {'rel rot0':>9} {'of peak':>9} "
           f"{'flow model':>11} {'paper rel':>10}"]
    for r in rows:
        paper = PAPER_REFERENCE["relative"].get(r.offset)
        paper_s = f"{paper:.1%}" if paper is not None else "—"
        out.append(f"{r.offset:>7} {r.total_gbps:>10.1f} "
                   f"{r.relative_to_rot0:>9.1%} {r.fraction_of_peak:>9.1%} "
                   f"{r.flow_model_gbps:>11.1f} {paper_s:>10}")
    return "\n".join(out)
