"""Fig. 6 — effect of reordering on CCRA throughput with the MAO.

Sweeps the number of independent AXI IDs (= reorder-buffer depth): "a
higher number allowed the memory controller to more efficiently schedule
requests" and the BM-side reorder buffers "effectively freed the fabric
from outstanding [transactions]".  The curve rises from a serialized
depth-1 floor and saturates around depth 16-32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.mao import MaoConfig
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, Pattern, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure, pct_of_peak

DEPTHS = (1, 2, 4, 8, 16, 32)

PAPER_REFERENCE = {
    "saturated_gbps": 266.0,
    "rising": True,
}


@dataclass(frozen=True)
class Fig6Row:
    reorder_depth: int
    total_gbps: float
    fraction_of_peak: float


def run(
    cycles: int = DEFAULT_CYCLES,
    burst_len: int = 16,
    rw: RWRatio = TWO_TO_ONE,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    depths=DEPTHS,
    seed: int = 0,
) -> List[Fig6Row]:
    rows: List[Fig6Row] = []
    for depth in depths:
        rep = measure(SimPoint(
            FabricKind.MAO, "pattern",
            dict(pattern=Pattern.CCRA, burst_len=burst_len, rw=rw,
                 seed=seed),
            platform=platform, cycles=cycles,
            mao=MaoConfig(reorder_depth=depth)))
        rows.append(Fig6Row(
            reorder_depth=depth,
            total_gbps=rep.total_gbps,
            fraction_of_peak=pct_of_peak(rep.total_gbps, platform),
        ))
    return rows


def format_table(rows: List[Fig6Row]) -> str:
    out = ["Fig. 6 — reorder depth vs. CCRA throughput with MAO",
           f"{'depth':>6} {'GB/s':>10} {'of peak':>9}"]
    for r in rows:
        out.append(f"{r.reorder_depth:>6} {r.total_gbps:>10.1f} "
                   f"{r.fraction_of_peak:>9.1%}")
    out.append(f"paper: saturates at ~{PAPER_REFERENCE['saturated_gbps']} GB/s")
    return "\n".join(out)
