"""Table V — matrix-multiplication accelerator overview.

Combines the analytical accelerator models (OpI, Ccomp, Util) with
*measured* effective bandwidths: each accelerator's real memory traffic
(CCS at its read/write ratio from its P ports) is run through the cycle
simulator on both interconnects, exactly the paper's methodology
("Then we measured the actual throughput to see if our estimation holds
up").

Paper anchors: accelerator A measures 12.55 GB/s without and
403.75 GB/s with the MAO (estimates 13 / 416, ~3 % off); accelerator B
measures 9.59 / 273 GB/s.  The resulting speedups over the P=4-no-MAO
baseline are 4.6/18.4/73.8/248.2x (A) and 3.6/7.1/14.3/28.5x (B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..accelerators import (AcceleratorA, AcceleratorB, TableVRow,
                            build_table_v, make_accelerator_sources)
from ..accelerators.base import AcceleratorConfig
from ..core.estimator import BandwidthEstimator, EstimateInputs
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..types import FabricKind, Pattern
from .. import make_fabric
from ._common import DEFAULT_CYCLES, measure, sweep_key

PAPER_REFERENCE = {
    "bw_a": (12.55, 403.75),
    "bw_b": (9.59, 273.0),
    "su_a_mao": {4: 4.6, 8: 18.4, 16: 73.8, 32: 248.2},
    "su_b_mao": {4: 3.6, 8: 7.1, 16: 14.3, 32: 28.5},
    "best_a": 8,   # best feasible configuration of accelerator A
    "best_b": 32,  # accelerator B's near-ceiling configuration
}


@dataclass(frozen=True)
class MeasuredBandwidths:
    """The four measured effective bandwidths feeding Table V."""

    a_xlnx_gbps: float
    a_mao_gbps: float
    b_xlnx_gbps: float
    b_mao_gbps: float


def measure_bandwidths(
    cycles: int = DEFAULT_CYCLES,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    p: int = 32,
) -> MeasuredBandwidths:
    """Run both accelerators' traffic on both fabrics."""
    values = {}
    for name, cls in (("a", AcceleratorA), ("b", AcceleratorB)):
        model = cls(AcceleratorConfig(p=p))
        for kind in (FabricKind.XLNX, FabricKind.MAO):
            fab = make_fabric(kind, platform)
            sources = make_accelerator_sources(model, platform)
            rep = measure(kind, sources, cycles=cycles, platform=platform,
                          fabric=fab,
                          cache_key=sweep_key("accel-sim", platform,
                                              accel=name,
                                              config=model.config,
                                              fabric=kind))
            values[(name, kind)] = rep.total_gbps
    return MeasuredBandwidths(
        a_xlnx_gbps=values[("a", FabricKind.XLNX)],
        a_mao_gbps=values[("a", FabricKind.MAO)],
        b_xlnx_gbps=values[("b", FabricKind.XLNX)],
        b_mao_gbps=values[("b", FabricKind.MAO)],
    )


def estimate_bandwidths(platform: HbmPlatform = DEFAULT_PLATFORM
                        ) -> MeasuredBandwidths:
    """The paper's *a-priori* estimates from the analytical model."""
    est = BandwidthEstimator(platform)
    a = AcceleratorA(AcceleratorConfig(p=32))
    b = AcceleratorB(AcceleratorConfig(p=32))
    def one(model, kind):
        return est.estimate(EstimateInputs(
            fabric=kind, pattern=Pattern.CCS, rw=model.rw_ratio)).total_gbps
    return MeasuredBandwidths(
        a_xlnx_gbps=one(a, FabricKind.XLNX),
        a_mao_gbps=one(a, FabricKind.MAO),
        b_xlnx_gbps=one(b, FabricKind.XLNX),
        b_mao_gbps=one(b, FabricKind.MAO),
    )


def run(
    cycles: int = DEFAULT_CYCLES,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    bandwidths: MeasuredBandwidths | None = None,
) -> Tuple[List[TableVRow], MeasuredBandwidths]:
    bw = bandwidths or measure_bandwidths(cycles, platform)
    rows = build_table_v(bw.a_xlnx_gbps, bw.a_mao_gbps,
                         bw.b_xlnx_gbps, bw.b_mao_gbps)
    return rows, bw


def format_table(result: Tuple[List[TableVRow], MeasuredBandwidths]) -> str:
    rows, bw = result
    out = ["Table V — accelerator overview",
           f"measured BW: A {bw.a_xlnx_gbps:.2f} -> {bw.a_mao_gbps:.2f} GB/s, "
           f"B {bw.b_xlnx_gbps:.2f} -> {bw.b_mao_gbps:.2f} GB/s "
           f"(paper: A 12.55 -> 403.75, B 9.59 -> 273)"]
    for r in rows:
        out.append(r.formatted())
    return "\n".join(out)
