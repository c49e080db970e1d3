"""Table II — HBM latency comparison (XLNX vs. MAO).

Round-trip latency mean and standard deviation (accelerator-clock
cycles) for the CCS and CCRA patterns under two traffic intensities:

* **Single** — one transaction at a time with burst length 1 per master,
* **Burst** — 32 outstanding transactions with burst length 16.

Paper shape: the vendor fabric shows high means *and* high variance
under load (contention of PCHs and switches; CCS burst reads at
3020±1479), while the MAO adds a constant ~25 cycles but caps the burst
latencies an order of magnitude lower and nearly eliminates the variance
of write acknowledgements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..sim.stats import LatencySummary
from ..types import FabricKind, Pattern, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, SimPoint, measure

#: (name, outstanding, burst_len) of the two traffic setups.
TRAFFIC_SETUPS = (("Single", 1, 1), ("Burst", 32, 16))
FABRICS = (FabricKind.XLNX, FabricKind.MAO)
PATTERNS = (Pattern.CCS, Pattern.CCRA)

PAPER_REFERENCE = {
    # (setup, fabric, pattern, direction) -> (mean, std) in accel cycles
    ("Single", "xlnx", "CCS", "read"): (71.8, 19.8),
    ("Single", "xlnx", "CCS", "write"): (46.3, 24.6),
    ("Single", "mao", "CCS", "read"): (73.7, 12.5),
    ("Single", "mao", "CCS", "write"): (32.0, 0.1),
    ("Burst", "xlnx", "CCS", "read"): (3020.8, 1478.8),
    ("Burst", "xlnx", "CCS", "write"): (585.4, 522.9),
    ("Burst", "mao", "CCS", "read"): (264.5, 13.4),
    ("Burst", "mao", "CCS", "write"): (72.0, 0.7),
    ("Burst", "xlnx", "CCRA", "read"): (651.8, 353.5),
    ("Burst", "mao", "CCRA", "read"): (546.2, 158.4),
}


@dataclass(frozen=True)
class Table2Row:
    setup: str
    fabric: str
    pattern: Pattern
    read: LatencySummary
    write: LatencySummary


def run(
    cycles: int = DEFAULT_CYCLES,
    rw: RWRatio = TWO_TO_ONE,
    platform: HbmPlatform = DEFAULT_PLATFORM,
    seed: int = 0,
) -> List[Table2Row]:
    rows: List[Table2Row] = []
    for setup, outstanding, burst_len in TRAFFIC_SETUPS:
        for fabric_kind in FABRICS:
            for pattern in PATTERNS:
                rep = measure(SimPoint(
                    fabric_kind, "pattern",
                    dict(pattern=pattern, burst_len=burst_len, rw=rw,
                         seed=seed),
                    platform=platform, cycles=cycles,
                    outstanding=outstanding))
                rows.append(Table2Row(
                    setup=setup,
                    fabric=fabric_kind.value,
                    pattern=pattern,
                    read=rep.read_latency,
                    write=rep.write_latency,
                ))
    return rows


def find(rows: List[Table2Row], setup: str, fabric: str,
         pattern: Pattern) -> Table2Row:
    for r in rows:
        if r.setup == setup and r.fabric == fabric and r.pattern is pattern:
            return r
    raise KeyError((setup, fabric, pattern))


def format_table(rows: List[Table2Row]) -> str:
    out = ["Table II — latency comparison (accelerator cycles, mean ± σ)",
           f"{'traffic':>8} {'fabric':>7}   "
           f"{'CCS read':>16} {'CCS write':>16} "
           f"{'CCRA read':>16} {'CCRA write':>16}"]
    for setup, _o, _b in TRAFFIC_SETUPS:
        for fabric in ("xlnx", "mao"):
            ccs = find(rows, setup, fabric, Pattern.CCS)
            ccra = find(rows, setup, fabric, Pattern.CCRA)
            def fmt(s: LatencySummary) -> str:
                return f"{s.mean:7.1f}±{s.std:<7.1f}"
            out.append(f"{setup:>8} {fabric.upper():>7}   "
                       f"{fmt(ccs.read)} {fmt(ccs.write)} "
                       f"{fmt(ccra.read)} {fmt(ccra.write)}")
    return "\n".join(out)
