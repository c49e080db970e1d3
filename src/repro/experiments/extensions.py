"""Extension experiments beyond the paper's evaluation.

The paper's conclusion sketches future work — more HBM stacks, better
fabrics, higher-accuracy models.  These studies use the same machinery to
answer the questions the paper leaves open:

* :func:`lateral_bus_sweep` — how many lateral buses would the *vendor*
  fabric need before the rotation-8 worst case stops collapsing?  (The
  alternative to replacing the network wholesale with the MAO.)
* :func:`stack_scaling` — the conclusion's "future FPGAs with more HBM
  stacks": strided bandwidth on 1/2/4-stack devices through the MAO.
* :func:`granularity_sweep` — the MAO design choice the paper fixes at
  one AXI burst (512 B): coarser interleaving trades channel parallelism
  for row locality.
* :func:`clock_sweep` — the Sec. IV-A frequency/ratio trade-off as a
  table: which (clock, ratio) pairs saturate the device.
* :func:`refresh_policy` — HBM2's optional per-bank refresh vs. the
  all-bank refresh of the paper's platform: how much of the documented
  7-9 % loss a smarter controller could recover.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..core.mao import MaoConfig
from ..fabric import MaoFabric, SegmentedFabric
from ..params import HbmPlatform, DEFAULT_PLATFORM
from ..traffic import make_pattern_sources, make_rotation_sources
from ..types import FabricKind, Pattern, RWRatio, TWO_TO_ONE
from ._common import DEFAULT_CYCLES, measure, sweep_key

PAPER_REFERENCE = {
    "note": "extensions beyond the paper; no reference values",
}


def _run(kind, fabric, sources, cycles, study: str, **knob):
    """Simulate one study point through the result store, keyed by the
    study and the value of the knob it varies."""
    return measure(kind, sources, cycles=cycles, platform=fabric.platform,
                   fabric=fabric,
                   cache_key=sweep_key("extensions", fabric.platform,
                                       study=study, **knob))


# --- lateral bus sweep ---------------------------------------------------------


@dataclass(frozen=True)
class LateralRow:
    buses_per_direction: int
    rotation8_gbps: float
    fraction_of_peak: float


def lateral_bus_sweep(
    cycles: int = DEFAULT_CYCLES,
    counts=(1, 2, 4, 8),
) -> List[LateralRow]:
    """Rotation-8 throughput vs. lateral bus count on the vendor fabric."""
    rows = []
    for n in counts:
        platform = replace(DEFAULT_PLATFORM, lateral_buses=n)
        fab = SegmentedFabric(platform)
        src = make_rotation_sources(8, platform, address_map=fab.address_map)
        rep = _run(FabricKind.XLNX, fab, src, cycles, "lateral",
                   lateral_buses=n)
        rows.append(LateralRow(
            buses_per_direction=n,
            rotation8_gbps=rep.total_gbps,
            fraction_of_peak=rep.total_gbps / 460.8,
        ))
    return rows


# --- stack scaling ---------------------------------------------------------------


@dataclass(frozen=True)
class StackRow:
    stacks: int
    num_pch: int
    peak_gbps: float
    measured_gbps: float


def stack_scaling(
    cycles: int = DEFAULT_CYCLES,
    stacks=(1, 2, 4),
) -> List[StackRow]:
    """CCS bandwidth through the MAO for 1/2/4-stack devices."""
    rows = []
    for n in stacks:
        platform = HbmPlatform(num_pch=16 * n,
                               pch_capacity=256 * 1024 * 1024)
        fab = MaoFabric(platform)
        src = make_pattern_sources(Pattern.CCS, platform)
        rep = _run(FabricKind.MAO, fab, src, cycles, "stacks", stacks=n)
        rows.append(StackRow(
            stacks=n,
            num_pch=platform.num_pch,
            peak_gbps=platform.device_peak_bytes_per_s / 1e9,
            measured_gbps=rep.total_gbps,
        ))
    return rows


# --- interleave granularity -------------------------------------------------------


@dataclass(frozen=True)
class GranularityRow:
    granularity: int
    ccs_gbps: float
    active_channels: int


def granularity_sweep(
    cycles: int = DEFAULT_CYCLES,
    granularities=(512, 2048, 8192, 65536, 1 << 20),
) -> List[GranularityRow]:
    """MAO interleave granularity vs. CCS throughput."""
    rows = []
    for gran in granularities:
        fab = MaoFabric(DEFAULT_PLATFORM,
                        config=MaoConfig(interleave_granularity=gran))
        src = make_pattern_sources(Pattern.CCS, DEFAULT_PLATFORM)
        rep = _run(FabricKind.MAO, fab, src, cycles, "granularity",
                   granularity=gran)
        rows.append(GranularityRow(
            granularity=gran,
            ccs_gbps=rep.total_gbps,
            active_channels=rep.active_pchs(),
        ))
    return rows


# --- clock / ratio sweep ------------------------------------------------------------


@dataclass(frozen=True)
class ClockRow:
    accel_mhz: int
    rw: RWRatio
    scs_gbps: float


def clock_sweep(
    cycles: int = DEFAULT_CYCLES,
    points=((200, RWRatio(2, 1)), (300, RWRatio(1, 0)), (300, TWO_TO_ONE),
            (450, RWRatio(1, 0)), (450, TWO_TO_ONE)),
) -> List[ClockRow]:
    """SCS throughput over (accelerator clock, read/write ratio) pairs."""
    rows = []
    for mhz, rw in points:
        platform = DEFAULT_PLATFORM.with_accel_clock(mhz * 1_000_000)
        fab = SegmentedFabric(platform)
        src = make_pattern_sources(Pattern.SCS, platform, rw=rw,
                                   address_map=fab.address_map)
        rep = _run(FabricKind.XLNX, fab, src, cycles, "clock",
                   accel_mhz=mhz, rw=rw)
        rows.append(ClockRow(accel_mhz=mhz, rw=rw, scs_gbps=rep.total_gbps))
    return rows


# --- refresh policy -----------------------------------------------------------------


@dataclass(frozen=True)
class RefreshRow:
    policy: str
    scs_gbps: float
    fraction_of_peak: float


def refresh_policy(cycles: int = DEFAULT_CYCLES) -> List[RefreshRow]:
    """All-bank vs. per-bank refresh on a streaming workload."""
    from ..params import DramTiming
    rows = []
    for name, per_bank in (("all-bank", False), ("per-bank", True)):
        platform = HbmPlatform(dram=DramTiming(per_bank_refresh=per_bank))
        fab = MaoFabric(platform)
        src = make_pattern_sources(Pattern.CCS, platform)
        rep = _run(FabricKind.MAO, fab, src, cycles, "refresh", policy=name)
        rows.append(RefreshRow(
            policy=name,
            scs_gbps=rep.total_gbps,
            fraction_of_peak=rep.total_gbps / 460.8,
        ))
    return rows


# --- formatting ------------------------------------------------------------------------


def run(cycles: int = DEFAULT_CYCLES) -> dict:
    """All extension studies in one structure (the registry entry point)."""
    return {
        "lateral": lateral_bus_sweep(cycles),
        "stacks": stack_scaling(cycles),
        "granularity": granularity_sweep(cycles),
        "clock": clock_sweep(cycles),
        "refresh": refresh_policy(cycles),
    }


def format_table(results: dict) -> str:
    out = ["Extension studies (beyond the paper)"]
    out.append("\n  Lateral buses vs. rotation-8 collapse (vendor fabric):")
    for r in results["lateral"]:
        out.append(f"    {r.buses_per_direction} buses/direction: "
                   f"{r.rotation8_gbps:7.1f} GB/s ({r.fraction_of_peak:5.1%})")
    out.append("\n  HBM stack scaling (CCS through MAO):")
    for r in results["stacks"]:
        out.append(f"    {r.stacks} stack(s), {r.num_pch:2d} PCH: "
                   f"{r.measured_gbps:7.1f} / {r.peak_gbps:6.1f} GB/s peak")
    out.append("\n  MAO interleave granularity (CCS):")
    for r in results["granularity"]:
        out.append(f"    {r.granularity:>8} B: {r.ccs_gbps:7.1f} GB/s "
                   f"({r.active_channels} channels)")
    out.append("\n  Clock/ratio compensation (SCS):")
    for r in results["clock"]:
        out.append(f"    {r.accel_mhz:3d} MHz @ {str(r.rw):>4}: "
                   f"{r.scs_gbps:7.1f} GB/s")
    out.append("\n  Refresh policy (CCS through MAO):")
    for r in results["refresh"]:
        out.append(f"    {r.policy:>9}: {r.scs_gbps:7.1f} GB/s "
                   f"({r.fraction_of_peak:5.1%})")
    return "\n".join(out)
