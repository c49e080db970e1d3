"""Analytical effective-bandwidth estimator (the paper's methodology).

Sec. IV derives the parameters that govern achievable HBM throughput:
design frequency ``facc``, bus width ``W``, read/write ratio ``RWrat``,
burst length ``BL``, outstanding transactions ``Not``, effectively used
channels ``Nch_eff``, effective lateral buses ``Nlat_eff`` and contention
losses ``Ccont``.  This module turns those into a closed-form bandwidth
estimate — the number a designer plugs into the Roofline model *before*
building anything (Sec. V: "we estimate the maximal achievable memory
throughput ... in advance").

The estimate is the largest total traffic ``T`` (split ``T_r : T_w``
according to the ratio) satisfying every resource constraint:

* per-master port supply per direction (``facc x W``),
* per-PCH DRAM data bus, derated by refresh and bus-turnaround mix,
* per-PCH per-direction AXI channel, derated by the multiplexing dead
  cycles when several masters share the channel,
* the MC command path (binds at small bursts),
* the lateral-bus bisection for cross-channel traffic on the segmented
  fabric.

All derations are computed from the same
:class:`~repro.params.DramTiming` / :class:`~repro.params.FabricTiming`
constants the cycle simulation uses, so estimator and simulator agree by
construction where the model is exact and the tests quantify the gap
where it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..params import HbmPlatform, DEFAULT_PLATFORM, gbps
from ..types import FabricKind, Pattern, RWRatio, TWO_TO_ONE


@dataclass(frozen=True)
class EstimateInputs:
    """Designer-facing inputs of the bandwidth estimate."""

    fabric: FabricKind = FabricKind.XLNX
    pattern: Pattern = Pattern.CCS
    rw: RWRatio = TWO_TO_ONE
    burst_len: int = 16
    outstanding: int = 32
    accel_clock_hz: Optional[int] = None
    """Accelerator clock; defaults to the platform's (300 MHz)."""

    num_masters: Optional[int] = None
    """Active bus masters; defaults to all 32."""

    def __post_init__(self) -> None:
        if not 1 <= self.burst_len <= 16:
            raise ConfigError("burst_len must be 1..16")
        if self.outstanding < 1:
            raise ConfigError("outstanding must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """Result of a bandwidth estimate, in bytes/s plus diagnostics."""

    total_bytes_per_s: float
    read_bytes_per_s: float
    write_bytes_per_s: float
    bottleneck: str
    nch_eff: int
    notes: tuple = ()

    @property
    def total_gbps(self) -> float:
        return gbps(self.total_bytes_per_s)

    @property
    def read_gbps(self) -> float:
        return gbps(self.read_bytes_per_s)

    @property
    def write_gbps(self) -> float:
        return gbps(self.write_bytes_per_s)


class BandwidthEstimator:
    """Closed-form effective-bandwidth model of the platform."""

    def __init__(self, platform: HbmPlatform = DEFAULT_PLATFORM) -> None:
        self.platform = platform

    # -- deration factors ------------------------------------------------------

    def refresh_efficiency(self) -> float:
        """DRAM cycles left after refresh (the 7-9 % loss)."""
        t = self.platform.dram
        return 1.0 - t.t_rfc / t.t_refi

    def turnaround_efficiency(self, rw: RWRatio, burst_len: int,
                              window: int = 16) -> float:
        """Data-bus efficiency after read/write turnaround dead time.

        The controller groups same-direction transactions inside its
        reorder ``window``, so a mixed stream pays roughly two turnarounds
        per window of ``window`` transactions.
        """
        if rw.read_only or rw.write_only:
            return 1.0
        t = self.platform.dram
        beats = window * burst_len
        dead = t.t_turnaround_rd_to_wr + t.t_turnaround_wr_to_rd
        return beats / (beats + dead)

    def port_direction_limit(self, accel_hz: int) -> float:
        """Per-PCH per-direction byte rate of the AXI port.

        The HBM AXI ports run in the accelerator's clock domain, so each
        direction of a PCH moves at most ``accel_hz x 32 B`` — 9.6 GB/s at
        300 MHz, the paper's measured unidirectional hot-spot ceiling.
        """
        return float(min(accel_hz, self.platform.fabric_clock_hz)
                     * self.platform.bytes_per_beat)

    def command_path_limit(self, burst_len: int) -> float:
        """Per-PCH byte rate the shared MC command path allows."""
        t = self.platform.dram
        p = self.platform
        txn_rate = p.fabric_clock_hz / (t.cmd_cycles_per_txn * p.pch_per_mc)
        return txn_rate * burst_len * p.bytes_per_beat

    # -- channel effectiveness ---------------------------------------------------

    def effective_channels(self, inputs: EstimateInputs) -> int:
        """``Nch_eff``: channels that actually carry traffic."""
        p = self.platform
        if inputs.pattern.is_single_channel:
            return min(inputs.num_masters or p.num_masters, p.num_pch)
        if inputs.fabric is FabricKind.XLNX:
            # Contiguous map: globally contiguous data sits in one PCH
            # unless the pattern is random over the device.
            return p.num_pch if inputs.pattern.is_random else 1
        return p.num_pch

    def lateral_limit(self, inputs: EstimateInputs) -> float:
        """Bisection bound of the segmented fabric for cross-channel
        random traffic, in bytes/s.

        Uniform random traffic crosses the middle cut with probability
        1/2 x 1/2 x 2 = 1/2; two lateral buses per direction and parity
        serve it.  Head-of-line blocking pushes the practical limit below
        this (quantified by the cycle simulation).
        """
        p = self.platform
        per_bus = p.pch_peak_bytes_per_s
        buses = 2 * p.lateral_buses  # both directions across the middle cut
        crossing_fraction = 0.5
        return buses * per_bus / crossing_fraction

    # -- the estimate ----------------------------------------------------------------

    def estimate(self, inputs: EstimateInputs) -> Estimate:
        p = self.platform
        n_masters = inputs.num_masters or p.num_masters
        accel_hz = inputs.accel_clock_hz or p.accel_clock_hz
        fr = inputs.rw.read_fraction
        fw = inputs.rw.write_fraction
        nch = self.effective_channels(inputs)

        port_dir = accel_hz * p.bytes_per_beat  # per master, per direction
        pch_peak = p.pch_peak_bytes_per_s
        bus_eff = (self.refresh_efficiency()
                   * self.turnaround_efficiency(inputs.rw, inputs.burst_len))
        chan_dir = self.port_direction_limit(accel_hz)
        # Small bursts additionally bound by the command path.
        cmd_limit = self.command_path_limit(inputs.burst_len)

        constraints: list[tuple[str, float, float]] = []

        def add(name: str, coeff: float, capacity: float) -> None:
            """Constraint coeff * T <= capacity."""
            if coeff > 0:
                constraints.append((name, coeff, capacity))

        # Port supply (per direction, aggregated over masters).
        add("port-read", fr, port_dir * n_masters)
        add("port-write", fw, port_dir * n_masters)
        # Per-PCH DRAM data bus.
        add("dram-bus", 1.0, nch * min(pch_peak * bus_eff, cmd_limit))
        # Per-PCH per-direction AXI channel (accelerator-domain port clock).
        add("axi-read-channel", fr, nch * chan_dir)
        add("axi-write-channel", fw, nch * chan_dir)
        # Lateral bisection for cross-channel random traffic on XLNX.
        if (inputs.fabric is FabricKind.XLNX
                and not inputs.pattern.is_single_channel
                and inputs.pattern.is_random):
            add("lateral-bisection", 1.0, self.lateral_limit(inputs))

        best = math.inf
        bottleneck = "unconstrained"
        for name, coeff, cap in constraints:
            t = cap / coeff
            if t < best:
                best = t
                bottleneck = name

        notes = []
        if inputs.outstanding * inputs.burst_len < 48:
            notes.append(
                "outstanding x burst_len may not cover the AXI round trip; "
                "expect pipeline stalls (Sec. IV-A)")
        return Estimate(
            total_bytes_per_s=best,
            read_bytes_per_s=best * fr,
            write_bytes_per_s=best * fw,
            bottleneck=bottleneck,
            nch_eff=nch,
            notes=tuple(notes),
        )
