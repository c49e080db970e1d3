"""Quantitative reproduction of the paper's headline numbers.

Every assertion here corresponds to a number printed in the paper (see
DESIGN.md §4 for the index).  Tolerances are deliberately explicit: tight
where the model is calibrated (CCS/SCS anchors within a few percent),
loose where the substrate differs (CCRA unidirectional — the known
deviations are documented in EXPERIMENTS.md).

The simulations run once per module at a 8k-cycle horizon: the sweeps
are module fixtures, and :func:`_measure` memoizes each point on its
arguments, so tests that share a point share one run.  The figures
regenerated for EXPERIMENTS.md use longer runs.  Shape gates that
already hold at ``SHAPE_CYCLES`` run there.
"""

import functools

import pytest

import repro
from repro.accelerators.scaling import best_feasible
from repro.experiments import (fig2_rw_ratio, fig5_stride, fig6_reorder,
                               fig7_roofline, table5_accelerators)
from repro.roofline import Bound
from repro.sim import Engine, SimConfig
from repro.traffic import make_rotation_sources
from repro.types import FabricKind, Pattern, RWRatio, TWO_TO_ONE
from repro import make_fabric

CYCLES = 8_000

#: The shortest horizon whose measured window (after the quarter
#: warmup) spans a full all-bank refresh interval (t_refi = 1,755).
SHAPE_CYCLES = 3_000

KB = 1024


def _measure(pattern, fabric, rw=TWO_TO_ONE, outstanding=32, burst_len=16,
             cycles=CYCLES):
    """One point's report, simulated once per module (tests only read
    it).  Every argument is passed on positionally, so a point is one
    cache key however the caller spells it."""
    return _simulate(pattern, fabric, rw, outstanding, burst_len, cycles)


@functools.lru_cache(maxsize=None)
def _simulate(pattern, fabric, rw, outstanding, burst_len, cycles):
    return repro.quick_measure(pattern, fabric, cycles=cycles, rw=rw,
                               outstanding=outstanding, burst_len=burst_len)


@pytest.fixture(scope="module", autouse=True)
def _simulate_once_per_module():
    """Drop the memoized reports when the module's tests are done."""
    yield
    _simulate.cache_clear()


# --- Sec. IV-A: single-channel and ratio behaviour --------------------------


class TestSectionIVAnchors:
    def test_scs_full_throughput(self):
        """Perfect SCS subdivision yields 416.7 GB/s (90.6 %)."""
        rep = _measure(Pattern.SCS, FabricKind.XLNX)
        assert rep.total_gbps == pytest.approx(416.7, rel=0.02)

    def test_scs_read_only_port_limited(self):
        """Unidirectional at 300 MHz: 32 x 9.6 GB/s."""
        rep = _measure(Pattern.SCS, FabricKind.XLNX, rw=RWRatio(1, 0))
        assert rep.total_gbps == pytest.approx(307.2, rel=0.02)

    def test_two_to_one_within_2pct_of_450mhz_reference(self):
        """Fig. 2: concurrent 2:1 reads/writes at 300 MHz lose only ~2 %
        against the 450 MHz unidirectional reference (~424 GB/s)."""
        rep = _measure(Pattern.SCS, FabricKind.XLNX)
        reference = 460.8 * (1 - 125 / 1755)  # refresh-only ceiling
        assert rep.total_gbps / reference == pytest.approx(0.98, abs=0.02)

    def test_ratio_sweep_peaks_at_mixed_ratio(self):
        """Fig. 2: the curve peaks at a mixed ratio (paper: 2:1), and a
        write-only stream is port-limited like a read-only one."""
        rows = fig2_rw_ratio.run(cycles=SHAPE_CYCLES)
        peak = fig2_rw_ratio.peak_row(rows)
        assert peak.ratio in (RWRatio(2, 1), RWRatio(1, 1), RWRatio(1, 2))
        assert peak.total_gbps > 390
        by_ratio = {r.ratio: r.total_gbps for r in rows}
        assert by_ratio[RWRatio(0, 1)] == pytest.approx(307.2, rel=0.02)

    def test_hotspot_both_directions(self):
        """Fig. 3b: CCS hot-spot saturates at ~13 GB/s (2.8 %)."""
        rep = _measure(Pattern.CCS, FabricKind.XLNX)
        assert rep.total_gbps == pytest.approx(13.0, rel=0.05)

    def test_hotspot_unidirectional(self):
        """Reads-only or writes-only hot-spot drops to 9.6 GB/s (2.1 %)."""
        rd = _measure(Pattern.CCS, FabricKind.XLNX, rw=RWRatio(1, 0))
        wr = _measure(Pattern.CCS, FabricKind.XLNX, rw=RWRatio(0, 1))
        # The token-bucket port gate admits a start-up transient that a
        # short horizon does not fully amortize; longer runs converge.
        assert rd.total_gbps == pytest.approx(9.6, rel=0.06)
        assert wr.total_gbps == pytest.approx(9.6, rel=0.06)

    def test_burst_length_one_penalty(self):
        """Fig. 3: BL1 performs significantly worse; BL2 recovers ~50 %
        for unidirectional single-channel streams (measured with enough
        outstanding transactions to cover the round trip)."""
        bl1 = _measure(Pattern.SCS, FabricKind.XLNX, rw=RWRatio(1, 0),
                       burst_len=1, outstanding=64)
        bl2 = _measure(Pattern.SCS, FabricKind.XLNX, rw=RWRatio(1, 0),
                       burst_len=2, outstanding=64)
        gain = bl2.total_gbps / bl1.total_gbps - 1.0
        assert 0.3 <= gain <= 0.8

    def test_burst_length_two_almost_maximizes_strided(self):
        """Fig. 3a: BL2 almost maximizes unidirectional strided access."""
        bl2 = _measure(Pattern.SCS, FabricKind.XLNX, rw=RWRatio(1, 0),
                       burst_len=2, outstanding=64)
        bl16 = _measure(Pattern.SCS, FabricKind.XLNX, rw=RWRatio(1, 0),
                        burst_len=16, outstanding=64)
        assert bl2.total_gbps > 0.85 * bl16.total_gbps

    @pytest.mark.parametrize("pattern", list(Pattern), ids=lambda p: p.name)
    def test_burst_length_one_worse_on_every_pattern(self, pattern):
        """Fig. 3a-d: length-one bursts perform significantly worse on
        every pattern (mixed 2:1 traffic)."""
        bl1 = _measure(pattern, FabricKind.XLNX, burst_len=1,
                       cycles=SHAPE_CYCLES)
        bl16 = _measure(pattern, FabricKind.XLNX, cycles=SHAPE_CYCLES)
        assert bl1.total_gbps < 0.75 * bl16.total_gbps

    def test_ccra_exceeds_single_channel_by_5x(self):
        """Fig. 3d: random cross-channel traffic still reaches >5x one
        channel's maximum thanks to memory-level parallelism."""
        rep = _measure(Pattern.CCRA, FabricKind.XLNX)
        assert rep.total_gbps > 5.0 * 13.0


# --- Fig. 4: rotation / lateral buses ----------------------------------------


@pytest.fixture(scope="module")
def rotation_curve():
    results = {}
    for offset in range(9):
        fab = make_fabric(FabricKind.XLNX)
        src = make_rotation_sources(offset, address_map=fab.address_map)
        rep = Engine(fab, src, SimConfig(cycles=CYCLES, warmup=2000)).run()
        results[offset] = rep.total_gbps
    return results


class TestRotation:
    def test_rot0_full(self, rotation_curve):
        assert rotation_curve[0] == pytest.approx(416.7, rel=0.02)

    def test_rot1_still_ideal(self, rotation_curve):
        assert rotation_curve[1] == pytest.approx(rotation_curve[0], rel=0.02)

    def test_rot2_paper_749(self, rotation_curve):
        rel = rotation_curve[2] / rotation_curve[0]
        assert rel == pytest.approx(0.749, abs=0.05)

    def test_rot4_paper_498(self, rotation_curve):
        rel = rotation_curve[4] / rotation_curve[0]
        assert rel == pytest.approx(0.498, abs=0.06)

    def test_rot8_saturates_at_125(self, rotation_curve):
        """4/32 = 12.5 % of the device bandwidth."""
        frac = rotation_curve[8] / 460.8
        assert frac == pytest.approx(0.125, abs=0.03)

    def test_every_further_offset_loses(self, rotation_curve):
        """Beyond offset 1, "with every additional offset ... the
        performance further decreased" (2 % slack for offsets that share
        a lateral bus equally, such as 2 and 3)."""
        values = [rotation_curve[i] for i in range(1, 9)]
        assert all(b <= a * 1.02 for a, b in zip(values, values[1:]))


# --- Figs. 5 and 6: stride and reorder depth through the MAO -----------------


class TestMaoSweeps:
    def test_stride_plateau_then_page_misses(self):
        """Fig. 5: the maximum lies between 16 KB and 256 KB; beyond it
        every transaction re-activates one bank and page misses
        dominate."""
        rows = fig5_stride.run(cycles=SHAPE_CYCLES, strides=(
            16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB,
            4096 * KB))
        plateau = [r.total_gbps for r in fig5_stride.plateau_rows(rows)]
        assert min(plateau) > 390
        by_stride = {r.stride: r.total_gbps for r in rows}
        assert by_stride[512 * KB] < 0.8 * max(plateau)
        assert by_stride[4096 * KB] < 0.8 * max(plateau)

    def test_reorder_depth_rises_then_saturates(self):
        """Fig. 6: more independent AXI IDs help random access, and the
        curve saturates by depth 16."""
        rows = fig6_reorder.run(cycles=SHAPE_CYCLES, depths=(1, 16, 32))
        by_depth = {r.reorder_depth: r.total_gbps for r in rows}
        assert by_depth[16] > 1.2 * by_depth[1]
        assert by_depth[32] == pytest.approx(by_depth[16], rel=0.05)


# --- Table IV: XLNX vs MAO ----------------------------------------------------


@pytest.fixture(scope="module")
def table4():
    out = {}
    for pattern in (Pattern.CCS, Pattern.CCRA):
        for name, rw in (("RD", RWRatio(1, 0)), ("WR", RWRatio(0, 1)),
                         ("Both", TWO_TO_ONE)):
            for fabric in (FabricKind.XLNX, FabricKind.MAO):
                rep = _measure(pattern, fabric, rw=rw)
                out[(pattern.name, name, fabric.value)] = rep.total_gbps
    return out


class TestTableIV:
    def test_mao_ccs_read(self, table4):
        assert table4[("CCS", "RD", "mao")] == pytest.approx(307, rel=0.03)

    def test_mao_ccs_write(self, table4):
        assert table4[("CCS", "WR", "mao")] == pytest.approx(307, rel=0.03)

    def test_mao_ccs_both(self, table4):
        assert table4[("CCS", "Both", "mao")] == pytest.approx(414, rel=0.03)

    def test_ccs_speedup_order_30x(self, table4):
        su = table4[("CCS", "Both", "mao")] / table4[("CCS", "Both", "xlnx")]
        assert su > 25  # paper's own numbers give 414/13.0 = 31.8x

    def test_mao_ccra_both(self, table4):
        """266 GB/s (57.8 %) in the paper; the model lands within 10 %."""
        assert table4[("CCRA", "Both", "mao")] == pytest.approx(266, rel=0.10)

    def test_ccra_speedup_order_3x(self, table4):
        su = table4[("CCRA", "Both", "mao")] / table4[("CCRA", "Both", "xlnx")]
        assert 2.5 <= su <= 4.5  # paper: 3.78x

    def test_xlnx_ccra_between_hotspot_and_mao(self, table4):
        x = table4[("CCRA", "Both", "xlnx")]
        assert table4[("CCS", "Both", "xlnx")] < x < table4[("CCRA", "Both", "mao")]


# --- Table II: latency shapes ---------------------------------------------------


class TestLatencyShapes:
    def test_single_read_latency_anchor(self):
        """XLNX single CCS read ~72 accel cycles, mean over distances; the
        write acknowledgement (paper: 46.3) comes back sooner."""
        rep = _measure(Pattern.CCS, FabricKind.XLNX, outstanding=1,
                       burst_len=1)
        assert 45 <= rep.read_latency.mean <= 115
        assert 20 <= rep.write_latency.mean <= 60

    def test_mao_single_write_deterministic(self):
        """MAO single write: σ ≈ 0 (paper: 32.0 ± 0.1)."""
        rep = _measure(Pattern.CCS, FabricKind.MAO, outstanding=1,
                       burst_len=1)
        assert rep.write_latency.std < 3.0

    def test_xlnx_burst_congestion_blows_up_latency(self):
        """XLNX CCS burst read latency is far above the MAO's (paper:
        3021 vs 265 cycles; our buffering model yields a ~3x contrast in
        the means and >10x in the variance)."""
        x = _measure(Pattern.CCS, FabricKind.XLNX)
        m = _measure(Pattern.CCS, FabricKind.MAO)
        assert x.read_latency.mean > 2 * m.read_latency.mean
        assert x.read_latency.std > 5 * m.read_latency.std

    def test_mao_lower_variance(self):
        x = _measure(Pattern.CCS, FabricKind.XLNX)
        m = _measure(Pattern.CCS, FabricKind.MAO)
        assert m.read_latency.std < x.read_latency.std


# --- Sec. V: accelerators --------------------------------------------------------


@pytest.fixture(scope="module")
def bandwidths():
    """Both P=32 accelerators' traffic measured on both fabrics."""
    return table5_accelerators.measure_bandwidths(CYCLES)


class TestAcceleratorMeasurements:
    def test_accelerator_a_bandwidths(self, bandwidths):
        """A measures ~12.55 GB/s without and ~403.75 GB/s with MAO."""
        assert bandwidths.a_xlnx_gbps == pytest.approx(12.55, rel=0.08)
        assert bandwidths.a_mao_gbps == pytest.approx(403.75, rel=0.05)

    def test_accelerator_b_bandwidths(self, bandwidths):
        """B measures ~9.59 GB/s without MAO; with MAO the paper reports
        273 GB/s (facc-limited) — our port model yields ~300 (documented
        deviation, same bound classification)."""
        assert bandwidths.b_xlnx_gbps == pytest.approx(9.59, rel=0.10)
        assert 260 <= bandwidths.b_mao_gbps <= 320

    def test_estimates_within_paper_accuracy(self, bandwidths):
        """Sec. V: estimates within ~3-4 % of measured for accelerator A."""
        from repro.accelerators import AcceleratorA
        from repro.accelerators.base import AcceleratorConfig
        from repro.core.estimator import BandwidthEstimator, EstimateInputs
        est = BandwidthEstimator()
        model = AcceleratorA(AcceleratorConfig(p=32))
        for fabric, measured in ((FabricKind.XLNX, bandwidths.a_xlnx_gbps),
                                 (FabricKind.MAO, bandwidths.a_mao_gbps)):
            predicted = est.estimate(EstimateInputs(
                fabric=fabric, pattern=Pattern.CCS,
                rw=model.rw_ratio)).total_gbps
            assert measured == pytest.approx(predicted, rel=0.06)

    def test_table_v_at_measured_bandwidths(self, bandwidths):
        """Table V from the measured bandwidths: A's MAO speedups, and the
        design selection (A tops out at P=8; B's P=32 fits easily)."""
        rows, _ = table5_accelerators.run(bandwidths=bandwidths)

        def row(name, p):
            return next(r for r in rows
                        if r.accelerator.endswith(name) and r.p == p)

        assert row("A", 8).su_mao == pytest.approx(18.4, rel=0.08)
        assert row("A", 32).su_mao == pytest.approx(248.2, rel=0.08)
        assert not row("A", 16).fits_core_mao
        assert row("B", 32).fits_core_mao
        best = best_feasible(rows)
        assert best.accelerator.endswith("A") and best.p == 8

    def test_fig7_bounds_at_measured_bandwidths(self, bandwidths):
        """Fig. 7: without optimized access every configuration is memory
        bound; with the MAO, A is compute bound up to P=16 and memory
        bound at P=32, and B is compute bound at every P."""
        a, b = fig7_roofline.run(bandwidths=bandwidths)
        bounds_a = {p.name: p.bound for p in a.points}
        bounds_b = {p.name: p.bound for p in b.points}
        for p in fig7_roofline.PS:
            assert bounds_a[f"{p} ports (XLNX)"] is Bound.MEMORY
            assert bounds_b[f"{p} ports (XLNX)"] is Bound.MEMORY
            assert bounds_b[f"{p} ports (MAO)"] is Bound.COMPUTE
            assert bounds_a[f"{p} ports (MAO)"] is (
                Bound.MEMORY if p == 32 else Bound.COMPUTE)

    def test_p8_bandwidth_116(self):
        """Paper: the P=8 configuration reaches ~116 GB/s with MAO."""
        from repro.accelerators import AcceleratorA, make_accelerator_sources
        from repro.accelerators.base import AcceleratorConfig
        model = AcceleratorA(AcceleratorConfig(p=8))
        fab = make_fabric(FabricKind.MAO)
        rep = Engine(fab, make_accelerator_sources(model),
                     SimConfig(cycles=CYCLES, warmup=2000)).run()
        assert rep.total_gbps == pytest.approx(116, rel=0.06)
