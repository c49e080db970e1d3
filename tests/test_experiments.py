"""Smoke tests: every experiment runs and produces well-formed output.

These use reduced sweeps / short horizons; the quantitative paper-claim
assertions live in ``test_paper_claims.py``.  The extension studies and
the MAO ablations, which have no paper values, are gated here on their
shapes.
"""

import pytest

from repro.core.mao import MaoConfig
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments import (fig2_rw_ratio, fig3_burst_length,
                               fig4_rotation, fig5_stride, fig6_reorder,
                               fig7_roofline, table2_latency,
                               table3_resources, table4_throughput,
                               table5_accelerators)
from repro.errors import ConfigError
from repro.fabric import MaoFabric
from repro.params import DEFAULT_PLATFORM
from repro.sim import Engine, SimConfig
from repro.traffic import make_pattern_sources, make_rotation_sources
from repro.types import Pattern, RWRatio

FAST = 3_000


class TestRegistry:
    def test_all_ten_artifacts_registered(self):
        assert set(EXPERIMENTS) >= {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "table2", "table3", "table4", "table5"}

    def test_extension_studies_registered(self):
        assert "extensions" in EXPERIMENTS

    def test_get_experiment(self):
        assert get_experiment("fig4").key == "fig4"
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_every_spec_has_reference(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_reference


class TestFig2:
    def test_runs_and_formats(self):
        rows = fig2_rw_ratio.run(cycles=FAST,
                                 ratios=(RWRatio(1, 0), RWRatio(2, 1)))
        assert len(rows) == 2
        text = fig2_rw_ratio.format_table(rows)
        assert "Fig. 2" in text

    def test_mixed_beats_unidirectional(self):
        rows = fig2_rw_ratio.run(cycles=FAST,
                                 ratios=(RWRatio(1, 0), RWRatio(2, 1)))
        assert rows[1].total_gbps > rows[0].total_gbps


class TestFig3:
    def test_restricted_sweep(self):
        rows = fig3_burst_length.run(cycles=FAST, patterns=(Pattern.SCS,),
                                     burst_lengths=(1, 16))
        assert len(rows) == 6  # 1 pattern x 3 dirs x 2 BLs
        text = fig3_burst_length.format_table(rows)
        assert "SCS" in text

    def test_series_helper(self):
        rows = fig3_burst_length.run(cycles=FAST, patterns=(Pattern.SCS,),
                                     burst_lengths=(1, 16))
        s = fig3_burst_length.series(rows, Pattern.SCS, "Both")
        assert set(s) == {1, 16}


class TestFig4:
    def test_runs(self):
        rows = fig4_rotation.run(cycles=FAST, offsets=(0, 2))
        assert rows[0].relative_to_rot0 == pytest.approx(1.0)
        assert rows[1].relative_to_rot0 < 1.0
        assert "rotation" in fig4_rotation.format_table(rows)

    def test_flow_model_attached(self):
        rows = fig4_rotation.run(cycles=FAST, offsets=(0,))
        assert rows[0].flow_model_gbps > 0


class TestFig5:
    def test_runs(self):
        rows = fig5_stride.run(cycles=FAST, strides=(16 * 1024, 1024 * 1024))
        assert rows[0].total_gbps > rows[1].total_gbps
        assert "stride" in fig5_stride.format_table(rows)


class TestFig6:
    def test_runs(self):
        rows = fig6_reorder.run(cycles=FAST, depths=(1, 16))
        assert rows[1].total_gbps > rows[0].total_gbps
        assert "reorder" in fig6_reorder.format_table(rows)


class TestTable2:
    def test_runs(self):
        rows = table2_latency.run(cycles=FAST)
        assert len(rows) == 8  # 2 setups x 2 fabrics x 2 patterns
        text = table2_latency.format_table(rows)
        assert "Table II" in text

    def test_find(self):
        rows = table2_latency.run(cycles=FAST)
        r = table2_latency.find(rows, "Single", "xlnx", Pattern.CCS)
        assert r.read.count > 0


class TestTable3:
    def test_no_simulation_needed(self):
        rows = table3_resources.run()
        assert len(rows) == 4
        assert "Table III" in table3_resources.format_table(rows)

    def test_matches_paper_exactly(self):
        for row in table3_resources.run():
            ref = table3_resources.PAPER_REFERENCE[(row.variant, row.stages)]
            assert row.luts == ref["luts"]
            assert row.ffs == ref["ffs"]
            assert row.bram == ref["bram"]
            assert row.fmax_mhz == ref["fmax"]
            assert row.read_latency == ref["rd"]
            assert row.write_latency == ref["wr"]


class TestTable4:
    def test_runs(self):
        rows = table4_throughput.run(cycles=FAST)
        assert len(rows) == 6
        both = table4_throughput.find(rows, Pattern.CCS, "Both")
        assert both.speedup > 10
        assert "Table IV" in table4_throughput.format_table(rows)


class TestTable5:
    def test_runs(self):
        rows, bw = table5_accelerators.run(cycles=FAST)
        assert len(rows) == 8
        assert bw.a_mao_gbps > bw.a_xlnx_gbps
        text = table5_accelerators.format_table((rows, bw))
        assert "Table V" in text

    def test_second_measurement_is_a_store_hit(self, tmp_path, monkeypatch,
                                               engine_runs):
        """fig7 and table5 both measure the four accelerator points, so
        ``repro-hbm all`` asks for them twice; the second ask must come
        from the result store, not from four more simulations."""
        from repro.experiments import _common
        from repro.sim.cache import SimCache

        monkeypatch.setattr(_common, "DEFAULT_CACHE",
                            SimCache(directory=str(tmp_path)))
        first = table5_accelerators.measure_bandwidths(cycles=1000)
        assert len(engine_runs) == 4
        assert table5_accelerators.measure_bandwidths(cycles=1000) == first
        assert len(engine_runs) == 4

    def test_estimates_available(self):
        bw = table5_accelerators.estimate_bandwidths()
        assert bw.a_xlnx_gbps == pytest.approx(13.0, rel=0.05)
        assert bw.a_mao_gbps == pytest.approx(416, rel=0.05)


class TestFig7:
    def test_runs_with_given_bandwidths(self):
        bw = table5_accelerators.MeasuredBandwidths(12.55, 403.75, 9.59, 273.0)
        results = fig7_roofline.run(cycles=FAST, bandwidths=bw)
        assert len(results) == 2
        text = fig7_roofline.format_table(results)
        assert "Roofline" in text
        for res in results:
            assert len(res.points) == 8  # 4 Ps x 2 fabrics

    def test_paper_bound_classification(self):
        """A is compute bound with MAO up to P=16, memory bound at P=32;
        B is memory bound without MAO and compute bound with it."""
        bw = table5_accelerators.MeasuredBandwidths(12.55, 403.75, 9.59, 273.0)
        a, b = fig7_roofline.run(cycles=FAST, bandwidths=bw)
        bounds_a = {p.name: p.bound.value for p in a.points}
        assert bounds_a["8 ports (MAO)"] == "compute"
        assert bounds_a["32 ports (MAO)"] == "memory"
        assert bounds_a["8 ports (XLNX)"] == "memory"
        bounds_b = {p.name: p.bound.value for p in b.points}
        assert bounds_b["32 ports (XLNX)"] == "memory"
        assert bounds_b["8 ports (MAO)"] == "compute"


class TestRunnerCli:
    def test_list(self, capsys):
        from repro.experiments.runner import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table5" in out

    def test_run_table3(self, capsys):
        from repro.experiments.runner import main
        assert main(["run", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_run_with_cycles_and_out(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out_file = tmp_path / "fig4.txt"
        assert main(["run", "fig4", "--cycles", "2000",
                     "--out", str(out_file)]) == 0
        assert "rotation" in out_file.read_text()

    def test_estimate_subcommand(self, capsys):
        from repro.experiments.runner import main
        assert main(["estimate", "--pattern", "CCS", "--fabric", "mao",
                     "--rw", "2:1"]) == 0
        out = capsys.readouterr().out
        assert "estimated bandwidth" in out
        assert "GB/s" in out

    def test_estimate_hotspot(self, capsys):
        from repro.experiments.runner import main
        assert main(["estimate", "--pattern", "CCS", "--fabric", "xlnx",
                     "--rw", "1:0"]) == 0
        out = capsys.readouterr().out
        assert "9.6" in out  # the unidirectional hot-spot ceiling

    def test_advise_subcommand(self, capsys):
        from repro.experiments.runner import main
        assert main(["advise", "--pattern", "CCRA", "--fabric", "xlnx",
                     "--outstanding", "2", "--burst", "1"]) == 0
        out = capsys.readouterr().out
        assert "CRITICAL" in out

    def test_bad_rw_ratio_rejected(self):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["estimate", "--rw", "banana"])


class TestExtensions:
    def test_registered(self):
        assert "extensions" in EXPERIMENTS

    def test_lateral_bus_sweep_monotone(self):
        """More lateral buses soften the rotation-8 collapse."""
        from repro.experiments.extensions import lateral_bus_sweep
        rows = lateral_bus_sweep(cycles=FAST, counts=(1, 2, 4))
        gbps = {r.buses_per_direction: r.rotation8_gbps for r in rows}
        assert gbps[1] < gbps[2]
        assert gbps[4] > 1.5 * gbps[2]

    def test_stack_scaling_doubles(self):
        from repro.experiments.extensions import stack_scaling
        rows = stack_scaling(cycles=FAST, stacks=(1, 2, 4))
        gbps = {r.stacks: r.measured_gbps for r in rows}
        assert gbps[2] == pytest.approx(2 * gbps[1], rel=0.08)
        assert gbps[4] == pytest.approx(2 * gbps[2], rel=0.08)

    def test_granularity_sweep_degrades_when_coarse(self):
        from repro.experiments.extensions import granularity_sweep
        rows = granularity_sweep(cycles=FAST,
                                 granularities=(512, 1 << 20))
        assert rows[0].ccs_gbps > 20 * rows[1].ccs_gbps
        assert rows[1].active_channels <= 2

    def test_clock_sweep_compensation(self):
        from repro.experiments.extensions import clock_sweep
        from repro.types import RWRatio
        rows = clock_sweep(cycles=FAST, points=(
            (300, RWRatio(1, 0)), (300, RWRatio(2, 1)),
            (450, RWRatio(1, 0))))
        by = {(r.accel_mhz, str(r.rw)): r.scs_gbps for r in rows}
        # 2:1 at 300 MHz recovers the 450 MHz unidirectional bandwidth
        # within a few percent (Sec. IV-A).
        assert by[(300, "2:1")] == pytest.approx(by[(450, "1:0")], rel=0.05)
        assert by[(300, "1:0")] < 0.8 * by[(300, "2:1")]

    def test_per_bank_refresh_recovers_loss(self):
        """Per-bank refresh recovers most of the all-bank refresh loss."""
        from repro.experiments.extensions import refresh_policy
        gbps = {r.policy: r.ccs_gbps for r in refresh_policy(cycles=FAST)}
        assert gbps["per-bank"] > 1.05 * gbps["all-bank"]

    def test_format_table(self):
        from repro.experiments.extensions import run, format_table
        text = format_table(run(cycles=2000))
        assert "Lateral buses" in text and "stack" in text


def _mao_gbps(config, sources):
    """Throughput of the default platform's MAO built with ``config``."""
    fabric = MaoFabric(DEFAULT_PLATFORM, config=config)
    cfg = SimConfig(cycles=FAST, warmup=FAST // 4)
    return Engine(fabric, sources, cfg).run().total_gbps


class TestMaoAblations:
    """Each of the MAO's mechanisms (Sec. IV-B) switched off alone."""

    def test_interleaving(self):
        """Without interleaving contiguous data hot-spots one channel: the
        network alone is worth nothing for it."""
        gbps = {on: _mao_gbps(MaoConfig(interleave_enabled=on),
                              make_pattern_sources(Pattern.CCS,
                                                   DEFAULT_PLATFORM))
                for on in (True, False)}
        assert gbps[True] > 20 * gbps[False]
        assert gbps[False] < 15.0

    def test_reorder_depth(self):
        """Reorder buffers: 32 independent AXI IDs against one on CCRA."""
        gbps = {depth: _mao_gbps(MaoConfig(reorder_depth=depth),
                                 make_pattern_sources(Pattern.CCRA,
                                                      DEFAULT_PLATFORM,
                                                      seed=3))
                for depth in (1, 32)}
        assert gbps[32] > 1.25 * gbps[1]

    def test_hierarchical_network_at_rotation_8(self):
        """Rotation 8 gives every PCH one master, so any loss is the
        interconnect's: the vendor's lateral buses keep 12.5 % of the
        device (``test_paper_claims``).  Rotation sources address
        contiguously, so with interleaving off the MAO keeps that
        assignment, and its hierarchical network restores the
        throughput."""
        gbps = _mao_gbps(MaoConfig(interleave_enabled=False),
                         make_rotation_sources(8, DEFAULT_PLATFORM))
        assert gbps > 0.80 * 460.8


class TestReport:
    def test_report_single_artifact(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out = tmp_path / "report.md"
        assert main(["report", "table3", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# Regenerated results" in text
        assert "MAO implementation results" in text
        assert "```text" in text

    def test_report_rejects_unknown_key(self):
        from repro.experiments.report import generate_report
        with pytest.raises(ConfigError):
            generate_report(["nope"])

    def test_generate_report_api(self):
        from repro.experiments.report import generate_report
        text = generate_report(["table3"])
        assert "285,327" in text
