"""Fast checks of the benchmark harness; no workload runs in full.

    python3 -m pytest hbmbench/
"""

import dataclasses
import json
import re
import sys

import pytest

import hbm_bench as hb

sys.path.insert(0, str(hb.SRC))
import workloads as wk  # noqa: E402  (needs src/ on the path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert hb.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_interpolates():
    assert hb.percentile([5, 1, 3, 2, 4], 50) == 3
    assert hb.percentile([1, 2, 3, 4], 50) == 2.5
    assert hb.percentile([1, 2, 3, 4], 100) == 4
    assert hb.percentile([7], 99) == 7


def test_metric_and_workload_names_are_well_formed():
    tables = [hb.WORKLOADS, hb.END_TO_END, hb.PER_LAYER]
    names = [n for t in tables for n in t]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    units = [spec[0] for t in (hb.END_TO_END, hb.PER_LAYER)
             for spec in t.values()]
    assert all(UNIT.fullmatch(u) for u in units), units


def test_benchmark_json_matches_the_harness():
    spec = json.loads((hb.ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == hb.RUN_SECONDS
    assert spec["command"][1:] == ["hbmbench/hbm_bench.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == hb.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == hb.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == hb.PER_LAYER
    assert set(wk.IMPLEMENTATIONS) == set(hb.WORKLOADS)


class _Counting(wk.Workload):
    def op(self, i):
        return 2


def test_untimed_run_emits_every_end_to_end_metric():
    res = wk.timed_run(_Counting(0), wk.HostClock(), seconds=0.01)
    emitted = set(res["metrics"]) | {"setup_s", "peak_rss_mb"}
    assert emitted == set(hb.END_TO_END)
    assert res["metrics"]["latency_p25_ms"] > 0


@pytest.mark.parametrize("filename, func, metric", [
    ("fabric/links.py", "step", "fabric.links.self_s"),
    ("fabric/base.py", "_retry_staged", "fabric.route.self_s"),
    ("core/reorder.py", "push", "fabric.route.self_s"),
    ("dram/bank.py", "access", "dram.pch.self_s"),
    ("sim/vector.py", "run_vector", "sim.engine.self_s"),
    ("experiments/surface.py", "lookup", "harness.self_s"),
    (None, "<method 'poll' of 'select.epoll' objects>", "external.wait_s"),
    (None, "<built-in method builtins.len>", "external.self_s"),
])
def test_profile_entries_map_to_layers(filename, func, metric):
    path = "~" if filename is None else wk._PACKAGE + filename
    assert wk.self_time_metric(path, func) == metric
    assert metric in hb.PER_LAYER


def test_traced_metrics_are_all_declared():
    assert set(wk.profile_metrics({})) <= set(hb.PER_LAYER)
    empty = wk.Counter()
    prof = wk.profile_metrics({})
    assert set(wk.MaoCcra(0).layer_values(empty, prof)) <= set(hb.PER_LAYER)
    res = wk.traced_run(_Counting(0), wk.HostClock())
    assert set(res["metrics"]) == set(hb.PER_LAYER)


def test_planted_report_mismatch_counts_as_failure():
    wl = wk.MaoCcra(0)
    wl.cycles, wl.warmup = 1_500, 500
    wk.run_ops(wl, wk.HostClock(), n_ops=1)
    assert (wl.attempted, wl.failed) == (1, 0)
    wl.check()
    assert (wl.attempted, wl.failed) == (2, 0)
    wl.first_report = dataclasses.replace(
        wl.first_report, issued=wl.first_report.issued + 1)
    wl.check()
    assert (wl.attempted, wl.failed) == (3, 1)


class _WrongSource:
    def sweep(self, **params):
        return {"source": "store", "latency_ms": 0.1}


def test_wrong_response_source_counts_as_failure(capsys):
    wl = wk.SweepCold(0)
    wl.client = _WrongSource()
    ops = wk.run_ops(wl, wk.HostClock(), n_ops=2)
    assert [o.ok for o in ops] == [False, False]
    assert (wl.attempted, wl.failed) == (2, 2)


def test_cold_requests_never_repeat():
    wl = wk.SweepCold(7)
    reqs = [json.dumps(wl.request(i)[0], sort_keys=True) for i in range(240)]
    warm = [json.dumps(wl.warmup_request(j)[0], sort_keys=True)
            for j in range(wl.warmup_requests)]
    assert len(set(reqs + warm)) == len(reqs) + len(warm)


def test_missing_program_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(hb, "SRC", tmp_path)
    assert hb.main(["--workload", "mao-ccra"]) != 0
    assert capsys.readouterr().out == ""
