"""Tests for the analytical max-min flow model."""

import pytest

from repro.fabric.flow import (Flow, max_min_throughput, rotation_flows,
                               rotation_throughput_gbps)
from repro.params import DEFAULT_PLATFORM


class TestMaxMin:
    def test_single_flow_meets_demand(self):
        flows = [Flow("a", demand=5.0, usage={"r": 1.0})]
        rates = max_min_throughput(flows, {"r": 10.0})
        assert rates["a"] == pytest.approx(5.0)

    def test_two_flows_share_fairly(self):
        flows = [Flow("a", 10.0, {"r": 1.0}), Flow("b", 10.0, {"r": 1.0})]
        rates = max_min_throughput(flows, {"r": 10.0})
        assert rates["a"] == rates["b"] == pytest.approx(5.0)

    def test_unequal_demands_water_fill(self):
        flows = [Flow("small", 2.0, {"r": 1.0}), Flow("big", 100.0, {"r": 1.0})]
        rates = max_min_throughput(flows, {"r": 10.0})
        assert rates["small"] == pytest.approx(2.0)
        assert rates["big"] == pytest.approx(8.0)

    def test_coefficients(self):
        """A flow using only a third of a resource per unit rate."""
        flows = [Flow("a", 100.0, {"r": 1 / 3})]
        rates = max_min_throughput(flows, {"r": 10.0})
        assert rates["a"] == pytest.approx(30.0)

    def test_multi_resource_bottleneck(self):
        flows = [Flow("a", 100.0, {"x": 1.0, "y": 1.0})]
        rates = max_min_throughput(flows, {"x": 5.0, "y": 3.0})
        assert rates["a"] == pytest.approx(3.0)

    def test_disjoint_flows_independent(self):
        flows = [Flow("a", 10.0, {"x": 1.0}), Flow("b", 10.0, {"y": 1.0})]
        rates = max_min_throughput(flows, {"x": 4.0, "y": 6.0})
        assert rates["a"] == pytest.approx(4.0)
        assert rates["b"] == pytest.approx(6.0)


class TestRotationModel:
    def test_rot0_full_throughput(self):
        assert rotation_throughput_gbps(0) == pytest.approx(32 * 13.0)

    def test_rot1_still_ideal(self):
        """Paper: with an offset of one, performance was still ideal."""
        assert rotation_throughput_gbps(1) == pytest.approx(32 * 13.0)

    def test_rot2_paper_arithmetic(self):
        """Two masters per switch share one lateral bus: (2x13 + 2x7.2)
        per switch -> 77.7 % of full (the paper measures 74.9 %)."""
        total = rotation_throughput_gbps(2)
        expected = 8 * (2 * 13.0 + 2 * 7.2)
        assert total == pytest.approx(expected)

    def test_rot4_half(self):
        """Four masters over two buses -> every lateral flow gets 7.2."""
        total = rotation_throughput_gbps(4)
        assert total == pytest.approx(32 * 7.2)

    def test_monotone_decreasing(self):
        values = [rotation_throughput_gbps(i) for i in range(9)]
        for a, b in zip(values[1:], values[2:]):
            assert b <= a + 1e-6

    def test_rot8_within_shared_bus_regime(self):
        """Multi-hop + wraparound flows: well below half throughput (the
        cycle sim adds HoL blocking on top, reaching the paper's 12.5 %)."""
        total = rotation_throughput_gbps(8)
        assert 0 < total < 0.30 * 460.8

    def test_flow_construction(self):
        flows, caps = rotation_flows(2)
        assert len(flows) == 32
        # Each flow touches its PCH plus lateral buses.
        lateral_users = [f for f in flows if len(f.usage) > 1]
        assert len(lateral_users) == 16  # two per switch at offset 2


from hypothesis import given, settings, strategies as st


@st.composite
def _flow_problems(draw):
    n_resources = draw(st.integers(min_value=1, max_value=5))
    resources = {f"r{i}": draw(st.floats(min_value=0.5, max_value=100))
                 for i in range(n_resources)}
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for i in range(n_flows):
        usage_keys = draw(st.lists(st.sampled_from(sorted(resources)),
                                   min_size=1, max_size=n_resources,
                                   unique=True))
        usage = {k: draw(st.floats(min_value=0.1, max_value=2.0))
                 for k in usage_keys}
        demand = draw(st.floats(min_value=0.1, max_value=200))
        flows.append(Flow(f"f{i}", demand, usage))
    return flows, resources


class TestMaxMinProperties:
    @given(_flow_problems())
    @settings(max_examples=150, deadline=None)
    def test_feasibility_and_demand(self, problem):
        """Allocations never exceed demands or resource capacities."""
        flows, caps = problem
        rates = max_min_throughput(flows, caps)
        for f in flows:
            assert 0 <= rates[f.name] <= f.demand + 1e-9
        for res, cap in caps.items():
            load = sum(f.usage.get(res, 0.0) * rates[f.name] for f in flows)
            assert load <= cap + 1e-6

    @given(_flow_problems())
    @settings(max_examples=150, deadline=None)
    def test_pareto_saturation(self, problem):
        """Every flow is blocked by its demand or a saturated resource —
        no allocation can be raised unilaterally (Pareto efficiency)."""
        flows, caps = problem
        rates = max_min_throughput(flows, caps)
        loads = {res: sum(f.usage.get(res, 0.0) * rates[f.name]
                          for f in flows) for res in caps}
        for f in flows:
            at_demand = rates[f.name] >= f.demand - 1e-6
            blocked = any(loads[res] >= caps[res] - 1e-6 for res in f.usage)
            assert at_demand or blocked

    @given(_flow_problems())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, problem):
        """Flows with identical demand and usage get identical rates."""
        flows, caps = problem
        twin_a = Flow("twin_a", flows[0].demand, dict(flows[0].usage))
        twin_b = Flow("twin_b", flows[0].demand, dict(flows[0].usage))
        rates = max_min_throughput(list(flows) + [twin_a, twin_b], caps)
        assert rates["twin_a"] == pytest.approx(rates["twin_b"], rel=1e-6)
