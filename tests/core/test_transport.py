"""Tests for the transportation simplex, cross-checked against scipy's LP."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.core.transport import solve_transport


def scipy_transport_cost(supply, demand, costs):
    """Reference optimum via scipy's HiGHS LP solver."""
    m, n = costs.shape
    a_eq = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i, :] = 1
        a_eq.append(row.ravel())
    for j in range(n):
        row = np.zeros((m, n))
        row[:, j] = 1
        a_eq.append(row.ravel())
    res = linprog(
        costs.ravel(),
        A_eq=np.asarray(a_eq),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


class TestBasics:
    def test_trivial_1x1(self):
        result = solve_transport(np.array([1.0]), np.array([1.0]), np.array([[3.0]]))
        assert result.cost == pytest.approx(3.0)
        assert result.flow[0, 0] == pytest.approx(1.0)

    def test_identity_matching(self):
        # zero-cost diagonal must route all flow diagonally
        costs = np.ones((3, 3)) - np.eye(3)
        supply = demand = np.full(3, 1 / 3)
        result = solve_transport(supply, demand, costs)
        assert result.cost == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.flow, np.eye(3) / 3)

    def test_flow_conservation(self):
        rng = np.random.default_rng(0)
        supply = rng.random(4)
        demand = rng.random(5)
        demand *= supply.sum() / demand.sum()
        costs = rng.random((4, 5))
        result = solve_transport(supply, demand, costs)
        assert np.allclose(result.flow.sum(axis=1), supply)
        assert np.allclose(result.flow.sum(axis=0), demand)
        assert np.all(result.flow >= 0)

    def test_zero_mass(self):
        result = solve_transport(np.zeros(2), np.zeros(3), np.ones((2, 3)))
        assert result.cost == 0.0

    def test_zero_weight_rows_allowed(self):
        supply = np.array([0.0, 1.0])
        demand = np.array([0.5, 0.5, 0.0])
        costs = np.arange(6, dtype=float).reshape(2, 3)
        result = solve_transport(supply, demand, costs)
        assert result.flow[0].sum() == pytest.approx(0.0)
        assert result.cost == pytest.approx(0.5 * 3 + 0.5 * 4)

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.array([-1.0, 2.0]), np.array([1.0]), np.ones((2, 1)))

    def test_cost_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_transport(np.ones(2), np.ones(2), np.ones((3, 2)))


class TestOptimality:
    @pytest.mark.parametrize("m,n,seed", [
        (2, 2, 1), (3, 4, 2), (5, 5, 3), (7, 3, 4), (10, 10, 5), (1, 8, 6), (8, 1, 7),
    ])
    def test_matches_scipy(self, m, n, seed):
        rng = np.random.default_rng(seed)
        supply = rng.random(m) + 0.01
        demand = rng.random(n) + 0.01
        demand *= supply.sum() / demand.sum()
        costs = rng.random((m, n)) * 10
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10_000),
    )
    def test_property_matches_scipy(self, m, n, seed):
        rng = np.random.default_rng(seed)
        supply = rng.random(m) + 1e-3
        demand = rng.random(n) + 1e-3
        demand *= supply.sum() / demand.sum()
        costs = rng.random((m, n))
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_degenerate_equal_weights(self):
        # Many ties — classic degeneracy stress for the simplex.
        m = n = 6
        supply = demand = np.full(m, 1.0 / m)
        rng = np.random.default_rng(42)
        costs = rng.integers(1, 5, size=(m, n)).astype(float)
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected, rel=1e-8)

    def test_integer_costs_classic_example(self):
        # Known textbook instance.
        supply = np.array([20.0, 30.0, 25.0])
        demand = np.array([10.0, 28.0, 27.0, 10.0])
        costs = np.array(
            [[4.0, 5.0, 6.0, 8.0], [6.0, 4.0, 3.0, 5.0], [5.0, 2.0, 2.0, 8.0]]
        )
        result = solve_transport(supply, demand, costs)
        expected = scipy_transport_cost(supply, demand, costs)
        assert result.cost == pytest.approx(expected)


class TestPivotCap:
    """A solve stopped by the pivot cap with an improving pivot left
    must show up as ``transport.pivot_cap_hits``."""

    # Vogel's start on this problem is one pivot short of optimal.
    COSTS = np.array([[9.0, 8.0, 10.0], [16.0, 16.0, 12.0], [14.0, 19.0, 13.0]])
    SUPPLY = np.array([4.0, 1.0, 5.0])
    DEMAND = np.array([3.0, 6.0, 1.0])

    @staticmethod
    def _cap_hits():
        from repro.observability import metrics

        return metrics.get_registry().value("transport.pivot_cap_hits")

    def test_optimal_solve_does_not_count(self):
        before = self._cap_hits()
        result = solve_transport(self.SUPPLY, self.DEMAND, self.COSTS)
        assert result.iterations == 1
        assert result.cost == pytest.approx(
            scipy_transport_cost(self.SUPPLY, self.DEMAND, self.COSTS)
        )
        assert self._cap_hits() == before

    def test_cap_hit_counts(self, monkeypatch):
        import repro.core.transport as transport

        optimum = scipy_transport_cost(self.SUPPLY, self.DEMAND, self.COSTS)
        monkeypatch.setattr(transport, "_MAX_PIVOTS_FACTOR", 0)
        before = self._cap_hits()
        result = solve_transport(self.SUPPLY, self.DEMAND, self.COSTS)
        assert result.iterations == 0
        assert result.cost > optimum + 1e-9  # the capped flow is suboptimal
        assert self._cap_hits() == before + 1
