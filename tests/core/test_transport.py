"""Tests for the transportation simplex, cross-checked against scipy's LP
and, bit for bit, against the set-based reference solver it replaced."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.core import transport
from repro.core.transport import solve_transport

_spec = importlib.util.spec_from_file_location(
    "transport_reference", Path(__file__).with_name("transport_reference.py")
)
reference = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reference  # dataclasses resolve the module by name
_spec.loader.exec_module(reference)


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
        st.integers(1, 14),
        st.integers(1, 14),
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


@st.composite
def transport_problems(draw):
    """Balanced problems up to 14x14: random real weights and costs,
    equal weights with small integer costs (heavy Vogel and pivot ties),
    or small integer weights with zero-weight rows and columns."""
    m, n = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["random", "equal", "zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        supply, demand = rng.random(m) + 1e-3, rng.random(n) + 1e-3
        costs = rng.random((m, n))
    elif kind == "equal":
        supply, demand = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        costs = rng.integers(0, 4, size=(m, n)).astype(float)
    else:
        supply = rng.integers(0, 3, size=m).astype(float)
        demand = rng.integers(0, 3, size=n).astype(float)
        supply[rng.integers(m)] += 1.0  # keep both totals positive
        demand[rng.integers(n)] += 1.0
        costs = rng.integers(0, 5, size=(m, n)).astype(float)
    return supply, demand * (supply.sum() / demand.sum()), costs


def assert_same_as_reference(supply, demand, costs):
    expected = reference.solve_transport(supply, demand, costs)
    got = solve_transport(supply, demand, costs)
    assert np.array_equal(got.flow, expected.flow)
    assert got.cost == expected.cost
    assert got.iterations == expected.iterations
    return expected


class TestMatchesReference:
    """Flow, cost and pivot count equal the set-based solver's exactly."""

    @settings(max_examples=200, deadline=None)
    @given(transport_problems())
    def test_property_bit_identical(self, problem):
        assert_same_as_reference(*problem)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 9), (9, 1), (1, 14), (14, 1)])
    def test_single_row_or_column(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        supply, demand = rng.random(m) + 0.1, rng.random(n) + 0.1
        demand *= supply.sum() / demand.sum()
        assert_same_as_reference(supply, demand, rng.random((m, n)))

    # Instances on which the reference pivots, so the cycle search and
    # the pivot itself are compared and not only Vogel's start.
    PIVOTING = {
        "textbook": (
            [4, 1, 5], [3, 6, 1], [[9, 8, 10], [16, 16, 12], [14, 19, 13]],
        ),
        "integer": (
            [5, 2, 5, 3], [2, 2, 3, 3, 5],
            [[0, 2, 0, 5, 3], [0, 4, 1, 7, 6], [5, 2, 4, 8, 6], [5, 8, 0, 6, 2]],
        ),
        "equal_weights": (
            [1] * 5, [1] * 5,
            [[8, 5, 1, 1, 3], [4, 6, 4, 6, 0], [6, 0, 8, 2, 1],
             [5, 8, 4, 3, 7], [8, 9, 8, 1, 1]],
        ),
        "zero_weight_lines": (
            [1, 3, 0, 5, 0], [0, 0, 5, 3, 1],
            [[4, 7, 2, 1, 5], [6, 2, 6, 4, 7], [4, 5, 5, 4, 2],
             [0, 0, 2, 4, 4], [1, 1, 5, 8, 1]],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PIVOTING))
    def test_pinned_pivoting_instances(self, name):
        supply, demand, costs = (np.array(x, dtype=float) for x in self.PIVOTING[name])
        assert assert_same_as_reference(supply, demand, costs).iterations > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_random_14x14(self, seed):
        rng = np.random.default_rng(seed)
        supply, demand = rng.random(14) + 1e-3, rng.random(14) + 1e-3
        demand *= supply.sum() / demand.sum()
        result = assert_same_as_reference(supply, demand, rng.random((14, 14)))
        assert result.iterations > 0


class TestBasisTree:
    def test_spanning_basis_potentials(self):
        costs = np.array([[1.0, 4.0], [2.0, 7.0]])
        basis = np.array([[True, True], [True, False]])
        potentials, parent, _ = transport._basis_tree(basis, costs)
        # u0 = 0, v0 = 1, v1 = 4, u1 = 2 - v0 = 1
        assert potentials == [0.0, 1.0, 1.0, 4.0]
        assert parent[0] == -1

    @pytest.mark.parametrize("cells", [
        [(0, 0), (1, 1)],  # two components, one cell short
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)],  # m+n-1 cells with a cycle
    ])
    def test_disconnected_basis_raises(self, cells):
        size = max(max(cell) for cell in cells) + 1
        basis = np.zeros((size, size), dtype=bool)
        for cell in cells:
            basis[cell] = True
        with pytest.raises(RuntimeError, match="not spanning"):
            transport._basis_tree(basis, np.ones((size, size)))
