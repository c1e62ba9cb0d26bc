"""Reference copy of the set-based transportation simplex (test-only).

The array-based solver in ``repro.core.transport`` must return the same
flow, cost and pivot count as this implementation, bit for bit; see
``test_transport.py``.  Kept verbatim apart from this docstring and an
absolute import of the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.observability import metrics as _metrics

__all__ = ["TransportResult", "solve_transport"]

_MAX_PIVOTS_FACTOR = 50  # pivot cap: factor * (m + n), guards non-termination

# Solves that stopped at the pivot cap while an improving pivot remained,
# i.e. returned a feasible but not provably optimal flow.
_M_PIVOT_CAP_HITS = _metrics.counter("transport.pivot_cap_hits")


@dataclass(frozen=True)
class TransportResult:
    """Optimal flow and cost of a balanced transportation problem."""

    flow: np.ndarray  # (m, n) non-negative flow matrix
    cost: float  # sum(flow * costs)
    iterations: int  # MODI pivots performed


def solve_transport(
    supply: np.ndarray,
    demand: np.ndarray,
    costs: np.ndarray,
    tolerance: float = 1e-12,
) -> TransportResult:
    """Solve ``min sum f_ij c_ij`` s.t. row sums = supply, col sums = demand.

    ``supply`` and ``demand`` must be non-negative and have equal totals
    (within a small relative tolerance; they are rescaled to match
    exactly).  Zero-weight rows/columns are allowed and receive no flow.
    """
    supply = np.asarray(supply, dtype=np.float64).copy()
    demand = np.asarray(demand, dtype=np.float64).copy()
    costs = np.asarray(costs, dtype=np.float64)
    m, n = supply.shape[0], demand.shape[0]
    if costs.shape != (m, n):
        raise ValueError(f"costs must be ({m}, {n}), got {costs.shape}")
    if np.any(supply < 0) or np.any(demand < 0):
        raise ValueError("supply and demand must be non-negative")
    total_s, total_d = float(supply.sum()), float(demand.sum())
    if total_s <= 0.0 or total_d <= 0.0:
        return TransportResult(np.zeros((m, n)), 0.0, 0)
    if abs(total_s - total_d) > 1e-6 * max(total_s, total_d):
        raise ValueError(
            f"unbalanced problem: supply={total_s} demand={total_d}"
        )
    demand *= total_s / total_d  # exact balance for the simplex

    flow, basis = _vogel_initial_solution(supply, demand, costs)
    _ensure_spanning_basis(basis, flow, m, n)

    iterations = 0
    max_pivots = _MAX_PIVOTS_FACTOR * (m + n)
    while iterations < max_pivots:
        u, v = _compute_potentials(basis, costs, m, n)
        entering = _find_entering(costs, u, v, basis, tolerance)
        if entering is None:
            break
        cycle = _find_cycle(basis, entering, m, n)
        _pivot(flow, basis, cycle)
        iterations += 1
    else:
        # The loop ran out of pivots instead of proving optimality: one
        # more pricing pass tells a capped suboptimal answer apart from
        # one that reached the optimum on its last allowed pivot.
        u, v = _compute_potentials(basis, costs, m, n)
        if _find_entering(costs, u, v, basis, tolerance) is not None:
            _M_PIVOT_CAP_HITS.inc()

    return TransportResult(flow, float((flow * costs).sum()), iterations)


def _vogel_initial_solution(
    supply: np.ndarray, demand: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, Set[Tuple[int, int]]]:
    """Vogel's approximation: repeatedly satisfy the row/column with the
    largest penalty (difference between its two cheapest open cells)."""
    m, n = costs.shape
    s = supply.copy()
    d = demand.copy()
    flow = np.zeros((m, n), dtype=np.float64)
    basis: Set[Tuple[int, int]] = set()
    row_open = s > 0
    col_open = d > 0
    # Zero rows/columns never receive flow but still need basis coverage;
    # _ensure_spanning_basis attaches them afterwards.
    work = costs.copy()

    while row_open.any() and col_open.any():
        best_cell: Optional[Tuple[int, int]] = None
        best_penalty = -1.0
        open_cols = np.where(col_open)[0]
        open_rows = np.where(row_open)[0]
        for i in open_rows:
            row = work[i, open_cols]
            penalty, j_local = _penalty_and_argmin(row)
            if penalty > best_penalty:
                best_penalty = penalty
                best_cell = (int(i), int(open_cols[j_local]))
        for j in open_cols:
            col = work[open_rows, j]
            penalty, i_local = _penalty_and_argmin(col)
            if penalty > best_penalty:
                best_penalty = penalty
                best_cell = (int(open_rows[i_local]), int(j))
        assert best_cell is not None
        i, j = best_cell
        amount = min(s[i], d[j])
        flow[i, j] = amount
        basis.add((i, j))
        s[i] -= amount
        d[j] -= amount
        # Close exactly one side on ties to preserve m+n-1 basic cells.
        if s[i] <= 1e-15 and row_open.sum() > 1:
            row_open[i] = False
            s[i] = 0.0
        elif d[j] <= 1e-15:
            col_open[j] = False
            d[j] = 0.0
        else:
            row_open[i] = s[i] > 1e-15
    return flow, basis


def _penalty_and_argmin(values: np.ndarray) -> Tuple[float, int]:
    """Vogel penalty (2nd-smallest minus smallest) and argmin of ``values``."""
    j = int(np.argmin(values))
    if values.shape[0] == 1:
        return float(values[0]), j
    smallest = values[j]
    rest = np.delete(values, j)
    return float(rest.min() - smallest), j


def _ensure_spanning_basis(
    basis: Set[Tuple[int, int]], flow: np.ndarray, m: int, n: int
) -> None:
    """Grow ``basis`` to a spanning tree of the bipartite node graph.

    Degenerate Vogel runs (and zero-weight rows/columns) can leave the
    basis graph disconnected or short of ``m + n - 1`` arcs; we connect
    components through zero-flow basic cells, which is the standard
    epsilon-perturbation treatment.
    """
    parent = list(range(m + n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for (i, j) in basis:
        union(i, m + j)
    for i in range(m):
        for j in range(n):
            if len(basis) >= m + n - 1:
                return
            if (i, j) not in basis and union(i, m + j):
                basis.add((i, j))  # zero-flow basic cell


def _compute_potentials(
    basis: Set[Tuple[int, int]], costs: np.ndarray, m: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``u_i + v_j = c_ij`` over basic cells by tree traversal."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    by_row: List[List[int]] = [[] for _ in range(m)]
    by_col: List[List[int]] = [[] for _ in range(n)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u[0] = 0.0
    stack: List[Tuple[str, int]] = [("row", 0)]
    while stack:
        kind, idx = stack.pop()
        if kind == "row":
            for j in by_row[idx]:
                if np.isnan(v[j]):
                    v[j] = costs[idx, j] - u[idx]
                    stack.append(("col", j))
        else:
            for i in by_col[idx]:
                if np.isnan(u[i]):
                    u[i] = costs[i, idx] - v[idx]
                    stack.append(("row", i))
    # A spanning basis reaches every node; guard against numerical gaps.
    u = np.nan_to_num(u, nan=0.0)
    v = np.nan_to_num(v, nan=0.0)
    return u, v


def _find_entering(
    costs: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    basis: Set[Tuple[int, int]],
    tolerance: float,
) -> Optional[Tuple[int, int]]:
    """Most negative reduced-cost non-basic cell, or None at optimality."""
    reduced = costs - u[:, None] - v[None, :]
    for (i, j) in basis:
        reduced[i, j] = 0.0
    i, j = np.unravel_index(np.argmin(reduced), reduced.shape)
    if reduced[i, j] >= -max(tolerance, 1e-10 * (1.0 + abs(costs).max())):
        return None
    return int(i), int(j)


def _find_cycle(
    basis: Set[Tuple[int, int]], entering: Tuple[int, int], m: int, n: int
) -> List[Tuple[int, int]]:
    """Unique alternating cycle created by adding ``entering`` to the basis tree.

    Returns cells in cycle order starting at ``entering``; even positions
    gain flow, odd positions lose flow.
    """
    # Adjacency over the basis tree (bipartite: rows 0..m-1, cols m..m+n-1)
    adj: List[List[Tuple[int, Tuple[int, int]]]] = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    start, goal = entering[0], m + entering[1]
    # DFS path from entering-row to entering-column through the tree.
    prev: dict = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj[node]:
            if nxt not in prev:
                prev[nxt] = (node, cell)
                stack.append(nxt)
    if goal not in prev:
        raise RuntimeError("basis is not spanning; cannot close pivot cycle")
    path_cells: List[Tuple[int, int]] = []
    node = goal
    while prev[node] is not None:
        parent, cell = prev[node]
        path_cells.append(cell)
        node = parent
    path_cells.reverse()
    return [entering] + path_cells[::-1]


def _pivot(
    flow: np.ndarray, basis: Set[Tuple[int, int]], cycle: List[Tuple[int, int]]
) -> None:
    """Shift flow around the cycle; entering cell gains, leaving cell exits."""
    losing = cycle[1::2]
    theta = min(flow[i, j] for (i, j) in losing)
    leave_idx = min(
        range(len(losing)), key=lambda k: (flow[losing[k]], losing[k])
    )
    for pos, (i, j) in enumerate(cycle):
        if pos % 2 == 0:
            flow[i, j] += theta
        else:
            flow[i, j] -= theta
            if flow[i, j] < 0.0:  # numerical dust
                flow[i, j] = 0.0
    basis.add(cycle[0])
    basis.discard(losing[leave_idx])
