"""Transportation-problem solver used by the Earth Mover's Distance.

EMD between two weighted sets of feature vectors (section 4.2.2) is the
classical balanced transportation problem: move supply ``w(X_i)`` to
demand ``w(Y_j)`` at unit cost ``d(X_i, Y_j)`` minimizing total work.

Objects in Ferret have few segments (1-11 in the paper's datasets), so a
dense transportation simplex over index arrays is the right tool:

* Vogel's approximation builds the initial basic feasible solution.
  Each row and column is sorted once; two pointers per line track its
  two cheapest open cells, so a line is repriced only when one of them
  closes.  Ties go to rows before columns, then to the lowest index.
* The basis is a boolean ``(m, n)`` mask of exactly ``m + n - 1`` cells
  that span the rows and columns as a tree (zero-flow cells stay basic,
  which handles degeneracy).  One walk of the tree from row 0 gives the
  MODI potentials ``u_i + v_j = c_ij`` and parent pointers; pricing
  masks the basic cells, and the pivot cycle is the tree path between
  the entering cell's row and column, climbed through parent pointers.

Each potential is fixed by its unique tree path, so flows, costs and
pivot counts do not depend on traversal order; they match the earlier
set-based solver bit for bit (``tests/core/test_transport.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..observability import metrics as _metrics

__all__ = ["TransportResult", "solve_transport"]

_MAX_PIVOTS_FACTOR = 50  # pivot cap: factor * (m + n), guards non-termination

# Solves that stopped at the pivot cap while an improving pivot remained,
# i.e. returned a feasible but not provably optimal flow.
_M_PIVOT_CAP_HITS = _metrics.counter("transport.pivot_cap_hits")

Cell = Tuple[int, int]
# Basis tree over nodes 0..m-1 (rows) and m..m+n-1 (columns), rooted at
# row 0: per node its potential (u, then v), parent node and depth.
Tree = Tuple[List[float], List[int], List[int]]


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
    _ensure_spanning_basis(basis)

    iterations = 0
    max_pivots = _MAX_PIVOTS_FACTOR * (m + n)
    while iterations < max_pivots:
        tree = _basis_tree(basis, costs)
        entering = _find_entering(costs, tree, basis, tolerance)
        if entering is None:
            break
        _pivot(flow, basis, _find_cycle(tree, entering, m))
        iterations += 1
    else:
        # The loop ran out of pivots instead of proving optimality: one
        # more pricing pass tells a capped suboptimal answer apart from
        # one that reached the optimum on its last allowed pivot.
        tree = _basis_tree(basis, costs)
        if _find_entering(costs, tree, basis, tolerance) is not None:
            _M_PIVOT_CAP_HITS.inc()

    return TransportResult(flow, float((flow * costs).sum()), iterations)


def _vogel_initial_solution(
    supply: np.ndarray, demand: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vogel's approximation: repeatedly satisfy the row/column with the
    largest penalty (difference between its two cheapest open cells).

    Lines are rows ``0..m-1`` then columns ``m..m+n-1``.  ``order[k]``
    lists line ``k``'s crossing lines cheapest first (stable on ties),
    and ``first``/``second`` index its two cheapest open ones.
    """
    m, n = costs.shape
    left = supply.tolist() + demand.tolist()  # residual supply, then demand
    # Zero rows/columns never open; _ensure_spanning_basis attaches them.
    is_open = [x > 0 for x in left]
    by_row = np.argsort(costs, axis=1, kind="stable")
    by_col = np.argsort(costs, axis=0, kind="stable")
    order = (by_row + m).tolist() + by_col.T.tolist()
    ranked = (
        np.take_along_axis(costs, by_row, 1).tolist()
        + np.take_along_axis(costs, by_col, 0).T.tolist()
    )
    first, second, penalty = [0] * (m + n), [0] * (m + n), [-np.inf] * (m + n)

    def advance(k: int) -> None:
        """Move ``second[k]`` to the next open crossing line; reprice ``k``."""
        line, c = order[k], ranked[k]
        q = second[k] + 1
        while q < len(line) and not is_open[line[q]]:
            q += 1
        second[k] = q
        penalty[k] = c[q] - c[first[k]] if q < len(line) else c[first[k]]

    for k in range(m + n):
        if is_open[k]:
            first[k] = second[k] = [is_open[x] for x in order[k]].index(True)
            advance(k)

    open_rows, open_cols = sum(is_open[:m]), sum(is_open[m:])
    flow = np.zeros((m, n), dtype=np.float64)
    basis = np.zeros((m, n), dtype=bool)
    while open_rows and open_cols:
        k = penalty.index(max(penalty))  # first line with the top penalty
        x = order[k][first[k]]
        i, j = (k, x) if k < m else (x, k)  # j is a column line
        amount = min(left[i], left[j])
        flow[i, j - m] = amount
        basis[i, j - m] = True
        left[i] -= amount
        left[j] -= amount
        # Close exactly one side on ties to preserve m+n-1 basic cells;
        # the last open row stays open on a tie so the column closes.
        if left[i] <= 1e-15 and open_rows > 1 or left[j] > 1e-15:
            closed, crossing, open_rows = i, range(m, m + n), open_rows - 1
        else:
            closed, crossing, open_cols = j, range(m), open_cols - 1
        is_open[closed] = False
        penalty[closed] = -np.inf
        if not (open_rows and open_cols):
            break
        for k in crossing:
            if is_open[k]:
                line = order[k]
                if line[first[k]] == closed:
                    first[k] = second[k]
                    advance(k)
                elif second[k] < len(line) and line[second[k]] == closed:
                    advance(k)
    return flow, basis


def _ensure_spanning_basis(basis: np.ndarray) -> None:
    """Grow ``basis`` to a spanning tree of the bipartite node graph.

    Vogel's cells form a forest, so ``m + n - 1`` of them span; with fewer
    (degeneracy, zero-weight lines) we join components through zero-flow
    cells in row-major order, the standard epsilon-perturbation treatment.
    """
    m, n = basis.shape
    rows, cols = np.nonzero(basis)
    missing = m + n - 1 - rows.size
    if missing <= 0:
        return
    parent = list(range(m + n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(rows.tolist(), cols.tolist()):
        parent[find(i)] = find(m + j)
    for i in range(m):
        for j in range(n):
            ri, rj = find(i), find(m + j)
            if ri != rj:
                parent[ri] = rj
                basis[i, j] = True  # zero-flow basic cell
                missing -= 1
                if not missing:
                    return


def _basis_tree(basis: np.ndarray, costs: np.ndarray) -> Tree:
    """Walk the basis from row 0: potentials with ``u_0 = 0`` and
    ``u_i + v_j = c_ij`` on basic cells, parent pointers and depths.

    Raises ``RuntimeError`` unless the walk reaches every row and column:
    a basis that does not span has no unique potentials.
    """
    m, n = basis.shape
    adj: List[List[int]] = [[] for _ in range(m + n)]
    rows, cols = np.nonzero(basis)
    for i, j in zip(rows.tolist(), (cols + m).tolist()):
        adj[i].append(j)
        adj[j].append(i)
    c = costs.tolist()
    pot, parent, depth = [0.0] * (m + n), [-1] * (m + n), [0] * (m + n)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b and parent[b] < 0:  # unvisited; the root keeps -1
                parent[b], depth[b] = a, depth[a] + 1
                pot[b] = (c[a][b - m] if a < m else c[b][a - m]) - pot[a]
                stack.append(b)
    if parent.count(-1) > 1:
        raise RuntimeError("basis is not spanning; cannot compute potentials")
    return pot, parent, depth


def _find_entering(
    costs: np.ndarray, tree: Tree, basis: np.ndarray, tolerance: float
) -> Optional[Cell]:
    """Most negative reduced-cost non-basic cell, or None at optimality."""
    m, n = costs.shape
    pot = np.array(tree[0])
    reduced = costs - pot[:m, None] - pot[None, m:]
    reduced[basis] = 0.0
    k = int(np.argmin(reduced))
    if reduced.flat[k] >= -max(tolerance, 1e-10 * (1.0 + abs(costs).max())):
        return None
    return divmod(k, n)


def _find_cycle(tree: Tree, entering: Cell, m: int) -> List[Cell]:
    """Unique alternating cycle created by adding ``entering`` to the basis tree.

    Returns ``entering``, then the tree path from its column back to its
    row; even positions gain flow, odd positions lose flow.
    """
    _, parent, depth = tree

    def edge(node: int) -> Cell:  # the basic cell joining node to its parent
        up = parent[node]
        return (node, up - m) if node < m else (up, node - m)

    a, b = entering[0], m + entering[1]
    # Tree paths from the row and from the column up to where they meet.
    from_row: List[Cell] = []
    from_col: List[Cell] = []
    while a != b:  # climb the deeper side first
        if depth[a] >= depth[b]:
            from_row.append(edge(a))
            a = parent[a]
        else:
            from_col.append(edge(b))
            b = parent[b]
    return [entering] + from_col + from_row[::-1]


def _pivot(flow: np.ndarray, basis: np.ndarray, cycle: List[Cell]) -> None:
    """Shift flow around the cycle; entering cell gains, leaving cell exits."""
    losing = cycle[1::2]
    leaving = min(losing, key=lambda cell: (flow[cell], cell))
    theta = flow[leaving]
    for cell in cycle[::2]:
        flow[cell] += theta
    for cell in losing:
        flow[cell] = max(flow[cell] - theta, 0.0)  # clamp numerical dust
    basis[cycle[0]] = True
    basis[leaving] = False
