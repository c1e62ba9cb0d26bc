"""Earth Mover's Distance — the toolkit's default object distance function.

Section 4.2.2: given objects ``X`` (m segments) and ``Y`` (n segments)
with normalized weights, ``EMD(X, Y) = min sum f_ij d(X_i, Y_j)`` subject
to the transportation constraints.  Because weights are normalized to sum
to one, the problem is balanced and the EMD equals the total flow cost.

The paper's image system uses an *improved* EMD from Lv/Charikar/Li
(CIKM'04): segment distances are thresholded before the EMD computation
(limiting the influence of outlier segments), and segment weights may be
transformed by a square-root function before normalization.  Both appear
here as :class:`EMDParams` knobs so downstream users can ablate them.

Beyond the pairwise :func:`emd`, this module carries the batched ranking
machinery: :func:`emd_to_many` evaluates one query against many
candidates from a single packed cost computation, and
:func:`emd_lower_bound_centroid` / :func:`emd_lower_bound_rowcol` give
cheap provable lower bounds on the (improved) EMD that the ranking
cascade uses to skip most transportation solves entirely (see
docs/PERFORMANCE.md, "Ranking cascade").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .transport import solve_transport
from .types import ObjectSignature, normalize_weights

__all__ = [
    "EMDParams",
    "NonFiniteDistanceError",
    "emd",
    "emd_to_many",
    "emd_lower_bound_centroid",
    "emd_lower_bound_rowcol",
    "pairwise_segment_distances",
    "EMDDistance",
]

GroundDistanceMatrix = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Cap on the (m, block, D) broadcast temporary of the vectorized l1
# kernel; blocks of database rows keep it cache-friendly at packed
# many-candidate shapes without changing any per-cell value.
_L1_BLOCK_BYTES = 8 << 20

# Relative safety margin folded into the lower bounds.  The bounds are
# exact mathematics over exact reals; in float64 the bound and the
# simplex accumulate rounding independently, so a freshly computed bound
# could exceed the true EMD by a few ulps in degenerate cases (e.g. a
# single-segment pair, where bound and distance are the same sum taken
# in two different orders).  Shaving 1e-9 relative (plus an absolute
# epsilon for exact zeros) keeps the bounds provably conservative at
# float precision while costing essentially no pruning power.
_BOUND_SAFETY_REL = 1e-9
_BOUND_SAFETY_ABS = 1e-12


class NonFiniteDistanceError(ValueError):
    """Segment ground distances evaluated to NaN or infinity.

    Raised by :func:`pairwise_segment_distances` (and everything built on
    it) instead of letting the transportation simplex pivot on garbage
    costs.  ``object_id`` carries the offending candidate's id when the
    caller knew it — the engine surfaces it so a poisoned insert can be
    found and removed.
    """

    def __init__(self, message: str, object_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.object_id = object_id


def _require_finite_costs(
    costs: np.ndarray, object_id: Optional[int] = None
) -> None:
    """Reject NaN/inf ground distances before they reach the simplex."""
    if np.isfinite(costs).all():
        return
    bad = int((~np.isfinite(costs)).sum())
    who = f" (candidate object {object_id})" if object_id is not None else ""
    raise NonFiniteDistanceError(
        f"{bad} of {costs.size} segment ground distances are NaN/inf{who}; "
        "feature vectors must be finite",
        object_id=object_id,
    )


def _l1_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(m, n)`` l1 distances via one broadcast kernel, blocked over ``b``.

    Per-cell values are bit-identical to the historical per-row
    ``l1_to_many`` loop (same element order, same pairwise reduction over
    the feature axis), so every consumer — including the exact ranking
    path — sees unchanged distances.
    """
    m, d = a.shape
    n = b.shape[0]
    block = max(1, _L1_BLOCK_BYTES // max(1, m * d * 8))
    if n <= block:
        return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    out = np.empty((m, n), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        out[:, start:stop] = np.abs(
            a[:, None, :] - b[None, start:stop, :]
        ).sum(axis=2)
    return out


def pairwise_segment_distances(
    features_a: np.ndarray,
    features_b: np.ndarray,
    ground: Optional[GroundDistanceMatrix] = None,
    object_id: Optional[int] = None,
) -> np.ndarray:
    """``(m, n)`` matrix of ground distances between two segment sets.

    ``ground`` maps ``(query_matrix, db_matrix) -> distance matrix``; the
    default is l1, matching the paper's image and audio systems, computed
    by one vectorized broadcast kernel.  Non-finite distances (NaN/inf
    feature rows, or a ground function returning them) raise
    :class:`NonFiniteDistanceError` — the transportation simplex must
    never pivot on garbage costs.  ``object_id`` tags the error with the
    candidate the ``features_b`` rows belong to.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(features_b, dtype=np.float64))
    if ground is not None:
        out = np.asarray(ground(a, b), dtype=np.float64)
        if out.shape != (a.shape[0], b.shape[0]):
            raise ValueError(
                f"ground distance returned {out.shape}, expected "
                f"{(a.shape[0], b.shape[0])}"
            )
        _require_finite_costs(out, object_id)
        return out
    out = _l1_cost_matrix(a, b)
    _require_finite_costs(out, object_id)
    return out


@dataclass(frozen=True)
class EMDParams:
    """Configuration of the (improved) EMD object distance.

    Parameters
    ----------
    threshold:
        If set, segment distances are clipped at this value before the
        flow computation ("thresholded EMD", section 5.1).  ``None``
        disables thresholding (plain EMD).
    weight_transform:
        Optional transform applied to raw segment weights before
        re-normalization; the CIKM'04 improvement uses ``sqrt``.
    ground:
        Ground (segment) distance as a matrix function; default l1.
    """

    threshold: Optional[float] = None
    weight_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ground: Optional[GroundDistanceMatrix] = None

    def effective_weights(self, weights: np.ndarray) -> np.ndarray:
        if self.weight_transform is None:
            return np.asarray(weights, dtype=np.float64)
        return normalize_weights(self.weight_transform(np.asarray(weights)))

    def apply_threshold(self, costs: np.ndarray) -> np.ndarray:
        """Clip a cost matrix at the threshold (validating it), or pass
        it through unchanged when thresholding is disabled."""
        if self.threshold is None:
            return costs
        if self.threshold <= 0:
            raise ValueError("EMD threshold must be positive")
        return np.minimum(costs, self.threshold)


def emd(
    obj_a: ObjectSignature,
    obj_b: ObjectSignature,
    params: Optional[EMDParams] = None,
) -> float:
    """Earth Mover's Distance between two objects.

    Returns 0.0 when either object carries no mass.  The result is exact
    (transportation simplex), not an approximation.
    """
    params = params or EMDParams()
    costs = pairwise_segment_distances(
        obj_a.features, obj_b.features, params.ground,
        object_id=obj_b.object_id,
    )
    costs = params.apply_threshold(costs)
    supply = params.effective_weights(obj_a.weights)
    demand = params.effective_weights(obj_b.weights)
    result = solve_transport(supply, demand, costs)
    return result.cost


def packed_cost_matrices(
    query: ObjectSignature,
    candidates: Sequence[ObjectSignature],
    params: Optional[EMDParams] = None,
    dedup: bool = True,
) -> List[np.ndarray]:
    """Thresholded ``(m, n_i)`` cost matrices for one query against many
    candidates, each bit-identical to what :func:`emd` computes.

    For the default l1 ground distance, every candidate's segments are
    packed into one matrix and a single broadcast kernel produces all
    cost matrices at once; with ``dedup``, segment rows repeated across
    candidates (bitwise-equal feature vectors) are evaluated once and
    gathered back.  A custom ``ground`` is called once per candidate with
    exactly the candidate's own feature matrix — an arbitrary callable is
    only guaranteed bit-stable on the inputs the exact path gives it.
    """
    params = params or EMDParams()
    if not candidates:
        return []
    if params.ground is not None:
        return [
            params.apply_threshold(
                pairwise_segment_distances(
                    query.features, cand.features, params.ground,
                    object_id=cand.object_id,
                )
            )
            for cand in candidates
        ]
    q = np.atleast_2d(np.asarray(query.features, dtype=np.float64))
    packed = np.concatenate(
        [np.atleast_2d(np.asarray(c.features, dtype=np.float64))
         for c in candidates],
        axis=0,
    )
    if dedup and packed.shape[0] > 1:
        unique, inverse = np.unique(packed, axis=0, return_inverse=True)
        if unique.shape[0] < packed.shape[0]:
            all_costs = _l1_cost_matrix(q, unique)[:, inverse.ravel()]
        else:
            all_costs = _l1_cost_matrix(q, packed)
    else:
        all_costs = _l1_cost_matrix(q, packed)
    all_costs = params.apply_threshold(all_costs)
    matrices: List[np.ndarray] = []
    offset = 0
    for cand in candidates:
        n = cand.num_segments
        costs = all_costs[:, offset:offset + n]
        offset += n
        _require_finite_costs(costs, object_id=cand.object_id)
        matrices.append(costs)
    return matrices


def emd_to_many(
    query: ObjectSignature,
    candidates: Sequence[ObjectSignature],
    params: Optional[EMDParams] = None,
    dedup: bool = True,
) -> np.ndarray:
    """Exact EMD from ``query`` to every candidate, batched.

    Equivalent to ``[emd(query, c, params) for c in candidates]`` —
    same costs, same solver, bit-identical distances — but all ground
    distances come from one packed computation per batch
    (:func:`packed_cost_matrices`) instead of one small kernel dispatch
    per candidate.
    """
    params = params or EMDParams()
    matrices = packed_cost_matrices(query, candidates, params, dedup=dedup)
    supply = params.effective_weights(query.weights)
    return np.array(
        [
            solve_transport(
                supply, params.effective_weights(cand.weights), costs
            ).cost
            for cand, costs in zip(candidates, matrices)
        ],
        dtype=np.float64,
    )


def _shave(bound):
    """Apply the float-safety margin (elementwise on arrays); bounds never
    go negative."""
    return np.maximum(0.0, bound * (1.0 - _BOUND_SAFETY_REL) - _BOUND_SAFETY_ABS)


def emd_lower_bound_centroid(
    query: ObjectSignature,
    candidate: ObjectSignature,
    params: Optional[EMDParams] = None,
) -> float:
    """Weighted-l1-of-centroids lower bound on ``emd(query, candidate)``.

    For a norm-induced ground distance, any feasible flow satisfies
    ``sum f_ij ||x_i - y_j|| >= ||sum_i s_i x_i - sum_j d_j y_j||``
    (Jensen on the norm), so the l1 distance between the effective-weight
    centroids lower-bounds the plain EMD.  The bound is only valid for
    the built-in l1 ground (a custom ``ground`` need not be a norm) and
    only without thresholding — clipping costs at ``t`` can push the
    optimal flow cost *below* the centroid distance — so those
    configurations return the trivial bound 0.0.  ``weight_transform`` is
    respected by using the same effective weights the EMD uses.
    """
    params = params or EMDParams()
    if params.ground is not None or params.threshold is not None:
        return 0.0
    supply = params.effective_weights(query.weights)
    demand = params.effective_weights(candidate.weights)
    total_s = float(supply.sum())
    total_d = float(demand.sum())
    if total_s <= 0.0 or total_d <= 0.0:
        return 0.0
    # solve_transport rescales demand to balance the problem exactly;
    # the bound must compare centroids of the same rescaled masses.
    demand = demand * (total_s / total_d)
    q_centroid = supply @ np.atleast_2d(query.features)
    c_centroid = demand @ np.atleast_2d(candidate.features)
    return float(_shave(np.abs(q_centroid - c_centroid).sum()))


def rowcol_bounds_from_costs(
    matrices: Sequence[np.ndarray],
    supply: np.ndarray,
    demands: Sequence[np.ndarray],
) -> np.ndarray:
    """Row/column-minima lower bounds given already-built cost matrices.

    Every feasible flow ships ``supply_i`` out of row ``i`` at per-unit
    cost at least ``min_j costs[i, j]`` (and symmetrically for columns),
    so ``max(supply @ row_mins, demand @ col_mins)`` lower-bounds the
    optimal cost of *that* matrix.  Because it is computed on the final
    (thresholded) costs, it is valid for every :class:`EMDParams`
    configuration, including custom grounds.

    ``matrices[i]`` is ``(m, n_i)`` with column weights ``demands[i]``;
    all share one ``supply``.  The bounds of every matrix come from one
    pass over their column-wise concatenation, so the ranking cascade
    pays a few array operations per query rather than per candidate.
    """
    supply = np.asarray(supply, dtype=np.float64)
    bounds = np.zeros(len(matrices))
    sizes = np.array([c.shape[1] for c in matrices], dtype=np.intp)
    total_s = float(supply.sum())
    nonempty = sizes > 0
    if total_s <= 0.0 or supply.size == 0 or not nonempty.any():
        return bounds
    starts = (np.cumsum(sizes) - sizes)[nonempty]  # empty matrices add no columns
    costs = np.concatenate(matrices, axis=1)
    demand = np.concatenate([np.asarray(d, dtype=np.float64) for d in demands])
    total_d = np.add.reduceat(demand, starts)
    row_bound = supply @ np.minimum.reduceat(costs, starts, axis=1)
    col_bound = np.add.reduceat(demand * costs.min(axis=0), starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.maximum(row_bound, col_bound * (total_s / total_d))
    bounds[nonempty] = np.where(total_d > 0.0, _shave(bound), 0.0)
    return bounds


def emd_lower_bound_rowcol(
    query: ObjectSignature,
    candidate: ObjectSignature,
    params: Optional[EMDParams] = None,
    costs: Optional[np.ndarray] = None,
) -> float:
    """Thresholded row/column-minima lower bound on ``emd(query, candidate)``.

    ``costs`` may carry a precomputed thresholded cost matrix (the
    ranking cascade reuses the matrices it already built); otherwise the
    matrix is computed here exactly as :func:`emd` would.
    """
    params = params or EMDParams()
    if costs is None:
        costs = params.apply_threshold(
            pairwise_segment_distances(
                query.features, candidate.features, params.ground,
                object_id=candidate.object_id,
            )
        )
    return float(rowcol_bounds_from_costs(
        [costs],
        params.effective_weights(query.weights),
        [params.effective_weights(candidate.weights)],
    )[0])


class EMDDistance:
    """Callable object distance ``(ObjectSignature, ObjectSignature) -> float``.

    This is the shape the ranking unit expects for ``obj_distance`` and
    the default the engine installs when the plug-in supplies none.  The
    batched ranking cascade recognizes this type and replaces the
    per-candidate calls with :func:`emd_to_many` plus lower-bound
    pruning, producing identical results.
    """

    def __init__(self, params: Optional[EMDParams] = None) -> None:
        self.params = params or EMDParams()

    def __call__(self, obj_a: ObjectSignature, obj_b: ObjectSignature) -> float:
        return emd(obj_a, obj_b, self.params)

    def __repr__(self) -> str:
        return (
            f"EMDDistance(threshold={self.params.threshold}, "
            f"sqrt_weights={self.params.weight_transform is not None})"
        )
