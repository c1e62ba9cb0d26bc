"""Ledger wiring of the in-process engine layers (image-ingest, shape-scan).

Wraps the names the engine looks up — ``SketchConstructor.sketch_many``,
``SimilaritySearchEngine._filter_candidates``, ``engine.
sketch_filter_many`` / ``engine.parallel_filter_candidates``, the
Hamming kernel and top-k selection in ``core.filtering`` and
``core.parallel``, ``engine.rank_candidates_many``, ``ranking.
packed_cost_matrices`` and ``solve_transport`` in ``core.ranking`` and
``core.emd`` — and turns one measured phase into the engine's per-layer
metrics.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, List

from common import tail_percentile
from ledger import PhaseView, SpanRecorder, per


class EngineProbe:
    """Counts read off the wrapped calls' arguments and results."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.considered = 0
        self.exact_evals = 0
        self.prunes = 0
        self.bound_seconds = 0.0
        self.pivots = 0
        self.cells = 0
        self.candidates = 0
        self.filtered_queries = 0
        self.write_pending = False
        self.first_after_write: List[float] = []

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                k: v for k, v in vars(self).items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }

    # -- observers ------------------------------------------------------
    def on_rank(self, args, kwargs, result, seconds) -> None:
        stats = result[1]
        with self._lock:
            self.considered += stats.considered
            self.exact_evals += stats.exact_evals
            self.prunes += stats.lower_bound_prunes
            self.bound_seconds += stats.bound_seconds

    def on_solve(self, args, kwargs, result, seconds) -> None:
        costs = args[2] if len(args) > 2 else kwargs["costs"]
        with self._lock:
            self.pivots += result.iterations
            self.cells += costs.shape[0] * costs.shape[1]

    def on_filter(self, args, kwargs, result, seconds) -> None:
        with self._lock:
            self.candidates += sum(len(c) for c in result)
            self.filtered_queries += len(result)
            if self.write_pending:
                self.write_pending = False
                self.first_after_write.append(seconds)

    def on_write(self, args, kwargs, result, seconds) -> None:
        with self._lock:
            self.write_pending = True


def install(recorder: SpanRecorder, probe: EngineProbe) -> None:
    # import_module: ``repro.core`` re-exports functions named like some
    # of its modules (``emd``), so attribute imports would get those.
    emd, engine, filtering, parallel, ranking, sketch = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("emd", "engine", "filtering", "parallel", "ranking", "sketch")
    )
    cls = engine.SimilaritySearchEngine
    recorder.install(sketch.SketchConstructor, "sketch_many", "sketch")
    recorder.install(cls, "query", "engine.query")
    recorder.install(cls, "insert", "engine.insert", observe=probe.on_write)
    recorder.install(cls, "remove", "engine.remove", observe=probe.on_write)
    recorder.install(cls, "_filter_candidates", "filter", observe=probe.on_filter)
    recorder.install(engine, "sketch_filter_many", "filter.serial_scan")
    recorder.install(engine, "parallel_filter_candidates", "filter.pool_scan")
    for module in (filtering, parallel):
        recorder.install(module, "hamming_many_to_many", "filter.hamming")
        recorder.install(module, "select_k_smallest", "filter.topk")
    recorder.install(engine, "rank_candidates_many", "rank", observe=probe.on_rank)
    recorder.install(ranking, "packed_cost_matrices", "rank.costmatrix")
    for module in (ranking, emd):
        recorder.install(
            module, "solve_transport", "transport.solve", observe=probe.on_solve
        )


class EnginePhase:
    """Engine-side facts captured around one measured phase."""

    def __init__(self, recorder: SpanRecorder, probe: EngineProbe, engine) -> None:
        from repro.observability import metrics

        self._recorder = recorder
        self._probe = probe
        self._engine = engine
        self._compactions = metrics.counter("arena.compactions")
        self._layers = recorder.snapshot()
        self._counts = probe.snapshot()
        self._first_writes = len(probe.first_after_write)
        self._cache = dict(engine.parallel_info()["cache"])
        self._compactions_before = self._compactions.value

    def finish(self, root: str) -> Dict[str, float]:
        """Per-layer metrics of the engine for queries issued as
        ``client.<root>`` operations during the phase."""
        view = PhaseView(self._recorder, self._layers)
        after = self._probe.snapshot()
        counts = {k: after[k] - self._counts.get(k, 0) for k in after}
        cache = self._engine.parallel_info()["cache"]
        hits = cache["hits"] - self._cache["hits"]
        misses = cache["misses"] - self._cache["misses"]
        arena = self._engine.compaction_info()
        q = view.count(f"client.{root}")
        scans_pool = view.count("filter.pool_scan")
        scans = scans_pool + view.count("filter.serial_scan")
        solves = view.count("transport.solve")
        solve_us = [s * 1e6 for s in view.samples("transport.solve")]
        first = self._probe.first_after_write[self._first_writes:]
        in_q = f"client.{root}/"
        out = {
            "sketch.ms_per_query": per(view.total(in_q + "sketch"), q) * 1e3,
            "engine.self_ms_per_query": per(
                view.self_time(in_q + "engine.query"), q
            ) * 1e3,
            "filter.ms_per_query": per(view.total("filter"), q) * 1e3,
            "filter.hamming_ms_per_query": per(view.total("filter.hamming"), q) * 1e3,
            "filter.topk_ms_per_query": per(view.total("filter.topk"), q) * 1e3,
            "filter.candidates_per_query": per(
                counts["candidates"], counts["filtered_queries"]
            ),
            "filter.pool_share": per(scans_pool, scans),
            "filter.ms_first_after_write": (
                sum(first) / len(first) * 1e3 if first else 0.0
            ),
            "filter.cache_hit_rate": per(hits, hits + misses),
            "arena.dead_fraction": per(arena["dead_rows"], arena["rows"]),
            "arena.compactions": self._compactions.value - self._compactions_before,
            "rank.ms_per_query": per(view.total("rank"), q) * 1e3,
            "rank.exact_evals_per_query": per(counts["exact_evals"], q),
            "rank.prune_rate": per(counts["prunes"], counts["considered"]),
            "rank.bound_ms_per_query": per(counts["bound_seconds"], q) * 1e3,
            "rank.costmatrix_ms_per_query": per(view.total("rank.costmatrix"), q) * 1e3,
            "transport.solves_per_query": per(solves, q),
            "transport.solve_us_p50": (
                sorted(solve_us)[len(solve_us) // 2] if solve_us else 0.0
            ),
            "transport.solve_us_p99": (
                tail_percentile(solve_us)[1] if len(solve_us) > 10 else 0.0
            ),
            "transport.pivots_per_solve": per(counts["pivots"], solves),
            "transport.cells_per_solve": per(counts["cells"], solves),
        }
        return out
