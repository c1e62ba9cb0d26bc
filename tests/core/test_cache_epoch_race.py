"""Interleaving tests for the query-result cache's epoch race.

The serial scan snapshots the store internally, but the cache must only
keep a result computed against a store that provably did not move during
the whole pass: the engine re-reads the epoch after the scan and, when
it changed, skips the store (``computed_epoch = None``) and counts a
``query_cache.stale_store_skips``.  These tests drive that interleaving
deterministically (an insert fired from *inside* the scan) and with
hypothesis-generated op sequences, asserting both the counters and the
end-to-end invariant: cached answers always equal a fresh recompute.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import (
    DataTypePlugin,
    FeatureMeta,
    ObjectSignature,
    ParallelConfig,
    SearchMethod,
    SimilaritySearchEngine,
    SketchParams,
)
from repro.observability import metrics as _metrics


def _value(name):
    return _metrics.get_registry().value(name)


def _make_engine(num_objects=10, seed=3):
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta), SketchParams(64, meta, seed=0)
    )
    rng = np.random.default_rng(seed)
    for _ in range(num_objects):
        engine.insert(ObjectSignature(rng.random((2, 4)), [1.0, 1.0]))
    return engine, rng


def _query_sig(rng):
    return ObjectSignature(rng.random((2, 4)), [1.0, 1.0])


class _InsertDuringScan:
    """Wrap the serial scan so an insert lands mid-pass (epoch moves)."""

    def __init__(self, engine, rng):
        self.engine = engine
        self.rng = rng
        self.real = engine_mod.sketch_filter_many
        self.fired = 0

    def __call__(self, queries, sketches, store, params, n_bits):
        result = self.real(queries, sketches, store, params, n_bits)
        self.engine.insert(
            ObjectSignature(self.rng.random((2, 4)), [1.0, 1.0])
        )
        self.fired += 1
        return result


class TestDeterministicInterleaving:
    def test_concurrent_insert_skips_store_and_counts(self, monkeypatch):
        engine, rng = _make_engine()
        racer = _InsertDuringScan(engine, rng)
        monkeypatch.setattr(engine_mod, "sketch_filter_many", racer)
        before_skip = _value("query_cache.stale_store_skips")
        query = _query_sig(rng)
        engine.query(query, top_k=3)
        assert racer.fired == 1
        # The store moved mid-scan: the result must NOT have been cached.
        assert _value("query_cache.stale_store_skips") == before_skip + 1
        assert engine._filter_cache.stats()["entries"] == 0
        # And the same query afterwards misses (then caches cleanly).
        monkeypatch.setattr(engine_mod, "sketch_filter_many", racer.real)
        before_miss = _value("query_cache.misses")
        engine.query(query, top_k=3)
        assert _value("query_cache.misses") == before_miss + 1
        assert engine._filter_cache.stats()["entries"] == 1

    def test_quiet_scan_is_cached(self):
        engine, rng = _make_engine()
        query = _query_sig(rng)
        before_skip = _value("query_cache.stale_store_skips")
        before_hit = _value("query_cache.hits")
        engine.query(query, top_k=3)
        assert _value("query_cache.stale_store_skips") == before_skip
        engine.query(query, top_k=3)
        assert _value("query_cache.hits") == before_hit + 1

    def test_insert_between_queries_invalidates(self):
        engine, rng = _make_engine()
        query = _query_sig(rng)
        engine.query(query, top_k=3)
        assert engine._filter_cache.stats()["entries"] == 1
        before_inval = _value("query_cache.invalidations")
        engine.insert(ObjectSignature(rng.random((2, 4)), [1.0, 1.0]))
        engine.query(query, top_k=3)
        # The epoch bump flushed the cache — and the counter moved.
        assert _value("query_cache.invalidations") == before_inval + 1


def _make_pool_engine(cache_entries, num_objects=40, seed=3):
    """Engine whose filter scans always go through a 2-thread pool."""
    meta = FeatureMeta(4, np.zeros(4), np.ones(4))
    engine = SimilaritySearchEngine(
        DataTypePlugin("t", meta),
        SketchParams(64, meta, seed=0),
        parallel=ParallelConfig(
            num_workers=2, min_segments=1, backend="thread",
            cache_entries=cache_entries,
        ),
    )
    rng = np.random.default_rng(seed)
    for _ in range(num_objects):
        engine.insert(ObjectSignature(rng.random((2, 4)), [1.0, 1.0]))
    return engine, rng


def _shifted_arena(engine, shift=5000):
    """The store's arena with every live owner id moved by ``shift``:
    what a concurrent reload after a compaction may leave in the pool."""
    epoch, owners, sketches = engine._store.versioned_snapshot()
    return epoch, np.where(owners >= 0, owners + shift, owners), sketches


class TestPoolSnapshotInterleaving:
    """A full pool ``load`` racing a pool scan must not mix two arenas.

    The scan's owner ids and its cache tag both have to come from the
    one snapshot it scanned; the reload is fired from inside the scan
    call so the interleaving is deterministic.
    """

    def test_reload_after_scan_keeps_scanned_owners(self, monkeypatch):
        engine, rng = _make_pool_engine(cache_entries=0)
        with engine:
            query = _query_sig(rng)
            qs = engine.sketcher.sketch_many(query.features)
            expect = engine._filter_candidates([query], [qs])
            pool = engine._pool
            assert pool is not None
            epoch, shifted, sketches = _shifted_arena(engine)
            real_scan = pool.scan_topk

            def scan_then_reload(*args, **kwargs):
                result = real_scan(*args, **kwargs)
                pool.load(shifted, sketches, epoch=epoch + 1)
                return result

            monkeypatch.setattr(pool, "scan_topk", scan_then_reload)
            assert engine._filter_candidates([query], [qs]) == expect

    def test_reload_before_scan_files_result_under_scanned_epoch(
        self, monkeypatch
    ):
        engine, rng = _make_pool_engine(cache_entries=16)
        with engine:
            query = _query_sig(rng)
            qs = engine.sketcher.sketch_many(query.features)
            truth = engine._filter_candidates([query], [qs])
            engine._filter_cache.clear()
            pool = engine._pool
            epoch, shifted, sketches = _shifted_arena(engine)
            real_scan = pool.scan_topk

            def reload_then_scan(*args, **kwargs):
                pool.load(shifted, sketches, epoch=epoch + 1000)
                return real_scan(*args, **kwargs)

            monkeypatch.setattr(pool, "scan_topk", reload_then_scan)
            engine._filter_candidates([query], [qs])
            monkeypatch.setattr(pool, "scan_topk", real_scan)
            # The racy answer came from a foreign arena; it must not be
            # served for the store's own epoch.
            assert engine._filter_candidates([query], [qs]) == truth


@st.composite
def op_sequences(draw):
    return draw(
        st.lists(
            st.sampled_from(["query", "insert", "racy_query"]),
            min_size=2,
            max_size=8,
        )
    )


class TestHypothesisInterleaving:
    @settings(max_examples=25, deadline=None)
    @given(ops=op_sequences())
    def test_cached_results_always_match_recompute(self, ops):
        """Under any interleaving of queries, inserts, and queries raced
        by a mid-scan insert, a query's candidates equal what a fresh
        un-cached engine pass computes — stale entries never leak."""
        engine, rng = _make_engine(num_objects=6, seed=11)
        query = _query_sig(rng)
        real_scan = engine_mod.sketch_filter_many
        racer = _InsertDuringScan(engine, rng)
        try:
            for op in ops:
                if op == "insert":
                    engine.insert(
                        ObjectSignature(rng.random((2, 4)), [1.0, 1.0])
                    )
                    continue
                engine_mod.sketch_filter_many = (
                    racer if op == "racy_query" else real_scan
                )
                ranked = engine.query(query, top_k=50)
                engine_mod.sketch_filter_many = real_scan
                # Ground truth: bypass the cache entirely.
                sketches = engine.sketcher.sketch_many(query.features)
                expected = real_scan(
                    [query], [sketches], engine._store,
                    engine.filter_params, n_bits=engine.sketcher.n_bits,
                )[0]
                got = engine._filter_candidates([query], [sketches])[0]
                assert got == expected
                assert {r.object_id for r in ranked} <= set(engine.objects)
        finally:
            engine_mod.sketch_filter_many = real_scan
