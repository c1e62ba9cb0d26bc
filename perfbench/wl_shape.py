"""shape-scan: the in-memory engine over 64k single-segment shapes.

64k bulk 544-dim shape descriptors, 800-bit sketches (the paper's
Table 1 size for shapes), r=1, k=64.  Phase one issues single ``query``
calls with fresh perturbed queries, phase two sends a fresh query set
through ``query_many`` in batches of 16, phase three inserts fresh
shapes.  The filter scan dominates and its parallel pool is live (64k
segments is above the pool's 50k threshold); ranking is one l1 per
candidate with no transport solve.
"""

from __future__ import annotations

import time

import common as C
import engine_layers
from ledger import PhaseView, SpanRecorder, per

NUM_OBJECTS = 64_000
INSERT_POOL = 3_000
MAX_QUERIES = 6_000
SKETCH_BITS = 800
FILTER_R, FILTER_K = 1, 64
TOP_K = 10
#: Descriptor noise of a query copy, as a share of each dimension's
#: range; keeps hit_at_10 clearly below 1.0.
QUERY_NOISE = 0.08
BATCH = 16
#: Shares of --seconds: single queries, batches, inserts.  Single
#: queries and batches alternate over the run; inserts come last, so
#: the query phases scan an arena no write has touched.
SINGLE_SHARE, BATCH_SHARE, INSERT_SHARE = 0.6, 0.25, 0.15
SETUP_REPEATS = 3
CHECK_SAMPLE = 40
#: Untimed queries after set-up: the first scan starts the engine's
#: scan pool, a one-off cost that is neither set-up nor a query.
WARM_UP = 4
#: Bulk loads go in slices of this many objects, which keeps the
#: concatenated feature matrix of one ``insert_many`` call small.
LOAD_SLICE = 8192


def make_inputs(seed: int) -> dict:
    """Everything the run feeds the program, from ``seed`` alone."""
    from repro.core import meta_from_dataset
    from repro.core.types import Dataset

    prototypes = C.shape_prototypes(C.rng_for(C.CORPUS_SEED, "prototypes"))
    corpus = C.shape_signatures(
        NUM_OBJECTS, prototypes, C.rng_for(C.CORPUS_SEED, "corpus")
    )
    fresh = C.shape_signatures(INSERT_POOL, prototypes, C.rng_for(seed, "fresh"))
    meta = meta_from_dataset(Dataset({s.object_id: s for s in corpus}))

    def queries(stream: str, count: int):
        rng = C.rng_for(seed, stream)
        sources = rng.integers(0, NUM_OBJECTS, size=count)
        return [
            (int(s), C.perturbed(corpus[s], meta, QUERY_NOISE, rng)) for s in sources
        ]

    for sig in fresh:
        sig.object_id = None
    return {
        "meta": meta,
        "corpus": corpus,
        "fresh": fresh,
        "single": queries("single", MAX_QUERIES),
        "batches": [q for _, q in queries("batch", MAX_QUERIES // 2)],
        "check": [q for _, q in queries("check", CHECK_SAMPLE + 1)],
        "warm": [q for _, q in queries("warm", WARM_UP)],
    }


class _Run:
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        from repro.core import FilterParams, SketchParams
        from repro.datatypes.shape import make_shape_plugin

        self.out = C.Outcome()
        self.seconds = seconds
        self.trace = trace
        self.inputs = make_inputs(seed)
        self.plugin = make_shape_plugin(self.inputs["meta"])
        self.sketch = SketchParams(SKETCH_BITS, self.plugin.meta)
        self.filter = FilterParams(
            num_query_segments=FILTER_R, candidates_per_segment=FILTER_K
        )
        self.inserted = []
        self.cursors = {"single": 0, "batch": 0}

    def build(self, signatures):
        from repro.core import SimilaritySearchEngine

        engine = SimilaritySearchEngine(self.plugin, self.sketch, self.filter)
        for start in range(0, len(signatures), LOAD_SLICE):
            engine.insert_many(signatures[start:start + LOAD_SLICE])
        return engine

    def setup(self) -> None:
        times = []
        self.engine = None
        for _ in range(SETUP_REPEATS):
            if self.engine is not None:
                self.engine.close()
                self.engine = None
            started = time.perf_counter()
            self.engine = self.build(self.inputs["corpus"])
            times.append(time.perf_counter() - started)
        self.out.e2e["setup_s"] = C.median(times)

    # -- measured phases -------------------------------------------------------
    def _loop(self, kind, ops, seconds, recorder=None, check=None):
        log = C.OpLog()
        start = self.cursors[kind]
        issued, wall = C.closed_loop(
            ops[start:], seconds, 1, log, check=check, recorder=recorder
        )
        self.cursors[kind] += issued
        self.out.log.merge(log)
        return log, wall

    def single(self, log, seconds, recorder=None) -> float:
        """A stretch of single ``query`` calls; its wall time."""
        engine = self.engine
        ops = [
            ("query", lambda ctx, q=q, s=s: (s, engine.query(q, top_k=TOP_K)))
            for s, q in self.inputs["single"]
        ]
        issued, wall = C.closed_loop(
            ops[self.cursors["single"]:], seconds, 1, log, check=self._check,
            recorder=recorder,
        )
        self.cursors["single"] += issued
        self.loop_wall = wall
        return wall

    def _check(self, kind, result):
        source, results = result
        self.hits[0] += any(r.object_id == source for r in results)
        self.hits[1] += 1

    def batch(self, log, seconds) -> None:
        """``query_many`` in batches of 16."""
        queries = self.inputs["batches"]
        ops = [
            ("batch", lambda ctx, b=queries[i:i + BATCH]:
             self.engine.query_many(b, top_k=TOP_K))
            for i in range(0, len(queries), BATCH)
        ]
        issued, _ = C.closed_loop(ops[self.cursors["batch"]:], seconds, 1, log)
        self.cursors["batch"] += issued

    def measure(self, seconds, rounds, recorder=None, on_loop_end=None):
        """``rounds`` alternations of single queries and batches, taking
        their shares of ``seconds``; see ``wl_image._Run.measure`` for why."""
        log = C.OpLog()
        self.hits = [0, 0]
        wall = 0.0
        share = seconds / rounds
        for _ in range(rounds):
            wall += self.single(log, share * SINGLE_SHARE, recorder)
            if on_loop_end is not None:
                on_loop_end()
            self.batch(log, share * BATCH_SHARE)
        self.out.log.merge(log)
        done = log.latencies.get("query", [])
        e2e, facts = C.latency_metrics(done, "query")
        e2e["query_qps"] = per(len(done), wall)
        e2e["hit_at_10"] = per(self.hits[0], self.hits[1])
        e2e["batch_qps"] = per(BATCH, C.median(log.latencies["batch"]))
        return e2e, facts

    def inserts(self, seconds, pool, recorder=None):
        """``engine.insert`` of fresh shapes from ``pool``."""
        def insert(ctx, sig):
            oid = self.engine.insert(sig)
            self.inserted.append(sig)
            return oid

        ops = [("insert", lambda ctx, sig=sig: insert(ctx, sig)) for sig in pool]
        self.cursors["insert"] = 0
        log, _ = self._loop("insert", ops, seconds, recorder)
        return C.latency_metrics(log.latencies.get("insert", []), "insert")

    # -- checks ---------------------------------------------------------------------
    def check_serial(self) -> None:
        """The active scan backend must answer a sample exactly as the
        serial scan does.  A probe write between the two passes moves the
        arena epoch, so the second pass cannot reuse the first pass's
        cached candidate sets."""
        engine = self.engine
        *sample, probe = self.inputs["check"]
        engine.set_parallel_backend("serial")
        serial = [engine.query(q, top_k=TOP_K) for q in sample]
        probe_id = engine.insert(probe)
        engine.remove(probe_id)
        engine.set_parallel_backend("auto")
        for q, want in zip(sample, serial):
            got = engine.query(q, top_k=TOP_K)
            self.out.check(
                "check.serial_equal",
                [(r.object_id, r.distance) for r in got]
                == [(r.object_id, r.distance) for r in want],
                "active backend != serial scan",
            )
        self.out.info["check_backend"] = engine.parallel_info()["backend_active"]

    # -- the run ------------------------------------------------------------------
    def run(self) -> C.Outcome:
        out = self.out
        out.phase("inputs")
        self.setup()
        out.phase("setup")
        for q in self.inputs["warm"]:
            self.engine.query(q, top_k=TOP_K)
        self.engine.query_many(self.inputs["warm"], top_k=TOP_K)
        s = self.seconds
        if not self.trace:
            e2e, facts = self.measure(s, C.ROUNDS)
            out.info["scan_backend"] = self.engine.parallel_info()["backend_active"]
            out.phase("measure")
            self.check_serial()
            out.phase("check_serial")
            ins, ins_facts = self.inserts(s * INSERT_SHARE, self.inputs["fresh"])
        else:
            # Untraced and traced halves of the same run, one round each
            # so the ledger sees one uninterrupted query loop.  The
            # wrappers are in place for the traced halves only, so the
            # difference of the halves is the tracing overhead.
            untraced, _ = self.measure(s / 2, 1)
            recorder = SpanRecorder(keep_samples={"transport.solve"})
            probe = engine_layers.EngineProbe()

            def layers(rec):
                engine_layers.install(rec, probe)

            with recorder.installed(layers):
                phase = engine_layers.EnginePhase(recorder, probe, self.engine)

                def loop_end():
                    out.layers.update(phase.finish("query"))
                    out.ledger_sum(recorder.attributed, self.loop_wall)

                e2e, facts = self.measure(s / 2, 1, recorder, loop_end)
            out.check(
                "check.predicted_zero",
                out.layers["transport.solves_per_query"] == 0,
                "transport solves on single-segment shapes",
            )
            out.info["scan_backend"] = self.engine.parallel_info()["backend_active"]
            out.phase("measure")
            self.check_serial()
            out.phase("check_serial")
            fresh = self.inputs["fresh"]
            half = len(fresh) // 2
            untraced.update(self.inserts(s * INSERT_SHARE / 2, fresh[:half])[0])
            before = recorder.snapshot()
            with recorder.installed(layers):
                ins, ins_facts = self.inserts(
                    s * INSERT_SHARE / 2, fresh[half:], recorder
                )
            view = PhaseView(recorder, before)
            out.layers["engine.insert_self_ms"] = per(
                view.self_time("client.insert/engine.insert"),
                view.count("client.insert"),
            ) * 1e3
            out.layers.update(C.overhead(untraced, {**e2e, **ins}))
        e2e.update(ins)
        facts.update(ins_facts)
        out.e2e.update(e2e)
        out.info.update(facts)
        out.phase("inserts")
        self.engine.close()
        self.engine = None
        started = time.perf_counter()
        self.engine = self.build(self.inputs["corpus"] + self.inserted)
        out.e2e["restart_s"] = time.perf_counter() - started
        out.phase("restart")
        out.e2e["peak_rss_mb"] = C.peak_rss_kb() / 1024.0
        return out


def run(seed: int, seconds: float, trace: bool) -> C.Outcome:
    job = _Run(seed, seconds, trace)
    try:
        return job.run()
    finally:
        # On an error, still stop the scan pool.
        if getattr(job, "engine", None) is not None:
            job.engine.close()
