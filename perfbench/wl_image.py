"""image-ingest: a durable FerretSystem under a search/insert/remove mix.

12k bulk image objects (~129k segments), 256-bit sketches, r=4, k=32.
One closed-loop client issues ~65% searches by fresh perturbed copies of
resident objects, ~30% inserts with attributes and ~5% removes of objects
it inserted.  EMD ranking dominates search time; every write goes
through the KV store and WAL and moves the arena epoch, which
invalidates the filter cache and forces a pool delta refresh (the arena
is above the pool's 50k-segment threshold).
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque

import numpy as np

import common as C
import engine_layers
from ledger import PhaseView, SpanRecorder, per

NUM_OBJECTS = 12_000
#: Fresh objects for the mixed loop's inserts and for the insert burst;
#: separate pools, so a fast burst cannot starve the mixed loop.
MIXED_INSERTS, BURST_INSERTS = 1_500, 3_000
MAX_OPS = 8_000
SKETCH_BITS = 256
FILTER_R, FILTER_K = 4, 32
TOP_K = 10
#: Feature noise of a query copy, as a share of each dimension's range;
#: keeps hit_at_10 clearly below 1.0 so it guards ranking quality.
QUERY_NOISE = 0.09
MIX = (("search", 0.65), ("insert", 0.30), ("remove", 0.05))
BATCH = 16
#: Shares of --seconds: the mixed loop, query_many batches, insert burst.
MIXED_SHARE, BATCH_SHARE, BURST_SHARE = 0.6, 0.3, 0.1
SETUP_REPEATS = 2
RESTART_REPEATS = 3
EXACT_SAMPLE = 4
#: Untimed searches after set-up: the first scan starts the engine's
#: scan pool, a one-off cost that is neither set-up nor a query.
WARM_UP = 4


def _attributes(i: int) -> dict:
    return {"album": f"album{i % 40}", "year": str(1990 + i % 30)}


def make_inputs(seed: int) -> dict:
    """Everything the run feeds the program, from ``seed`` alone."""
    from repro.datatypes.image import make_image_plugin

    meta = make_image_plugin().meta
    prototypes = C.cluster_prototypes(meta, C.rng_for(C.CORPUS_SEED, "prototypes"))
    corpus = C.clustered_signatures(
        NUM_OBJECTS, meta, 10.8, prototypes, C.rng_for(C.CORPUS_SEED, "corpus")
    )
    fresh = C.clustered_signatures(
        MIXED_INSERTS + BURST_INSERTS, meta, 10.8, prototypes, C.rng_for(seed, "fresh")
    )
    rng = C.rng_for(seed, "mix")
    kinds, inserts, removes = [], 0, 0
    for draw in rng.random(MAX_OPS):
        kind = "search" if draw < MIX[0][1] else (
            "insert" if draw < MIX[0][1] + MIX[1][1] else "remove"
        )
        if kind == "remove" and removes >= inserts:
            kind = "insert"
        if kind == "insert" and inserts >= MIXED_INSERTS:
            kind = "search"
        inserts += kind == "insert"
        removes += kind == "remove"
        kinds.append(kind)

    def queries(stream: str, count: int):
        qrng = C.rng_for(seed, stream)
        sources = qrng.integers(0, NUM_OBJECTS, size=count)
        return [
            (int(s), C.perturbed(corpus[s], meta, QUERY_NOISE, qrng)) for s in sources
        ]

    for sig in fresh:
        sig.object_id = None
    return {
        "corpus": corpus,
        "fresh": fresh,
        "kinds": kinds,
        "searches": queries("search", kinds.count("search")),
        "batches": [q for _, q in queries("batch", 64 * BATCH)],
        "exact": [q for _, q in queries("exact", EXACT_SAMPLE)],
        "warm": [q for _, q in queries("warm", WARM_UP)],
    }


class _Run:
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        from repro.core import FilterParams, SketchParams
        from repro.datatypes.image import make_image_plugin

        self.out = C.Outcome()
        self.seconds = seconds
        self.trace = trace
        self.inputs = make_inputs(seed)
        self.plugin = make_image_plugin()
        self.sketch = SketchParams(SKETCH_BITS, self.plugin.meta)
        self.filter = FilterParams(
            num_query_segments=FILTER_R, candidates_per_segment=FILTER_K
        )
        self.acked = deque()  # (id, attrs, features) still live
        self.all_acked = []
        self.removed = []
        fresh = self.inputs["fresh"]
        self.pools = {"mixed": fresh[:MIXED_INSERTS], "burst": fresh[MIXED_INSERTS:]}
        self.taken = {"mixed": 0, "burst": 0}
        self.batch_cursor = 0
        self.hits = [0, 0]

    def open(self, directory, fs=None):
        from repro.system import FerretSystem

        return FerretSystem(
            self.plugin, str(directory), sketch_params=self.sketch,
            filter_params=self.filter, fs=fs,
        )

    def warm_up(self) -> None:
        for q in self.inputs["warm"]:
            self.system.search(q, top_k=TOP_K)
        self.system.engine.query_many(self.inputs["warm"], top_k=TOP_K)

    def reopen(self, fs=None) -> None:
        """Close and reopen the store, then warm it up (untimed)."""
        self.system.close()
        self.system = self.open(self.directory, fs)
        self.warm_up()

    # -- phases ------------------------------------------------------------
    def setup(self) -> None:
        times = []
        for i in range(SETUP_REPEATS):
            directory = C.fresh_dir(f"image-{i}")
            started = time.perf_counter()
            system = self.open(directory)
            system.engine.insert_many(self.inputs["corpus"])
            times.append(time.perf_counter() - started)
            if i + 1 < SETUP_REPEATS:
                system.close()
                shutil.rmtree(directory)
        self.system, self.directory = system, directory
        self.out.e2e["setup_s"] = C.median(times)

    def _ops(self):
        system = self.system
        searches = iter(self.inputs["searches"])
        ops = []
        for kind in self.inputs["kinds"]:
            if kind == "search":
                source, query = next(searches)
                ops.append(("search", lambda ctx, q=query, s=source: (
                    s, system.search(q, top_k=TOP_K))))
            elif kind == "insert":
                ops.append(("insert", lambda ctx: self._insert("mixed")))
            else:
                ops.append(("remove", self._remove))
        return ops

    def _insert(self, pool: str):
        sig = self.pools[pool][self.taken[pool]]
        self.taken[pool] += 1
        attrs = _attributes(len(self.all_acked))
        oid = self.system.insert(sig, attrs)
        entry = (oid, attrs, sig.features)
        self.acked.append(entry)
        self.all_acked.append(entry)
        return oid

    def _remove(self, ctx):
        oid, attrs, _ = self.acked.popleft()
        self.system.engine.remove(oid)
        self.system.index.remove(oid, attrs)
        self.removed.append(oid)
        return oid

    def _check(self, kind, result):
        if kind == "search":
            source, results = result
            self.hits[0] += any(r.object_id == source for r in results)
            self.hits[1] += 1
        return None

    def mixed(self, log, seconds, recorder=None) -> float:
        """A stretch of the closed search/insert/remove loop; its wall time."""
        issued, wall = C.closed_loop(
            self.ops[self.cursor:], seconds, 1, log, check=self._check,
            recorder=recorder,
        )
        self.cursor += issued
        self.loop_wall = wall
        return wall

    def batch(self, log, seconds) -> None:
        """``query_many`` in batches of 16."""
        batches = self.inputs["batches"]
        ops = [
            ("batch", lambda ctx, b=batches[i:i + BATCH]:
             self.system.engine.query_many(b, top_k=TOP_K))
            for i in range(self.batch_cursor, len(batches), BATCH)
        ]
        issued, _ = C.closed_loop(ops, seconds, 1, log)
        self.batch_cursor += issued * BATCH

    def burst(self, log, seconds, recorder=None) -> None:
        """Back-to-back durable inserts with attributes."""
        left = BURST_INSERTS - self.taken["burst"]
        ops = [("insert", lambda ctx: self._insert("burst"))] * left
        C.closed_loop(ops, seconds, 1, log, recorder=recorder)

    def measure(self, seconds, rounds, recorder=None, on_loop_end=None):
        """``rounds`` alternations of the mixed loop, the batches and the
        insert burst, ``seconds`` in all.  Alternating spreads each
        metric's samples over the whole run, so one short slow spell of
        the host cannot decide a metric on its own."""
        log = C.OpLog()
        self.hits = [0, 0]
        wall = 0.0
        share = seconds / rounds
        for _ in range(rounds):
            wall += self.mixed(log, share * MIXED_SHARE, recorder)
            if on_loop_end is not None:
                on_loop_end()
            self.batch(log, share * BATCH_SHARE)
            self.burst(log, share * BURST_SHARE, recorder)
        self.out.log.merge(log)
        searches = log.latencies.get("search", [])
        e2e, facts = C.latency_metrics(searches, "query")
        ins, ins_facts = C.latency_metrics(log.latencies.get("insert", []), "insert")
        e2e.update(ins)
        facts.update(ins_facts)
        e2e["query_qps"] = per(len(searches), wall)
        e2e["hit_at_10"] = per(self.hits[0], self.hits[1])
        e2e["batch_qps"] = per(BATCH, C.median(log.latencies["batch"]))
        facts["removes"] = len(log.latencies.get("remove", []))
        return e2e, facts

    def check_exact(self) -> None:
        """A fixed sample: the active (pruning) ranking must equal the
        exact, no-pruning path."""
        engine = self.system.engine
        active = engine.rank_params
        for q in self.inputs["exact"]:
            got = engine.query(q, top_k=TOP_K)
            engine.rank_params = active.with_updates(cascade=False)
            try:
                want = engine.query(q, top_k=TOP_K)
            finally:
                engine.rank_params = active
            same = [(r.object_id, r.distance) for r in got] == [
                (r.object_id, r.distance) for r in want
            ]
            self.out.check("check.exact_rank", same, "pruned ranking != exact")

    def check_durable(self) -> None:
        """After reopen: every acknowledged insert is there, with its
        features as stored (float32), and every removed object is gone."""
        engine = self.system.engine
        removed = set(self.removed)
        for oid, _attrs, feats in self.all_acked:
            if oid in removed:
                continue
            ok = oid in engine and np.array_equal(
                engine.get_object(oid).features, feats.astype(np.float32)
            )
            self.out.check("check.durable_insert", ok, f"acked insert {oid} lost")
        for oid in self.removed:
            self.out.check(
                "check.durable_remove", oid not in engine, f"removed {oid} is back"
            )
        expected = NUM_OBJECTS + len(self.all_acked) - len(removed)
        self.out.check(
            "check.durable_count", len(engine) == expected,
            f"{len(engine)} objects after reopen, expected {expected}",
        )

    def restart(self) -> None:
        times = []
        for i in range(RESTART_REPEATS):
            started = time.perf_counter()
            self.system.close()
            self.system = self.open(self.directory)
            times.append(time.perf_counter() - started)
            if i == 0:
                self.check_durable()
        self.loaded = self.system.loaded
        self.out.e2e["restart_s"] = C.median(times)

    # -- the run -------------------------------------------------------------
    def run(self) -> C.Outcome:
        out = self.out
        out.phase("inputs")
        self.setup()
        out.phase("setup")
        self.warm_up()
        self.cursor = 0
        self.ops = self._ops()
        if not self.trace:
            e2e, facts = self.measure(self.seconds, C.ROUNDS)
        else:
            e2e, facts = self.traced()
        out.e2e.update(e2e)
        out.info.update(facts)
        out.info["scan_backend"] = self.system.engine.parallel_info()["backend_active"]
        out.info["segments"] = int(sum(s.num_segments for s in self.inputs["corpus"]))
        out.phase("measure")
        self.check_exact()
        out.phase("check_exact")
        started = time.perf_counter()
        self.system.checkpoint()
        checkpoint_s = time.perf_counter() - started
        db_bytes = os.path.getsize(os.path.join(self.directory, "data.db"))
        live = len(self.system)
        self.restart()
        out.phase("restart")
        out.e2e["peak_rss_mb"] = C.peak_rss_kb() / 1024.0
        if self.trace:
            out.layers["storage.checkpoint_ms"] = checkpoint_s * 1e3
            out.layers["storage.db_bytes_per_live_object"] = per(db_bytes, live)
            out.layers["restart.objects_per_s"] = per(
                self.loaded, out.e2e["restart_s"]
            )
        return out

    # -- the traced run ---------------------------------------------------------
    def traced(self):
        """Untraced and traced halves of the same run, one round each so
        the ledger sees one uninterrupted mixed loop.  Each half starts
        from a reopened store; only the traced half's store writes
        through the counting filesystem, and the wrappers are in place
        for it only, so the difference of the halves is the tracing
        overhead."""
        from countingfs import CountingFileSystem

        out = self.out
        half = self.seconds / 2
        self.reopen()
        untraced, _ = self.measure(half, 1)
        fs = CountingFileSystem()
        self.reopen(fs)
        recorder = SpanRecorder(keep_samples={"transport.solve"})
        probe = engine_layers.EngineProbe()

        def layers(rec):
            engine_layers.install(rec, probe)

        with recorder.installed(layers, self._install_system):
            phase = engine_layers.EnginePhase(recorder, probe, self.system.engine)
            fs_before = (fs.fsyncs, fs.written("wal."), fs.written())
            acked_before = len(self.all_acked)

            def loop_end():
                out.layers.update(phase.finish("search"))
                out.ledger_sum(recorder.attributed, self.loop_wall)

            e2e, facts = self.measure(half, 1, recorder, loop_end)
        self._storage_layers(PhaseView(recorder, {}), fs, fs_before, acked_before)
        out.layers.update(C.overhead(untraced, e2e))
        return e2e, facts

    def _install_system(self, recorder) -> None:
        from repro.attrsearch.index import PersistentIndex
        from repro.metadata.manager import MetadataManager
        from repro.system import FerretSystem

        recorder.install(FerretSystem, "search", "system.search")
        recorder.install(FerretSystem, "insert", "system.insert")
        recorder.install(MetadataManager, "put_object", "meta.put")
        recorder.install(MetadataManager, "delete_object", "meta.delete")
        recorder.install(PersistentIndex, "add", "attr.add")
        recorder.install(PersistentIndex, "remove", "attr.remove")

    def _storage_layers(self, view, fs, fs_before, acked_before) -> None:
        inserts = view.count("client.insert")
        removes = view.count("client.remove")
        fsyncs, wal, total = fs_before
        user_bytes = sum(
            feats.nbytes + feats.shape[0] * 8
            + sum(len(k) + len(v) for k, v in attrs.items())
            for _oid, attrs, feats in self.all_acked[acked_before:]
        )
        self.out.layers.update({
            "engine.insert_self_ms": per(
                view.self_time("client.insert/engine.insert"), inserts) * 1e3,
            "meta.put_ms_per_insert": per(
                view.total("client.insert/meta.put"), inserts) * 1e3,
            "meta.delete_ms_per_remove": per(
                view.total("client.remove/meta.delete"), removes) * 1e3,
            "attr.add_ms_per_insert": per(
                view.total("client.insert/attr.add"), inserts) * 1e3,
            "storage.fsyncs_per_insert": per(fs.fsyncs - fsyncs, inserts),
            "storage.wal_bytes_per_insert": per(fs.written("wal.") - wal, inserts),
            "storage.write_amplification": per(fs.written() - total, user_bytes),
        })


def run(seed: int, seconds: float, trace: bool) -> C.Outcome:
    job = _Run(seed, seconds, trace)
    try:
        return job.run()
    finally:
        # On an error, still stop the scan pool and release the store.
        if getattr(job, "system", None) is not None:
            job.system.close()
            shutil.rmtree(job.directory, ignore_errors=True)
