"""cluster-served: a coordinator front end over two backend subprocesses.

Two ``ClusterSupervisor`` backends serve the sensor demo corpus
(``size=2000``, about 1250 objects) as 2 shards with R=2.  The
coordinator is a ``ClusterCommandProcessor`` served on loopback from
this process; two ``FerretClient`` connections issue ``query <id>
top=10`` with seed ids drawn from a Zipf distribution, so the
coordinator's 128-entry result cache answers about a third of them.
This is the only workload that crosses the wire: per-node engine work is
small, so the protocol, command dispatch, scatter/gather and the result
cache make up a large share of latency.  It bypasses storage.
"""

from __future__ import annotations

import shutil
import threading
import time

import numpy as np

import common as C
from ledger import PhaseView, SpanRecorder, per

DEMO_SIZE = 2000
#: The demo corpus seed (the repository's default); --seed draws the
#: queries and the inserted recordings.
DEMO_SEED = 42
BACKENDS, SHARDS, REPLICATION = 2, 2, 2
#: Connections issuing single queries.  Batches and inserts use one:
#: two concurrent ``querymany`` or ``insertfile`` streams mostly measure
#: their contention with each other on a small host.
CLIENTS = 2
TOP_K = 10
#: Zipf exponent of the seed-id popularity; about 30% of queries then
#: repeat one of the last 128 distinct seeds (the coordinator cache).
ZIPF_S = 0.7
MAX_QUERIES = 8_000
BATCH = 16
INSERT_FILES = 400
#: Shares of --seconds: single queries, batches, inserts.
QUERY_SHARE, BATCH_SHARE, INSERT_SHARE = 0.5, 0.35, 0.15
SETUP_REPEATS = 2
#: Restarts of each backend; restart_s is the median of all of them.
RESTART_REPEATS = 2
CHECK_SAMPLE = 16
#: Untimed queries after set-up, so the coordinator's backend
#: connections exist before timing starts.
WARM_UP = 6


def zipf_ids(count: int, num_objects: int, rng: np.random.Generator) -> np.ndarray:
    """Seed ids with Zipf(``ZIPF_S``) popularity over a seeded ranking."""
    weights = np.arange(1, num_objects + 1, dtype=np.float64) ** -ZIPF_S
    ranked = rng.permutation(num_objects)
    return ranked[rng.choice(num_objects, size=count, p=weights / weights.sum())]


def write_recordings(seed: int, directory, count: int) -> list:
    """Fresh sensor recordings as ``.npy`` files for ``insertfile``."""
    from repro.datatypes.sensor.synthetic import (
        random_recording,
        random_subject,
        synthesize_recording,
    )

    rng = C.rng_for(seed, "recordings")
    paths = []
    for i in range(count):
        signal, _spans = synthesize_recording(
            random_recording(rng), random_subject(rng), rng
        )
        path = directory / f"rec{i:04d}.npy"
        np.save(path, signal)
        paths.append(str(path))
    return paths


class _Fleet:
    """Backends, coordinator and its loopback front end."""

    def __init__(self) -> None:
        from repro.cluster import ClusterConfig, FerretCoordinator
        from repro.cluster.service import ClusterCommandProcessor
        from repro.cluster.supervisor import ClusterSupervisor
        from repro.server.client import FerretClient
        from repro.server.server import serve_background

        self.supervisor = ClusterSupervisor(
            BACKENDS, num_shards=SHARDS, replication=REPLICATION,
            datatype="sensor", size=DEMO_SIZE, seed=DEMO_SEED,
        )
        self.coordinator = self.server = None
        try:
            self.supervisor.start()
            self.coordinator = FerretCoordinator(
                self.supervisor.endpoints, num_shards=SHARDS,
                config=ClusterConfig(replication=REPLICATION),
            )
            self.server = serve_background(ClusterCommandProcessor(self.coordinator))
            with FerretClient(*self.address) as client:
                if not client.ping():
                    raise RuntimeError("coordinator front end did not answer ping")
        except BaseException:
            self.close()
            raise

    @property
    def address(self):
        return self.server.server_address

    def backend_peak_kb(self) -> int:
        return sum(C.peak_rss_kb(b.pid) for b in self.supervisor.backends if b.pid)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        if self.coordinator is not None:
            self.coordinator.close()
        self.supervisor.close()


class _Probe:
    """Counts read off the wrapped coordinator and backend calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.queries = 0
        self.hits = 0
        self.fan_calls = 0  # backend calls the misses asked for
        self.sends = {"getsig": 0, "querysig": 0, "other": 0}
        self.reply_bytes = 0
        self.rtt = []

    def on_fan(self, args, kwargs, result, seconds) -> None:
        self._local.fan = getattr(self._local, "fan", 0) + 1

    def on_getsig(self, args, kwargs, result, seconds) -> None:
        self.on_fan(args, kwargs, result, seconds)
        with self._lock:
            self.fan_calls += 1

    def on_scatter(self, args, kwargs, result, seconds) -> None:
        self.on_fan(args, kwargs, result, seconds)
        with self._lock:
            self.fan_calls += SHARDS

    def on_query(self, args, kwargs, result, seconds) -> None:
        fanned = getattr(self._local, "fan", 0)
        self._local.fan = 0
        with self._lock:
            self.queries += 1
            self.hits += fanned == 0

    def on_send(self, args, kwargs, result, seconds) -> None:
        kind = args[1].split(" ", 1)[0]
        kind = kind if kind in self.sends else "other"
        with self._lock:
            self.sends[kind] += 1
            if kind == "querysig":
                self.rtt.append(seconds)
                # The reply as it crossed the wire: "OK <n>" plus its lines.
                self.reply_bytes += len(f"OK {len(result)}\n") + sum(
                    len(line) + 1 for line in result
                )


def _install(recorder: SpanRecorder, probe: _Probe) -> None:
    import importlib

    server = importlib.import_module("repro.server.server")
    from repro.cluster.coordinator import BackendHandle, FerretCoordinator
    from repro.cluster.service import ClusterCommandProcessor

    recorder.install(server, "parse_command", "front.parse")
    recorder.install(server, "format_ok", "front.format")
    recorder.install(ClusterCommandProcessor, "execute", "front.execute")
    recorder.install(FerretCoordinator, "query", "coord.query", observe=probe.on_query)
    recorder.install(
        FerretCoordinator, "_fetch_signature", "coord.getsig", observe=probe.on_getsig
    )
    recorder.install(
        FerretCoordinator, "_scatter", "coord.scatter", observe=probe.on_scatter
    )
    recorder.install(FerretCoordinator, "merge_ranked", "coord.gather")
    recorder.install(BackendHandle, "send", "coord.backend_send", observe=probe.on_send)


def _node_engine_seconds(fleet) -> float:
    """Summed engine query time the backends report in their metrics."""
    from repro.server.client import FerretClient

    total = 0.0
    for host, port in fleet.supervisor.endpoints:
        with FerretClient(host, port) as client:
            total += float(client.metrics("engine.").get("engine.query_seconds_sum", 0))
    return total


def _errors_absorbed() -> float:
    from repro.observability import metrics

    return sum(
        metrics.counter(f"cluster.backend.{i}.errors").value for i in range(BACKENDS)
    )


class _Run:
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.out = C.Outcome()
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = C.fresh_dir("cluster")
        self.files = write_recordings(seed, self.work, INSERT_FILES)
        self.cursors = {"query": 0, "batch": 0, "insert": 0}
        self.fleet = None

    # -- inputs that need the corpus size ---------------------------------------------
    def reference(self) -> None:
        """One in-process engine over the same demo corpus: the oracle for
        the correctness sample, and the similarity groups for hit_at_10."""
        from repro.datatypes import build_demo_engine

        self.ref, bench = build_demo_engine("sensor", size=DEMO_SIZE, seed=DEMO_SEED)
        self.groups = {}
        for sim_set in bench.suite.sets:
            for member in sim_set.members:
                self.groups[member] = set(sim_set.members) - {member}
        n = len(self.ref)
        rng = C.rng_for(self.seed, "zipf")
        self.query_ids = [int(i) for i in zipf_ids(MAX_QUERIES, n, rng)]
        # Batch seeds are uniform: a run has room for only about ten
        # batches, too few to average out how many Zipf seeds the cache
        # happens to hold, so batch_qps measures the scatter path.
        self.batch_ids = [
            int(i) for i in C.rng_for(self.seed, "batch").integers(0, n, MAX_QUERIES)
        ]
        self.check_ids = [
            int(i) for i in C.rng_for(self.seed, "check").integers(0, n, CHECK_SAMPLE)
        ]
        self.warm_ids = [
            int(i) for i in C.rng_for(self.seed, "warm").integers(0, n, WARM_UP)
        ]

    def setup(self) -> None:
        times = []
        for i in range(SETUP_REPEATS):
            if self.fleet is not None:
                self.fleet.close()
                self.fleet = None
            started = time.perf_counter()
            self.fleet = _Fleet()
            times.append(time.perf_counter() - started)
        self.out.e2e["setup_s"] = C.median(times)

    # -- measured phases --------------------------------------------------------------
    def _client(self):
        from repro.server.client import FerretClient

        return FerretClient(*self.fleet.address)

    def _loop(self, kind, ops, seconds, recorder=None, check=None, clients=1):
        """``ops`` from ``self.cursors[kind]`` on, one connection per
        client thread; returns the log and the per-client wall time."""
        log = C.OpLog()
        opened = []

        def context():
            opened.append(self._client())
            return opened[-1]

        try:
            issued, wall = C.closed_loop(
                ops[self.cursors[kind]:], seconds, clients, log,
                check=check, context=context, recorder=recorder,
            )
        finally:
            for client in opened:
                client.close()
        self.cursors[kind] += issued
        self.out.log.merge(log)
        return log, wall / clients

    def queries(self, seconds, recorder=None):
        hits = [0, 0]
        lock = threading.Lock()

        def op(client, oid):
            results = client.query(oid, top=TOP_K)
            return oid, results, client.last_partial_shards

        def check(kind, result):
            oid, results, partial = result
            if partial:
                return f"PARTIAL reply, shards {partial} missing"
            group = self.groups.get(oid)
            if group:
                with lock:
                    hits[0] += any(r in group for r, _d in results)
                    hits[1] += 1
            return None

        ops = [("query", lambda c, oid=oid: op(c, oid)) for oid in self.query_ids]
        log, wall = self._loop("query", ops, seconds, recorder, check, CLIENTS)
        done = log.latencies.get("query", [])
        e2e, facts = C.latency_metrics(done, "query")
        e2e["query_qps"] = per(len(done), wall)
        e2e["hit_at_10"] = per(hits[0], hits[1])
        return e2e, facts

    def batches(self, seconds) -> float:
        """``querymany`` in batches of 16: answered queries per second of
        batch latency.  A run has room for only about ten batches, so this
        sums them all rather than taking the median batch."""
        ids = self.batch_ids

        def op(client, chunk):
            answers = client.querymany(chunk, top=TOP_K)
            return answers, client.last_partial_shards

        def check(kind, result):
            answers, partial = result
            if partial:
                return f"PARTIAL reply, shards {partial} missing"
            if len(answers) != BATCH:
                return f"{len(answers)} answers for {BATCH} seeds"
            return None

        ops = [
            ("batch", lambda c, chunk=ids[i:i + BATCH]: op(c, chunk))
            for i in range(0, len(ids), BATCH)
        ]
        log, _ = self._loop("batch", ops, seconds, check=check)
        done = log.latencies["batch"]
        return per(BATCH * len(done), sum(done))

    def inserts(self, seconds, files, recorder=None):
        """``insertfile`` of fresh recordings through the coordinator."""
        ops = [("insert", lambda c, path=path: c.insert_file(path)) for path in files]
        self.cursors["insert"] = 0
        log, _ = self._loop("insert", ops, seconds, recorder)
        return C.latency_metrics(log.latencies.get("insert", []), "insert")

    # -- checks and restart ------------------------------------------------------------
    def check_reference(self) -> None:
        """Cluster answers must equal the in-process engine's (ids exactly;
        distances to the wire's 6 decimals)."""
        with self._client() as client:
            for oid in self.check_ids:
                got = client.query(oid, top=TOP_K)
                partial = client.last_partial_shards
                want = self.ref.query(
                    self.ref.get_object(oid), top_k=TOP_K, exclude_self=True
                )
                same = not partial and [g for g, _ in got] == [
                    r.object_id for r in want
                ] and all(abs(d - r.distance) <= 1e-6 for (_, d), r in zip(got, want))
                self.out.check("check.reference", same, f"query {oid} differs")

    def restart(self) -> None:
        """Kill each backend in turn and start it again until it reports
        READY, twice over (median of the four); after each, answers must
        be complete again (the coordinator fails over from connections to
        the old process, and R=2 keeps every shard on the other backend)."""
        times = []
        for backend in self.fleet.supervisor.backends * RESTART_REPEATS:
            started = time.perf_counter()
            backend.restart()
            times.append(time.perf_counter() - started)
            with self._client() as client:
                for oid in self.check_ids[:4]:
                    client.query(oid, top=TOP_K)
                    self.out.check(
                        "check.after_restart", not client.last_partial_shards,
                        "PARTIAL reply after restart",
                    )
        self.out.e2e["restart_s"] = C.median(times)

    # -- the run ----------------------------------------------------------------------
    def run(self) -> C.Outcome:
        out = self.out
        try:
            self.reference()
            out.phase("inputs")
            self.setup()
            out.phase("setup")
            with self._client() as client:
                for oid in self.warm_ids:
                    client.query(oid, top=TOP_K)
            self._measure()
            out.phase("measure")
            self.check_reference()
            out.phase("check_reference")
            half = len(self.files) // 2
            s = self.seconds * INSERT_SHARE
            if not self.trace:
                ins, facts = self.inserts(s, self.files)
            else:
                untraced = self.inserts(s / 2, self.files[:half])[0]
                recorder = SpanRecorder()
                probe = _Probe()
                with recorder.installed(lambda rec: _install(rec, probe)):
                    ins, facts = self.inserts(s / 2, self.files[half:], recorder)
                out.layers.update(C.overhead(untraced, ins))
            out.e2e.update(ins)
            out.info.update(facts)
            out.phase("inserts")
            out.e2e["peak_rss_mb"] = (
                C.peak_rss_kb() + self.fleet.backend_peak_kb()
            ) / 1024.0
            # Last: a restarted backend rebuilds the seeded corpus only, so
            # it no longer holds the objects inserted above.
            self.restart()
            out.phase("restart")
            out.info["scan_backend"] = self._node_backends()
        finally:
            if self.fleet is not None:
                self.fleet.close()
            shutil.rmtree(self.work, ignore_errors=True)
        return out

    def _node_backends(self):
        from repro.server.client import FerretClient

        out = []
        for host, port in self.fleet.supervisor.endpoints:
            with FerretClient(host, port) as client:
                out.append(client.stat().get("parallel_backend_active", "?"))
        return out

    def _measure(self) -> None:
        out = self.out
        s = self.seconds
        if not self.trace:
            e2e, facts = self.queries(s * QUERY_SHARE)
            e2e["batch_qps"] = self.batches(s * BATCH_SHARE)
            out.e2e.update(e2e)
            out.info.update(facts)
            return
        # Untraced and traced halves; the wrappers are in place for the
        # traced half only, so the difference is the tracing overhead.
        untraced, _ = self.queries(s * QUERY_SHARE / 2)
        untraced["batch_qps"] = self.batches(s * BATCH_SHARE / 2)
        recorder = SpanRecorder(keep_samples={"coord.query"})
        probe = _Probe()
        with recorder.installed(lambda rec: _install(rec, probe)):
            before = recorder.snapshot()
            node_before = _node_engine_seconds(self.fleet)
            errors_before = _errors_absorbed()
            e2e, facts = self.queries(s * QUERY_SHARE / 2, recorder)
            view = PhaseView(recorder, before)
            node_seconds = _node_engine_seconds(self.fleet) - node_before
            out.layers.update(self._layers(view, probe, node_seconds, errors_before))
            e2e["batch_qps"] = self.batches(s * BATCH_SHARE / 2)
        out.e2e.update(e2e)
        out.info.update(facts)
        # The front end's spans run on the server's handler threads, not
        # under the client's root span: what they explain is summed
        # against the client round trips.  The remainder is the client
        # library, the socket and the handler loop.
        out.ledger_sum(
            sum(view.total(f"front.{n}") for n in ("parse", "execute", "format")),
            view.total("client.query"),
        )
        out.check(
            "check.predicted_zero", out.layers["ledger.hit_backend_calls"] == 0,
            "a coordinator cache hit reached a backend",
        )
        out.layers.update(C.overhead(untraced, e2e))

    def _layers(self, view, probe, node_seconds, errors_before):
        q = probe.queries
        client_ms = per(view.total("client.query"), view.count("client.query")) * 1e3
        parse_ms = per(view.total("front.parse"), view.count("front.parse")) * 1e3
        format_ms = per(view.total("front.format"), view.count("front.format")) * 1e3
        execute_ms = per(view.total("front.execute"), view.count("front.execute")) * 1e3
        calls = probe.sends["querysig"]
        rtt_ms = sorted(s * 1e3 for s in probe.rtt)
        engine_ms = per(node_seconds, calls) * 1e3
        coord = sorted(view.samples("coord.query"))
        sends = sum(probe.sends.values())
        return {
            "front.parse_us_per_cmd": parse_ms * 1e3,
            "front.format_us_per_reply": format_ms * 1e3,
            "front.execute_ms_per_query": execute_ms,
            "front.overhead_ms": client_ms - parse_ms - execute_ms - format_ms,
            "coord.query_ms_p50": C.median(coord) * 1e3 if coord else 0.0,
            "coord.getsig_ms_per_query": per(view.total("coord.getsig"), q) * 1e3,
            "coord.scatter_ms_per_query": per(view.total("coord.scatter"), q) * 1e3,
            "coord.shard_rtt_ms_p50": C.median(rtt_ms) if rtt_ms else 0.0,
            "coord.shard_rtt_ms_p99": (
                C.tail_percentile(rtt_ms)[1] if len(rtt_ms) > C.TAIL_SAMPLES else 0.0
            ),
            "coord.gather_ms_per_query": per(view.total("coord.gather"), q) * 1e3,
            "coord.self_ms_per_query": per(view.self_time("coord.query"), q) * 1e3,
            "coord.cache_hit_rate": per(probe.hits, q),
            "coord.backend_calls_per_query": per(sends, q),
            "coord.send_errors": _errors_absorbed() - errors_before,
            "node.engine_ms_per_call": engine_ms,
            "node.wire_overhead_ms": (sum(rtt_ms) / len(rtt_ms) if rtt_ms else 0.0)
            - engine_ms,
            "node.reply_bytes_per_call": per(probe.reply_bytes, calls),
            # Backend calls not accounted for by a cache miss's getsig and
            # scatter: predicted 0, since a cache hit reaches no backend.
            "ledger.hit_backend_calls": sends - probe.fan_calls,
        }


def run(seed: int, seconds: float, trace: bool) -> C.Outcome:
    return _Run(seed, seconds, trace).run()
