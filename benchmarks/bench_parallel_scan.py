"""Thread-pool filtering scan vs the serial fused kernel.

Times the candidate-generation stage — the filtering scan over the
whole segment-sketch database — once per backend on the same snapshot:

1. serial fused scan (``sketch_filter_many``: one ``hamming_many_to_many``
   pass + vectorized deterministic selection),
2. the thread pool (``ThreadFilterPool``: zero-copy arena sharing,
   GIL-releasing ``np.bitwise_count`` kernel).

The pool is sized from the scheduler affinity mask
(:func:`repro.core.available_cores`), not ``os.cpu_count()`` — a
container pinned to 2 of 64 cores must not spin up 64 workers and
oversubscribe itself into a slowdown.

Correctness is asserted on every run: the pool must produce candidate
sets identical to the serial scan (the deterministic smallest-row-wins
tie rule makes the shard merge exact).

The >= 2x speedup gate only arms on hosts with at least 4 *effective*
cores and a database of at least 100k segments.  When it cannot arm,
the JSON carries an explicit ``speedup_gate_skipped_reason`` — a host
with no parallelism to measure reports *why* the gate is off instead of
silently disarming it.

Writes a human-readable table to benchmarks/results/ and the
machine-readable ``BENCH_parallel_scan.json`` at the repo root
(``python check_regression.py --parallel`` gates on it).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import (
    FilterParams,
    ObjectSignature,
    SegmentStore,
    ThreadFilterPool,
    available_cores,
    parallel_filter_candidates,
    sketch_filter_many,
)
from repro.core.parallel import hamming_kernel_releases_gil

from bench_common import QUICK, scaled, write_json, write_result

N_BITS = 256
N_WORDS = N_BITS // 64
SEGS_PER_OBJECT = 4
SPEEDUP_TARGET = 2.0
MIN_CORES_FOR_TARGET = 4
MIN_SEGMENTS_FOR_TARGET = 100_000


def _build_store(num_segments, seed=0):
    """Synthetic sketch database: the scan only reads packed words, so
    random sketches exercise exactly the measured code path."""
    rng = np.random.default_rng(seed)
    num_objects = num_segments // SEGS_PER_OBJECT
    store = SegmentStore(N_WORDS, dim=1, keep_features=False)
    feats = np.zeros((SEGS_PER_OBJECT, 1))
    for oid in range(num_objects):
        sketches = rng.integers(
            0, 2**64, size=(SEGS_PER_OBJECT, N_WORDS), dtype=np.uint64
        )
        store.add_object(oid, sketches, feats)
    return store, rng


def _make_queries(rng, num_queries):
    queries, sketches = [], []
    for qid in range(num_queries):
        queries.append(
            ObjectSignature(
                np.zeros((SEGS_PER_OBJECT, 1)),
                rng.random(SEGS_PER_OBJECT) + 0.1,
                object_id=10_000_000 + qid,
            )
        )
        sketches.append(
            rng.integers(
                0, 2**64, size=(SEGS_PER_OBJECT, N_WORDS), dtype=np.uint64
            )
        )
    return queries, sketches


def _time_batches(fn, repeats):
    out = fn()  # warm-up (and the correctness sample)
    started = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - started) / repeats, out


def _skip_reason(effective_cores, num_segments):
    if effective_cores < MIN_CORES_FOR_TARGET:
        return (
            f"host exposes {effective_cores} effective core(s) "
            f"(affinity mask), gate needs >={MIN_CORES_FOR_TARGET}"
        )
    if num_segments < MIN_SEGMENTS_FOR_TARGET:
        return (
            f"database of {num_segments} segments is below the "
            f"{MIN_SEGMENTS_FOR_TARGET}-segment floor"
        )
    return None


def test_parallel_scan():
    num_segments = scaled(120_000, 500_000)
    num_queries = scaled(8, 16)
    repeats = scaled(3, 3)
    effective_cores = available_cores()
    cpu_count = os.cpu_count() or 1
    # Affinity-sized pool: enough workers to use every *available*
    # core, never the raw cpu_count.  A floor of 2 keeps the sharded
    # merge (and so the correctness assertion) meaningful on 1-core
    # hosts.
    workers = max(2, effective_cores)
    params = FilterParams(
        num_query_segments=4, candidates_per_segment=64,
        threshold_fraction=0.45,
    )

    store, rng = _build_store(num_segments)
    queries, sketches = _make_queries(rng, num_queries)
    serial_s, serial_sets = _time_batches(
        lambda: sketch_filter_many(queries, sketches, store, params, N_BITS),
        repeats,
    )

    with ThreadFilterPool(num_workers=workers) as pool:
        started = time.perf_counter()
        epoch, owners, skm = store.versioned_snapshot()
        pool.load(owners, skm, epoch=epoch)
        load_s = time.perf_counter() - started
        shards = pool.n_shards
        par_s, (par_sets, _epoch) = _time_batches(
            lambda: parallel_filter_candidates(
                queries, sketches, params, N_BITS, pool
            ),
            repeats,
        )
    assert par_sets == serial_sets, "thread pool changed candidate sets"
    thread = {
        "workers": workers,
        "load_ms": load_s * 1e3,
        "batch_ms": par_s * 1e3,
        "speedup_vs_serial": serial_s / par_s,
    }
    best = thread["speedup_vs_serial"]
    reason = _skip_reason(effective_cores, num_segments)
    if QUICK and reason is None:
        reason = "quick mode (FERRET_BENCH_SCALE=quick): dataset too small"
    gate_armed = reason is None

    lines = [
        "# Thread-pool filtering scan vs serial fused kernel",
        f"# {num_segments} segments, {N_BITS}-bit sketches, "
        f"{num_queries} queries x r=4 segments",
        f"# {effective_cores} effective cores (affinity) of "
        f"{cpu_count} cpus; {workers}-worker pool ({shards} shards); "
        f"bitwise_count kernel: "
        f"{'yes' if hamming_kernel_releases_gil() else 'no'}",
        "",
        f"serial fused scan      {serial_s * 1e3:10.2f} ms/batch",
        f"thread pool            {par_s * 1e3:10.2f} ms/batch  "
        f"({best:.2f}x, load {load_s * 1e3:.1f} ms)",
        "",
        "candidate sets identical to the serial scan: yes",
        f"{SPEEDUP_TARGET}x speedup gate: "
        + ("ARMED" if gate_armed else f"skipped — {reason}"),
    ]
    write_result("parallel_scan", lines)
    write_json("parallel_scan", {
        "num_segments": num_segments,
        "n_bits": N_BITS,
        "num_queries": num_queries,
        "segments_per_query": SEGS_PER_OBJECT,
        "cpu_count": cpu_count,
        "effective_cores": effective_cores,
        "workers": workers,
        "shards": shards,
        "bitwise_count_kernel": hamming_kernel_releases_gil(),
        "serial_ms_per_batch": serial_s * 1e3,
        "backends": {"thread": thread},
        "best_speedup": best,
        "identical_candidate_sets": True,
        "speedup_gate_armed": gate_armed,
        "speedup_gate_skipped_reason": reason,
        "speedup_target": SPEEDUP_TARGET,
    })

    if gate_armed:
        assert best >= SPEEDUP_TARGET, (
            f"parallel scan speedup {best:.2f}x below the "
            f"{SPEEDUP_TARGET}x target on a "
            f"{effective_cores}-effective-core host"
        )


if __name__ == "__main__":
    test_parallel_scan()
