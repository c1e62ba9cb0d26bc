"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common as C  # noqa: E402
from ledger import PhaseView, SpanRecorder, sum_check  # noqa: E402

C.import_program()


# -- seeded inputs -------------------------------------------------------------
def _image_population(seed):
    from repro.datatypes.image import image_feature_meta

    meta = image_feature_meta()
    prototypes = C.cluster_prototypes(meta, C.rng_for(C.CORPUS_SEED, "prototypes"))
    return C.clustered_signatures(
        40, meta, 10.8, prototypes, C.rng_for(seed, "fresh")
    )


def _shape_population(seed):
    prototypes = np.abs(np.random.default_rng(0).normal(size=(5, 544)))
    return C.shape_signatures(30, prototypes, C.rng_for(seed, "corpus"))


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.object_id == y.object_id
        and np.array_equal(x.features, y.features)
        and np.array_equal(x.weights, y.weights)
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("make", [_image_population, _shape_population])
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert _same(make(7), make(7))
    assert not _same(make(7), make(8))


def test_perturbed_queries_and_zipf_ids_follow_the_seed():
    import wl_cluster

    base = _image_population(1)[0]
    meta = __import__("repro.datatypes.image", fromlist=["x"]).image_feature_meta()
    q1 = C.perturbed(base, meta, 0.08, C.rng_for(3, "search"))
    q2 = C.perturbed(base, meta, 0.08, C.rng_for(3, "search"))
    q3 = C.perturbed(base, meta, 0.08, C.rng_for(4, "search"))
    assert np.array_equal(q1.features, q2.features)
    assert not np.array_equal(q1.features, q3.features)
    ids = [wl_cluster.zipf_ids(500, 1250, C.rng_for(s, "zipf")) for s in (3, 3, 4)]
    assert np.array_equal(ids[0], ids[1])
    assert not np.array_equal(ids[0], ids[2])
    assert ids[0].min() >= 0 and ids[0].max() < 1250


def test_streams_of_one_seed_are_independent():
    a = C.rng_for(5, "search").random(8)
    b = C.rng_for(5, "batch").random(8)
    assert not np.array_equal(a, b)


# -- the tail-percentile rule -----------------------------------------------------
@pytest.mark.parametrize(
    "n, percent, beyond",
    [(11, 100 * 1 / 11, 10), (200, 95.0, 10), (1000, 99.0, 10), (5000, 99.0, 50)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percent, beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    got_percent, value = C.tail_percentile(samples)
    assert got_percent == pytest.approx(percent)
    assert sum(s > value for s in samples) == beyond
    assert beyond >= C.TAIL_SAMPLES


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        C.tail_percentile([1.0] * 10)


# -- the counting filesystem --------------------------------------------------------
def test_counting_fs_totals_match_file_sizes(tmp_path):
    from countingfs import CountingFileSystem
    from repro.storage.kvstore import KVStore

    fs = CountingFileSystem()
    store = KVStore(str(tmp_path), fs=fs, sync_policy="commit")
    for i in range(300):
        store.put("t", f"key{i:05d}".encode(), os.urandom(200))
    wal_before = fs.written("wal.")
    store.checkpoint()
    for i in range(50):
        store.put("t", f"more{i:05d}".encode(), os.urandom(100))
    store.close()
    assert wal_before > 300 * 200
    assert fs.fsyncs >= 300
    files = {os.path.basename(p): p for p in fs.bytes_written if os.path.exists(p)}
    assert "data.db" in files
    # The data file is rewritten in place; a log segment is written
    # exactly once.
    assert fs.bytes_written[files["data.db"]] >= os.path.getsize(files["data.db"])
    segments = [p for name, p in files.items() if name.startswith("wal.")]
    assert segments
    for path in segments:
        assert fs.bytes_written[path] == os.path.getsize(path), path


# -- the span recorder --------------------------------------------------------------
class _Layers:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.02)


def _install_layers(recorder):
    recorder.install(_Layers, "outer", "outer")
    recorder.install(_Layers, "inner", "inner")


def test_recorder_self_times_add_up_and_uninstall_restores():
    original = _Layers.__dict__["inner"]
    recorder = SpanRecorder()
    with recorder.installed(_install_layers):
        before = recorder.snapshot()
        with recorder.span("client.op") as root:
            assert _Layers().outer() == "done"
        view = PhaseView(recorder, before)
    assert _Layers.__dict__["inner"] is original
    assert view.count("inner") == 2
    assert view.count("client.op/inner") == 2
    assert view.self_time("outer") == pytest.approx(
        view.total("outer") - view.total("inner")
    )
    check = sum_check(recorder.attributed, root.duration)
    assert check["ledger.sum_share"] == pytest.approx(1.0, abs=0.01)
    assert check["ledger.sum_ok"] == 1.0


def test_ledger_sum_fails_on_time_no_layer_explains():
    recorder = SpanRecorder()
    with recorder.installed(_install_layers):
        with recorder.span("client.op") as root:
            _Layers().outer()
            time.sleep(0.02)  # an unwrapped slow section
    check = sum_check(recorder.attributed, root.duration)
    assert check["ledger.sum_share"] < 0.8
    assert check["ledger.sum_ok"] == 0.0


def test_recorder_wraps_static_methods():
    class Holder:
        @staticmethod
        def merge(a, b):
            return a + b

    recorder = SpanRecorder()
    recorder.install(Holder, "merge", "merge")
    assert Holder().merge(2, 3) == 5
    assert recorder.layers["merge"].count == 1
    recorder.uninstall()
    assert isinstance(Holder.__dict__["merge"], staticmethod)
