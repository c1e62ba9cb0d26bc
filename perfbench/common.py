"""Shared helpers of the repo benchmark: program import, seeded inputs,
tail percentiles, the closed-loop runner, host facts and memory.

Nothing here imports ``repro`` at module load: :func:`import_program`
puts the checkout's ``src/`` on the path first, and fails cleanly when
the program is not there.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ledger import sum_check

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch space for store directories and sensor files; inside the
#: checkout and ignored by git.
WORK_DIR = REPO_ROOT / ".perfbench_work"

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10
#: Alternations of a workload's measured phases in an untraced run.
ROUNDS = 4


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def import_program() -> None:
    """Make ``src/`` importable and check that the program is there."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    # Backend subprocesses inherit this environment.
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    import repro  # noqa: F401  (fails loudly if the package is broken)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percent, value)`` of the highest percentile, at most p99, that
    has at least :data:`TAIL_SAMPLES` samples strictly beyond it in the
    sorted order.

    With 1000 or more samples this is p99; below that the reported
    percentile drops to ``100 * (n - 10) / n``.  Needs at least 11
    samples.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES:
        raise ValueError(f"need more than {TAIL_SAMPLES} samples, got {n}")
    beyond = max(TAIL_SAMPLES, math.ceil(0.01 * n))
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
#: Seed of every workload's resident corpus.  The corpus is the same for
#: every ``--seed``; the seed draws what the program is asked to do
#: (queries, the operation mix, the objects it inserts), so runs on
#: different seeds differ in their requests, not in their data set.
CORPUS_SEED = 2006


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream of one seed."""
    return np.random.default_rng([seed, sum(map(ord, stream)), len(stream)])


def cluster_prototypes(meta, rng: np.random.Generator, count: int = 128) -> np.ndarray:
    """Random prototype vectors inside ``meta``'s bounds."""
    return meta.min_values + rng.random((count, meta.dim)) * meta.ranges


def clustered_signatures(
    count: int,
    meta,
    avg_segments: float,
    prototypes: np.ndarray,
    rng: np.random.Generator,
    spread: float = 0.08,
    first_id: int = 0,
) -> list:
    """The population of ``repro.datatypes.bulk.clustered_dataset``
    (Poisson segment counts around ``prototypes``), built without that
    helper's quadratic id assignment."""
    from repro.core.types import ObjectSignature, normalize_weights

    span = meta.ranges
    out = []
    for i in range(count):
        k = max(1, int(rng.poisson(avg_segments)))
        chosen = rng.integers(0, len(prototypes), size=k)
        feats = prototypes[chosen] + rng.normal(0.0, spread, (k, meta.dim)) * span
        feats = np.clip(feats, meta.min_values, meta.max_values)
        weights = normalize_weights(rng.gamma(2.0, 1.0, size=k))
        out.append(
            ObjectSignature(feats, weights, object_id=first_id + i, normalize=False)
        )
    return out


def shape_prototypes(rng: np.random.Generator) -> np.ndarray:
    """One real spherical-harmonic descriptor per parametric shape class,
    as ``repro.datatypes.bulk.bulk_shape_dataset`` draws them."""
    from repro.datatypes.shape import SHAPE_CLASSES, descriptor_from_mesh, make_instance

    return np.stack(
        [
            descriptor_from_mesh(
                make_instance(cls, rng), num_samples=3000,
                rng=np.random.default_rng(i),
            )
            for i, cls in enumerate(SHAPE_CLASSES)
        ]
    )


def shape_signatures(
    count: int, prototypes: np.ndarray, rng: np.random.Generator, first_id: int = 0
) -> list:
    """Single-segment shape descriptors jittered around ``prototypes``
    (the ``bulk_shape_dataset`` population, generated in blocks)."""
    from repro.core.types import ObjectSignature

    scale = prototypes.std()
    out = []
    block = 4096
    for start in range(0, count, block):
        n = min(block, count - start)
        picks = rng.integers(0, len(prototypes), size=n)
        rows = np.maximum(
            prototypes[picks] + rng.normal(0.0, 0.15 * scale, (n, prototypes.shape[1])),
            0.0,
        )
        for j in range(n):
            out.append(
                ObjectSignature(rows[j : j + 1], [1.0], object_id=first_id + start + j)
            )
    return out


def perturbed(signature, meta, noise: float, rng: np.random.Generator):
    """A fresh copy of ``signature`` with Gaussian feature noise of
    ``noise`` times each dimension's range (no object id)."""
    from repro.core.types import ObjectSignature

    feats = signature.features + rng.normal(
        0.0, noise, signature.features.shape
    ) * meta.ranges
    feats = np.clip(feats, meta.min_values, meta.max_values)
    return ObjectSignature(feats, signature.weights, normalize=False)


# ----------------------------------------------------------------------
# Closed-loop runner
# ----------------------------------------------------------------------
class OpLog:
    """Latencies and failures per operation kind (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies: Dict[str, List[float]] = {}
        self.failures: Dict[str, int] = {}
        self.errors: List[str] = []

    def record(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind: str, error: str) -> None:
        with self._lock:
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {error}")

    def merge(self, other: "OpLog") -> None:
        with self._lock:
            for kind, samples in other.latencies.items():
                self.latencies.setdefault(kind, []).extend(samples)
            for kind, n in other.failures.items():
                self.failures[kind] = self.failures.get(kind, 0) + n
            self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])

    def count(self, kind: str) -> int:
        return len(self.latencies.get(kind, ())) + self.failures.get(kind, 0)

    @property
    def attempted(self) -> int:
        kinds = set(self.latencies) | set(self.failures)
        return sum(self.count(k) for k in kinds)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def closed_loop(
    ops: Sequence[Tuple[str, Callable[[object], object]]],
    seconds: float,
    clients: int,
    log: OpLog,
    check: Optional[Callable[[str, object], Optional[str]]] = None,
    context: Optional[Callable[[], object]] = None,
    recorder=None,
) -> Tuple[int, float]:
    """Run ``ops`` in order from ``clients`` threads, each issuing its
    next operation only after the previous one returned, until
    ``seconds`` elapse or the list runs out.

    Each op is called with its thread's ``context()`` (``None`` without
    a factory).  ``check(kind, result)`` returns an error string
    for a wrong answer; exceptions and wrong answers both count as
    failures.  With a ledger ``recorder`` every op runs inside a
    ``client.<kind>`` root span.  Returns ``(operations issued, summed
    per-thread wall seconds)``.
    """
    lock = threading.Lock()
    cursor = [0]
    walls: List[float] = []
    deadline = time.perf_counter() + seconds

    def worker() -> None:
        ctx = context() if context is not None else None
        started = time.perf_counter()
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                if index >= len(ops):
                    break
                cursor[0] += 1
            kind, op = ops[index]
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    result = op(ctx)
                else:
                    with recorder.span("client." + kind):
                        result = op(ctx)
            except Exception as exc:  # counted, the loop keeps running
                log.fail(kind, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            problem = check(kind, result) if check is not None else None
            if problem is not None:
                log.fail(kind, problem)
            else:
                log.record(kind, elapsed)
        with lock:
            walls.append(time.perf_counter() - started)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return cursor[0], sum(walls)


def latency_metrics(
    samples: Sequence[float], prefix: str
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``<prefix>_p50_ms``, ``<prefix>_p90_ms`` and ``<prefix>_p99_ms``
    (the highest percentile with ten samples beyond it, see
    :func:`tail_percentile`), plus that percentile and the sample count."""
    pct, tail = tail_percentile(samples)
    return (
        {
            f"{prefix}_p50_ms": median(samples) * 1e3,
            f"{prefix}_p90_ms": float(np.percentile(samples, 90)) * 1e3,
            f"{prefix}_p99_ms": tail * 1e3,
        },
        {f"{prefix}_tail_percentile": round(pct, 3), f"{prefix}_samples": len(samples)},
    )


# ----------------------------------------------------------------------
# Host facts and memory
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, object]:
    import scipy

    from repro.core import bitvector

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return {
        "effective_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bitwise_count_kernel": bool(getattr(bitvector, "_HAS_BITWISE_COUNT", False)),
        "machine": platform.machine(),
    }


def _status_kb(pid: object, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_kb(pid: object = "self") -> int:
    """Peak resident set of a process (``VmHWM``), in KiB."""
    kb = _status_kb(pid, "VmHWM")
    if kb is None and pid == "self":
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kb or 0)


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.log = OpLog()
        self._phase_started = time.perf_counter()

    def phase(self, name: str) -> None:
        """Close the current run phase under ``name`` (wall seconds in
        ``info["phase_s"]``, so a slow run shows where its time went)."""
        now = time.perf_counter()
        self.info.setdefault("phase_s", {})[name] = round(now - self._phase_started, 3)
        self._phase_started = now

    def check(self, kind: str, ok: bool, detail: str = "") -> None:
        """One correctness check made outside the timed loop."""
        if ok:
            self.log.record(kind, 0.0)
        else:
            self.log.fail(kind, detail or "wrong answer")

    def ledger_sum(self, attributed: float, wall: float) -> None:
        """The ledger's sum self-check (:func:`ledger.sum_check`), printed
        as per-layer metrics and counted as a check that fails the run."""
        result = sum_check(attributed, wall)
        self.layers.update(result)
        self.check(
            "check.ledger_sum", result["ledger.sum_ok"] == 1.0,
            f"layers explain {result['ledger.sum_share']:.3f} of the wall time",
        )


#: End-to-end timings measured in both halves of a traced run.
TIMED_METRICS = (
    "query_p50_ms", "query_p90_ms", "query_p99_ms", "query_qps", "batch_qps",
    "insert_p50_ms", "insert_p90_ms", "insert_p99_ms",
)


def overhead(untraced: Dict[str, float], traced: Dict[str, float]) -> Dict[str, float]:
    """Tracing overhead per timed end-to-end metric: traced minus
    untraced, from the two halves of one traced run."""
    return {
        f"ledger.overhead.{name}": traced[name] - untraced[name]
        for name in TIMED_METRICS
        if name in traced and name in untraced
    }


def fresh_dir(name: str) -> Path:
    import shutil

    path = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
