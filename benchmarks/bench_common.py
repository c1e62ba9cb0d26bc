"""Shared helpers for the benchmark harness (imported by bench modules)."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

SCALE = os.environ.get("FERRET_BENCH_SCALE", "default")

# Quick mode (FERRET_BENCH_SCALE=quick) shrinks every bench to a smoke
# run: CI's `make rank-smoke` uses it to produce the phase-split JSON in
# seconds.  Perf gates are skipped in quick mode (tiny datasets make
# speedup ratios meaningless); correctness assertions still run.
QUICK = SCALE == "quick"


def scaled(default: int, full: int, quick: int = None) -> int:
    """Pick a dataset size: quick smoke vs scaled-down default vs
    paper-sized full run."""
    if SCALE == "full":
        return full
    if QUICK:
        return quick if quick is not None else max(1, default // 8)
    return default


def write_result(name: str, lines) -> None:
    """Persist a table/series under benchmarks/results/<name>.txt and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join(str(line) for line in lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print()
    print(text)


def write_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result as BENCH_<name>.json at the repo
    root (where CI and the driver pick it up) and print the path.

    Quick-mode runs write BENCH_<name>_quick.json instead so a smoke run
    can never clobber the committed baseline."""
    suffix = "_quick" if QUICK else ""
    path = REPO_ROOT / f"BENCH_{name}{suffix}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


def host_facts() -> dict:
    """The facts a timing depends on: effective cores (affinity mask),
    machine and the Python/numpy/scipy versions."""
    import numpy
    import scipy

    from repro.core import available_cores

    return {
        "effective_cores": available_cores(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def build_engine(plugin, n_bits, filter_params=None, seed=0):
    from repro.core import FilterParams, SimilaritySearchEngine, SketchParams

    return SimilaritySearchEngine(
        plugin,
        SketchParams(n_bits, plugin.meta, seed=seed),
        filter_params
        or FilterParams(num_query_segments=4, candidates_per_segment=64),
    )
