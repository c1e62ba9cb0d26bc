"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload image-ingest --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
The line before it (``# info {...}``) holds the host and build facts,
the scan backend the workload ran, tail percentiles and sample counts.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common as C  # noqa: E402

WORKLOADS = {
    "image-ingest": "wl_image",
    "shape-scan": "wl_shape",
    "cluster-served": "wl_cluster",
}


def _spec() -> dict:
    return json.loads((C.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        C.import_program()
    except (C.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = _spec()
    module = __import__(WORKLOADS[args.workload])
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            C.WORK_DIR.rmdir()  # only when the workload left nothing behind
        except OSError:
            pass

    log = outcome.log
    attempted, failed = log.attempted, log.failed
    kinds = sorted(set(log.latencies) | set(log.failures))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": C.host_facts(),
        "error_rate": failed / attempted if attempted else 0.0,
        "errors": log.errors,
        "operations": {k: log.count(k) for k in kinds},
        "end_to_end": outcome.e2e,
        **outcome.info,
    }
    if args.trace:
        wanted, values = spec["per_layer"], outcome.layers
    else:
        wanted, values = spec["end_to_end"], outcome.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    if args.trace:
        # Layers a workload does not cross read 0; that is a prediction
        # (for example, no transport solves on shape-scan), not a gap.
        info["layers_not_crossed"] = missing
    elif missing:
        print(f"perfbench: workload produced no {missing}", file=sys.stderr)
        return 3
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
