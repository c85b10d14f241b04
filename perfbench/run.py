"""Repository benchmark: four workloads through the library's public API.

Run from the repository root::

    python3 perfbench/run.py --workload xlmr-train --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload once with no instrumentation and prints
every end-to-end metric.  ``--trace 1`` runs it untraced and then again
with spans recorded around the calls into each layer, checks that both runs
produced identical traffic counters, and prints every per-layer metric
(including the tracing overhead).  Each run checks the outputs; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 if any check failed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: End-to-end metrics (untraced run) and their units.
E2E_UNITS = {
    "samples_per_s": "1/s",
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "bytes_per_access": "B",
    "client_mem_bytes": "B",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}

#: Per-layer metrics (traced run) and their units.
LAYER_UNITS = {
    "core.plan_s": "s",
    "core.place_s": "s",
    "oram.execute_s": "s",
    "oram.us_per_path": "us",
    "oram.path_reads_per_access": "count",
    "oram.stash_hit_ratio": "frac",
    "oram.dummy_reads_per_access": "count",
    "oram.stash_peak": "count",
    "oram.posmap_paths_per_access": "count",
    "oram.posmap_bytes_per_access": "B",
    "oram.construct_s": "s",
    "embedding.load_s": "s",
    "embedding.fetch_s": "s",
    "embedding.update_s": "s",
    "embedding.store_self_s": "s",
    "embedding.model_s": "s",
    "sharded.start_s": "s",
    "sharded.batch_exec_ms.p50": "ms",
    "sharded.batch_exec_ms.p99": "ms",
    "serving.batch_ids_mean": "count",
    "serving.gen_late_ms": "ms",
    "serving.p50_ms": "ms",
    "serving.p99_ms": "ms",
    "serving.max_ok_rps": "1/s",
    "trace.overhead_frac": "frac",
}

WORKLOAD_NAMES = ("xlmr-train", "dlrm-train", "kaggle-trace", "zipf-serve")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, layer_metrics

    run = WORKLOADS[args.workload]
    plain = run(args.seed, args.seconds, None, check_reference=True)
    failures = list(plain.failures)
    attempted = plain.attempted
    if args.trace:
        tracer = Tracer()
        traced = run(args.seed, args.seconds, tracer, check_reference=False)
        failures += traced.failures
        attempted += traced.attempted + 1
        if traced.fingerprint != plain.fingerprint:
            failures.append("traced run's counters differ from the untraced run's")
        values, units = layer_metrics(tracer, traced, plain), LAYER_UNITS
    else:
        values, units = plain.metrics, E2E_UNITS

    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        print(f"{name:30s} {value:14.6g} {unit}")
        # A non-finite value only arises from failed requests, which the
        # checks already report; JSON has no spelling for it.
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
