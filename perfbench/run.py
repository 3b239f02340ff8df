"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload count-skewed --seed 1 --seconds 16 --trace 0

Stdout ends with two JSON lines: the full result record (provenance,
workload-specific metrics with units and sample counts, per-layer values,
missing layers), then the result object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` reports the per-layer metrics of a traced
run.  A wrong answer aborts the run with exit code 3; a checkout without
``src/repro`` exits with code 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("count-skewed", "count-uniform", "motif-clique", "serve-mixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Make ``repro`` importable from this checkout's sources and keep the
    compiled-kernel cache inside the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, src)
    from perfbench import host

    os.makedirs(host.BUILD_DIR, exist_ok=True)
    os.environ["REPRO_COMPILED_CACHE"] = os.path.join(host.BUILD_DIR, "compiled")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "serve-mixed":
        from perfbench import serving

        return serving.run(seed, seconds, trace)
    from perfbench import counting

    spec = {
        "count-skewed": counting.COUNT_SKEWED,
        "count-uniform": counting.COUNT_UNIFORM,
        "motif-clique": counting.MOTIF_CLIQUE,
    }[name]
    return counting.run(spec, seed, seconds, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    from perfbench import host
    from perfbench.metrics import END_TO_END, PER_LAYER, CorrectnessError, final_line, plain

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": host.provenance(args.seed),
    }
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CorrectnessError as exc:
        print(f"perfbench: wrong answer, run aborted: {exc}", file=sys.stderr)
        record["error"] = str(exc)
        print(json.dumps({"record": record}, default=plain))
        print(json.dumps(final_line(False, 1, 1, {}, {})))
        return 3
    record.update(
        attempted=out.attempted,
        failed=out.failed,
        metrics=out.detail,
        layers=out.layers,
        missing=out.missing,
    )
    print(json.dumps({"record": record}, default=plain))
    if args.trace:
        line = final_line(True, out.attempted, out.failed, out.layers, PER_LAYER)
    else:
        line = final_line(True, out.attempted, out.failed, out.e2e, END_TO_END)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
