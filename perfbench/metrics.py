"""Metric catalog and the statistics every workload reports with.

``END_TO_END`` and ``PER_LAYER`` are read from ``BENCHMARK.json``;
every workload prints all of them (a per-layer value is 0 on a workload
that does not exercise the layer).

The gated end-to-end set is the part of each workload's metrics that
repeats within a bound on a shared 2-CPU host: set-up time and the median
latency of the workload's operation (for the in-process workloads both
scaled to a reference host speed, :class:`perfbench.host.HostSpeed`), and
peak memory.  Tails and
throughputs are printed raw in the result record with their sample
counts but are not gated, because their run-to-run spread there exceeds
any bound the benchmark may set (see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
import math
import os

from perfbench.host import ROOT


def _catalog(section: str) -> dict:
    """name -> unit of one metric list of ``BENCHMARK.json``, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


#: Measured with tracing off (``--trace 0``).
END_TO_END = _catalog("end_to_end")

#: Measured by the traced run (``--trace 1``).
PER_LAYER = _catalog("per_layer")

#: Per-layer metrics computed even when their layer's hooks are missing.
ALWAYS_REPORTED = {"kernels.unattributed_ms"}


def percentile(values, q: float) -> dict:
    """The ``q``-th percentile (0-100, linear interpolation) of
    ``values`` with its sample count: ``{"value": v, "n": len(values)}``.

    ``inf`` entries (failed operations) sort last, so a failure misses
    every latency limit.  An empty sample gives ``value=None``.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"value": None, "n": 0}
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    a, b = xs[lo], xs[hi]
    if math.isinf(a) or math.isinf(b):
        value = b if pos > lo else a
    else:
        value = a + (b - a) * (pos - lo)
    return {"value": value, "n": n}


def median(values) -> float | None:
    return percentile(values, 50.0)["value"]


def plain(value):
    """``value`` with NumPy scalars turned into Python numbers (JSON)."""
    return value.item() if hasattr(value, "item") else value


def final_line(correct: bool, attempted: int, failed: int, metrics: dict,
               catalog: dict) -> dict:
    """The result object the benchmark prints last: every metric of
    ``catalog`` with its unit, in catalog order."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": plain(metrics.get(name)), "unit": unit}
            for name, unit in catalog.items()
        },
    }


class CorrectnessError(Exception):
    """An answer differed from its reference: the run is aborted."""


class Outcome:
    """What one workload run measured.

    ``e2e`` holds the gated end-to-end values (tracing off), ``layers``
    the per-layer values (traced run), ``detail`` every end-to-end metric
    of the workload under its own name with unit and sample count,
    ``missing`` every layer whose hooks could not be installed (its
    metrics are ``None``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.e2e: dict = {}
        self.layers: dict = {name: 0.0 for name in PER_LAYER}
        self.detail: dict = {}
        self.missing: dict = {}

    def note(self, name: str, value, unit: str, n: int | None = None) -> None:
        self.detail[name] = {"value": plain(value), "unit": unit}
        if n is not None:
            self.detail[name]["n"] = n

    def mark_missing(self, missing: dict) -> None:
        """Null every per-layer metric of each missing layer, except the
        unattributed remainder, which is always reported."""
        self.missing.update(missing)
        for name in self.layers:
            if name in ALWAYS_REPORTED:
                continue
            if any(name.startswith(layer + ".") for layer in missing):
                self.layers[name] = None
