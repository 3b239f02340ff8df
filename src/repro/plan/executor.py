"""Execute a hybrid plan: one vectorized pass per kernel bucket.

The planner (:mod:`repro.plan.planner`) decides *where* each ``u < v``
edge's count comes from; this module runs the three production kernels
over their buckets and fuses everything through
:func:`repro.kernels.batch.symmetric_assign`:

* **cover** bucket → no kernel at all: zero-class edges keep the zeroed
  count vector, probe-class edges run one batched wedge-closure search
  (:func:`repro.plan.coveredge.probe_cover_counts`)
* **gallop** bucket → :func:`count_edges_galloping`
* **bitmap** bucket → :func:`count_edges_bitmap`
* **matmul** bucket → :func:`repro.kernels.batch.count_all_edges_matmul`
  restricted to the planned rows

The gallop and bitmap buckets run on the compiled kernels
(:mod:`repro.compiled`) whenever a provider exists, and on the NumPy
kernels (:mod:`repro.kernels.batchsearch`, :mod:`repro.kernels.batch`)
otherwise; the mirror does the same inside ``symmetric_assign``.  Every
pair is bit-exact, and each :class:`BucketTiming` names the provider
that ran (``"cc"``, ``"numba"`` or ``"numpy"``).

SpGEMM over a row produces counts for *all* of the row's edge offsets, not
just the planned ones; writing them is harmless because every kernel is
exact — overlapping writes agree bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import compiled
from repro.graph.csr import CSRGraph
from repro.kernels import batch, batchsearch
from repro.kernels.batch import count_all_edges_matmul, symmetric_assign
from repro.plan.planner import DEFAULT_SKEW_THRESHOLD, ExecutionPlan, get_plan

__all__ = [
    "HybridReport",
    "execute_plan",
    "count_all_edges_hybrid",
    "count_edges_galloping",
    "count_edges_bitmap",
]


def count_edges_galloping(graph: CSRGraph, edge_offsets: np.ndarray) -> np.ndarray:
    """Gallop-bucket counts aligned with ``edge_offsets``: the compiled
    kernel when a provider exists, the NumPy one otherwise."""
    if compiled.available():
        return compiled.count_edges_galloping_compiled(graph, edge_offsets)
    return batchsearch.count_edges_galloping(graph, edge_offsets)


def count_edges_bitmap(
    graph: CSRGraph, edge_offsets: np.ndarray, cnt: np.ndarray
) -> None:
    """Bitmap-bucket counts written into ``cnt``: the compiled kernel
    when a provider exists, the NumPy one otherwise."""
    if compiled.available():
        compiled.count_edges_bitmap_compiled(graph, edge_offsets, cnt)
    else:
        batch.count_edges_bitmap(graph, edge_offsets, cnt)


@dataclass(frozen=True)
class BucketTiming:
    """Measured wall time of one bucket next to the planner's prediction,
    and the kernel provider that ran it (``"cc"``, ``"numba"`` or
    ``"numpy"``)."""

    name: str
    edges: int
    predicted_ns: float
    measured_seconds: float
    provider: str = "numpy"

    @property
    def measured_ms(self) -> float:
        return self.measured_seconds * 1e3


@dataclass(frozen=True)
class HybridReport:
    """Execution record of one hybrid run (bench/CLI telemetry)."""

    plan: ExecutionPlan
    timings: tuple[BucketTiming, ...]
    fuse_seconds: float
    total_seconds: float

    def format(self) -> str:
        return self.plan.format() + "\n" + self.format_runs()

    def format_runs(self) -> str:
        """The measured part of :meth:`format`: one line per bucket with
        its provider, then the mirror and the total."""
        lines = [
            f"ran    {t.name:7s}: {t.edges:>8d} edges in {t.measured_ms:9.2f} ms"
            f" (predicted {t.predicted_ns / 1e6:9.2f} ms) on {t.provider}"
            for t in self.timings
        ]
        lines.append(f"symmetric assign : {self.fuse_seconds * 1e3:.2f} ms")
        lines.append(f"total            : {self.total_seconds * 1e3:.2f} ms")
        return "\n".join(lines)


def _bitmap_edge_chunks(plan: ExecutionPlan, num_chunks: int) -> list[np.ndarray]:
    """Split the bitmap bucket into cost-balanced contiguous edge chunks.

    Cuts the cumulative predicted-cost curve of ``plan.bitmap_cost`` into
    ``num_chunks`` equal-work spans — the same work-balanced partitioning
    the parallel backend applies per vertex, here at edge granularity.
    """
    eo = plan.bitmap_edges
    m = len(eo)
    num_chunks = max(1, min(num_chunks, m))
    cost = plan.bitmap_cost
    if cost is None or len(cost) != m:
        bounds = np.linspace(0, m, num_chunks + 1).astype(np.int64)
    else:
        cum = np.concatenate([[0.0], np.cumsum(cost)])
        targets = np.linspace(0.0, cum[-1], num_chunks + 1)
        bounds = np.searchsorted(cum, targets, side="left")
        bounds[0], bounds[-1] = 0, m
        bounds = np.maximum.accumulate(bounds)
    return [
        eo[int(bounds[i]) : int(bounds[i + 1])]
        for i in range(num_chunks)
        if bounds[i] < bounds[i + 1]
    ]


def execute_plan(
    graph: CSRGraph,
    plan: ExecutionPlan,
    pool=None,
    chunks_per_worker: int = 4,
) -> tuple[np.ndarray, HybridReport]:
    """Run every bucket of ``plan`` and mirror to the full count vector.

    With a started :class:`~repro.parallel.threadpool.ParallelCounter` as
    ``pool``, the bitmap bucket — the hybrid plan's dominant work on
    real graphs — is split into ``effective_workers × chunks_per_worker``
    cost-balanced edge chunks and farmed out to the persistent workers,
    which run the NumPy kernel; the gallop and matmul buckets stay
    in-process.  Results are bit-identical either way.
    """
    t_start = time.perf_counter()
    kernel_provider = compiled.provider() or "numpy"
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    timings = []

    bucket_ns = {b.name: b.predicted_ns for b in plan.buckets()}

    # Cover bucket: zero-class edges need no write (cnt starts zeroed);
    # probe-class edges are one batched wedge-closure search each.
    t0 = time.perf_counter()
    if len(plan.cover_probe_edges):
        from repro.plan.coveredge import probe_cover_counts

        cnt[plan.cover_probe_edges] = probe_cover_counts(
            graph, plan.cover_probe_src, plan.cover_probe_target
        )
    timings.append(
        BucketTiming(
            "cover",
            plan.num_cover_edges,
            bucket_ns["cover"],
            time.perf_counter() - t0,
            kernel_provider,
        )
    )

    t0 = time.perf_counter()
    if len(plan.gallop_edges):
        cnt[plan.gallop_edges] = count_edges_galloping(graph, plan.gallop_edges)
    timings.append(
        BucketTiming(
            "gallop",
            len(plan.gallop_edges),
            bucket_ns["gallop"],
            time.perf_counter() - t0,
            kernel_provider,
        )
    )

    t0 = time.perf_counter()
    bitmap_provider = kernel_provider
    if len(plan.bitmap_edges):
        if pool is not None and pool.is_parallel:
            bitmap_provider = "numpy"
            num_chunks = pool.effective_workers * max(1, int(chunks_per_worker))
            chunks = _bitmap_edge_chunks(plan, num_chunks)
            for eo, vals in pool.run_edge_chunks(chunks):
                cnt[eo] = vals
        else:
            count_edges_bitmap(graph, plan.bitmap_edges, cnt)
    timings.append(
        BucketTiming(
            "bitmap",
            len(plan.bitmap_edges),
            bucket_ns["bitmap"],
            time.perf_counter() - t0,
            bitmap_provider,
        )
    )

    t0 = time.perf_counter()
    if len(plan.matmul_rows):
        mm = count_all_edges_matmul(graph, rows=plan.matmul_rows)
        # The row product covers all of the row's offsets; restricting the
        # write to planned offsets would only discard identical values.
        lo = graph.offsets[plan.matmul_rows]
        hi = graph.offsets[plan.matmul_rows + 1]
        for a, b in zip(lo, hi):
            cnt[a:b] = mm[a:b]
    timings.append(
        BucketTiming(
            "matmul",
            len(plan.matmul_edges),
            bucket_ns["matmul"],
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    symmetric_assign(graph, cnt)
    fuse_seconds = time.perf_counter() - t0

    report = HybridReport(
        plan=plan,
        timings=tuple(timings),
        fuse_seconds=fuse_seconds,
        total_seconds=time.perf_counter() - t_start,
    )
    return cnt, report


def count_all_edges_hybrid(
    graph: CSRGraph,
    skew_threshold: float = DEFAULT_SKEW_THRESHOLD,
    return_report: bool = False,
    cover: bool = True,
):
    """Plan (cached) + execute; the ``backend="hybrid"`` entry point.

    ``cover=False`` disables the cover-edge pre-pass bucket — every edge
    runs on a real intersection kernel (the pre-cover behavior, kept as
    a differential fuzz path and a planner A/B knob).
    """
    plan = get_plan(graph, skew_threshold, cover=cover)
    cnt, report = execute_plan(graph, plan)
    if return_report:
        return cnt, report
    return cnt
