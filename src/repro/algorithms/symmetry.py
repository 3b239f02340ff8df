"""Symmetric assignment and reverse-edge-offset computation.

The paper computes each count once (for ``u < v``) and mirrors it to
``e(v, u)``.  Finding ``e(v, u)`` takes a binary search of ``u`` in
``N(v)``; on the GPU this latency is hidden by *co-processing*
(Algorithm 4): while the GPU counts, the CPU stores each reverse offset
``e(u, v) ← e(v, u)`` so the final mirroring is a gather instead of a
search.  Both strategies are implemented here; their modeled costs feed
Table 5.

The production mirror (:func:`repro.kernels.batch.symmetric_assign`)
goes one step further on a compiled provider: it needs no reverse
offsets at all.  Walking the ``u < v`` edges in CSR order meets the
reverses ``e(v, u)`` of each row ``v`` in ascending ``u``, which is
their CSR order, so a per-vertex cursor ``cursor[v]`` always holds the
reverse offset Algorithm 4 would have stored — the co-processing step
becomes ``cnt[cursor[v]++] = cnt[e]``, one O(|E|) pass with |V| cursors.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.batch import reverse_edge_offsets
from repro.types import OpCounts

__all__ = [
    "reverse_offsets_via_search",
    "coprocess_reverse_offsets",
    "symmetric_assign_with_offsets",
]


def reverse_offsets_via_search(
    graph: CSRGraph, counts: OpCounts | None = None
) -> np.ndarray:
    """Reverse offsets through per-edge binary search (the slow path).

    For every edge offset ``e(u, v)`` locate ``u`` inside ``N(v)``.  The
    binary searches are the post-processing cost that co-processing hides;
    instrumentation records one binary step per probe so Table 5's modeled
    times derive from real counts.
    """
    src = graph.edge_sources()
    dst = graph.dst
    offsets = graph.offsets
    rev = np.empty(len(dst), dtype=np.int64)
    steps_total = 0
    for eo in range(len(dst)):
        v = int(dst[eo])
        u = int(src[eo])
        lo, hi = int(offsets[v]), int(offsets[v + 1])
        # Binary search of u in N(v).
        steps = 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if dst[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        rev[eo] = lo
        steps_total += steps
    if counts is not None:
        counts.binary_steps += steps_total
        counts.rand_words += steps_total
    return rev


def coprocess_reverse_offsets(graph: CSRGraph) -> np.ndarray:
    """Vectorized reverse offsets (the co-processing fast path).

    A single lexsort of the directed edge list by ``(dst, src)`` produces
    every reverse offset at once; this is what the CPU computes while the
    GPU counts in Algorithm 4.
    """
    return reverse_edge_offsets(graph)


def symmetric_assign_with_offsets(
    graph: CSRGraph, cnt: np.ndarray, rev: np.ndarray
) -> np.ndarray:
    """Mirror ``u < v`` counts onto ``u > v`` offsets using ``rev``."""
    src = graph.edge_sources()
    lower = src > graph.dst
    cnt[lower] = cnt[rev[lower]]
    return cnt
