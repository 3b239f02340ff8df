"""Compiled variants of the per-edge intersection hot loops.

The paper's premise is that all-edge common neighbor counting is bound
by the raw speed of the intersection inner loops; everything else in
this reproduction orchestrates NumPy dispatches around them.  This
package drops the interpreter from those loops entirely.  Four kernels
are provided — the galloping (exponential + binary lower bound)
intersection, the batched lower-bound search, the BMP mark/probe loop,
and the cursor mirror of the symmetric assignment — through whichever
*provider* the host supports:

``numba``
    ``@njit``-compiled machine code (preferred: vendor-tested codegen,
    on-disk jit cache, ``nogil`` so serving dispatch threads overlap).
``cc``
    The same loops as one small C translation unit, compiled on first
    use with the system C compiler and bound via ctypes
    (:mod:`repro.compiled._ccjit`) — covers images that ship a
    toolchain but no numba wheel.

The default count path runs on these kernels whenever a provider
exists: the hybrid plan executor (:mod:`repro.plan.executor`) sends its
gallop and bitmap buckets here, and
:func:`repro.kernels.batch.symmetric_assign` mirrors through
:func:`mirror_counts_compiled`.  When neither dependency exists the
package still imports cleanly and :func:`available` answers ``False``:
those paths run their NumPy kernels, the registry entries built on top
of it (``gallop-compiled``/``bitmap-compiled`` in
:mod:`repro.engine.registry`) are declared unavailable, and the fuzzer
skips them.

Selection is automatic (numba, else cc, else unavailable) and can be
forced with ``REPRO_COMPILED=numba|cc|off`` for debugging and the
optional-dependency CI matrix.

All kernels are **bit-exact** against their interpreted counterparts
(:mod:`repro.kernels.batchsearch`, :mod:`repro.kernels.batch`) — the
differential fuzzer cross-checks them on every registered path.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = [
    "provider",
    "available",
    "unavailable_reason",
    "require",
    "reset_provider_cache",
    "count_edges_galloping_compiled",
    "count_edges_bitmap_compiled",
    "batched_lower_bound_compiled",
    "mirror_counts_compiled",
]

_UNSET = object()
_provider = _UNSET
_impl = None


def _probe_numba():
    try:
        from repro.compiled import _numbajit
    except ImportError:
        return None
    return _numbajit


def _probe_cc():
    from repro.compiled import _ccjit

    lib = _ccjit.load()
    if lib is None:
        return None

    class _CCImpl:
        @staticmethod
        def gallop_counts(offsets, dst, small, large, out):
            lib.repro_gallop_counts(offsets, dst, small, large, len(small), out)

        @staticmethod
        def lower_bound_batch(hay, lo, hi, targets, out):
            lib.repro_lower_bound_batch(hay, lo, hi, targets, len(targets), out)

        @staticmethod
        def bitmap_counts(offsets, n, dst, eo, mark, cnt, aligned):
            lib.repro_bitmap_counts(
                offsets, n, dst, eo, len(eo), mark, cnt, int(aligned)
            )

        @staticmethod
        def mirror_counts(offsets, dst, n, cursor, cnt):
            return lib.repro_mirror_counts(offsets, dst, n, cursor, cnt)

    return _CCImpl


def provider() -> str | None:
    """The selected provider name (``"numba"``/``"cc"``) or ``None``.

    Resolution order is numba, then the system C toolchain; the
    ``REPRO_COMPILED`` environment variable forces one provider
    (``numba``/``cc``) or disables compilation outright (``off``).  The
    probe result is cached for the process (see
    :func:`reset_provider_cache`).
    """
    global _provider, _impl
    if _provider is not _UNSET:
        return _provider
    forced = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    candidates = {
        "auto": (("numba", _probe_numba), ("cc", _probe_cc)),
        "numba": (("numba", _probe_numba),),
        "cc": (("cc", _probe_cc),),
    }.get(forced, ())
    if forced in ("off", "0", "none", "false"):
        candidates = ()
    _provider, _impl = None, None
    for name, probe in candidates:
        impl = probe()
        if impl is not None:
            _provider, _impl = name, impl
            break
    return _provider


def available() -> bool:
    """True when a compiled provider is usable on this host."""
    return provider() is not None


def unavailable_reason() -> str | None:
    """Why no compiled provider is usable (``None`` when one is)."""
    if available():
        return None
    forced = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    if forced in ("off", "0", "none", "false"):
        return "compiled kernels disabled via REPRO_COMPILED=off"
    return (
        "no compiled-kernel provider: numba is not installed and no "
        "working C compiler (cc/gcc/clang) was found"
    )


def require():
    """The selected provider implementation, or raise with the reason."""
    if not available():
        raise AlgorithmError(unavailable_reason())
    return _impl


def reset_provider_cache() -> None:
    """Forget the cached provider probe (tests flip ``REPRO_COMPILED``).

    The C provider's loaded library and remembered build failure are
    dropped too, so the next :func:`provider` call really re-probes.
    """
    global _provider, _impl
    _provider = _UNSET
    _impl = None
    from repro.compiled import _ccjit

    _ccjit._LIB = None
    _ccjit._LOAD_FAILED = False


# --------------------------------------------------------------------- #
# public kernels (thin array-prep wrappers over the provider loops)
# --------------------------------------------------------------------- #
def count_edges_galloping_compiled(
    graph: CSRGraph, edge_offsets: np.ndarray
) -> np.ndarray:
    """Compiled counterpart of :func:`~repro.kernels.batchsearch.
    count_edges_galloping`: counts for the given ``u < v`` edge offsets.

    Per edge, every element of the smaller endpoint's neighbor list is
    located in the larger endpoint's list by a galloping search resuming
    from the previous match — ``O(d_small · log(d_large / d_small))``
    with no interpreter in the loop.  Returns int64 counts aligned with
    ``edge_offsets``.
    """
    impl = require()
    eo = np.ascontiguousarray(edge_offsets, dtype=np.int64)
    out = np.zeros(len(eo), dtype=np.int64)
    if len(eo) == 0:
        return out
    offsets = graph.offsets
    deg = graph.degrees
    u = np.searchsorted(offsets, eo, side="right") - 1
    v = graph.dst[eo].astype(np.int64)
    swap = deg[v] < deg[u]
    small = np.ascontiguousarray(np.where(swap, v, u), dtype=np.int64)
    large = np.ascontiguousarray(np.where(swap, u, v), dtype=np.int64)
    impl.gallop_counts(offsets, graph.dst, small, large, out)
    return out


def count_edges_bitmap_compiled(
    graph: CSRGraph,
    edge_offsets: np.ndarray,
    cnt: np.ndarray,
    *,
    aligned: bool = False,
) -> None:
    """Compiled counterpart of :func:`~repro.kernels.batch.
    count_edges_bitmap`: BMP counts written into ``cnt``.

    The kernel derives each edge's source with a forward cursor over
    ``graph.offsets``, marks that source's neighborhood once per run of
    edges sharing it, probes every ``N(v)`` against the byte-per-vertex
    mark array, clears only the marks it set, and writes each count
    straight into ``cnt``.  Any order of ``edge_offsets`` is correct; an
    ascending (source-grouped) order — as
    :meth:`GraphSession.upper_edge_offsets` and the planner's buckets
    produce it — marks each source once.  With ``aligned=True`` the
    result lands at ``cnt[i]`` instead of ``cnt[edge_offsets[i]]``
    (compact per-chunk buffers).
    """
    impl = require()
    eo = np.ascontiguousarray(edge_offsets, dtype=np.int64)
    m = len(eo)
    if m == 0:
        return
    if eo.min() < 0 or eo.max() >= graph.num_directed_edges:
        raise IndexError("edge offset out of range for the graph")
    if len(cnt) < (m if aligned else graph.num_directed_edges):
        raise IndexError("count vector shorter than the edges it receives")
    direct = _writable_i64(cnt)
    out = cnt if direct else np.zeros(m if aligned else len(cnt), dtype=np.int64)
    mark = np.zeros(graph.num_vertices, dtype=np.uint8)
    impl.bitmap_counts(
        graph.offsets, graph.num_vertices, graph.dst, eo, mark, out, aligned
    )
    if not direct:
        if aligned:
            cnt[:m] = out
        else:
            cnt[eo] = out[eo]


def mirror_counts_compiled(graph: CSRGraph, cnt: np.ndarray) -> bool:
    """Mirror ``u < v`` counts onto their reverses in place, in O(|E|).

    One walk of the upper edges in CSR order with a |V| cursor array:
    the lower entries ``e(v, u)`` of row ``v`` are met in ascending
    ``u``, which is their CSR order, so ``cnt[cursor[v]++] = cnt[e]``
    fills every reverse with no search and no |E|-sized temporary.  A
    first walk checks that every upper edge finds its reverse at the
    cursor; when one does not (an asymmetric CSR such as an oriented
    DAG, or ``cnt`` not a writable int64 vector over every offset) the
    function returns ``False`` with ``cnt`` untouched, and the caller
    falls back to the lexsort mirror.
    """
    impl = require()
    if len(cnt) != graph.num_directed_edges or not _writable_i64(cnt):
        return False
    cursor = np.empty(graph.num_vertices, dtype=np.int64)
    status = impl.mirror_counts(
        graph.offsets, graph.dst, graph.num_vertices, cursor, cnt
    )
    return status == 0


def _writable_i64(a) -> bool:
    """Whether a kernel may write ``a`` in place (int64, C-contiguous)."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.int64
        and a.flags.c_contiguous
        and a.flags.writeable
    )


def batched_lower_bound_compiled(
    haystack: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Compiled counterpart of :func:`~repro.kernels.batchsearch.
    batched_lower_bound` for vertex-valued (int32) haystacks.

    Each lane runs an independent binary search of ``targets[i]`` in
    ``haystack[lo[i]:hi[i]]``; unlike the lockstep NumPy version, lanes
    that converge early cost nothing.
    """
    impl = require()
    hay = np.ascontiguousarray(haystack, dtype=np.int32)
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    tgt = np.ascontiguousarray(targets, dtype=np.int32)
    out = np.empty(len(tgt), dtype=np.int64)
    if len(tgt):
        impl.lower_bound_batch(hay, lo, hi, tgt, out)
    return out
