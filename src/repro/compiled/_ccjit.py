"""C-toolchain provider: compile the hot loops once, load via ctypes.

Numba is the preferred provider (:mod:`repro.compiled._numbajit`), but
many deployment images carry a system C compiler and no numba wheel.
This module embeds the hot loops as one small C translation unit,
compiles it on first use with whatever ``cc`` the platform offers
(``-O3 -shared -fPIC``), and binds the symbols through :mod:`ctypes`
with :func:`numpy.ctypeslib.ndpointer` signatures.

The build is cached on disk keyed by a SHA-256 of the source, so the
compiler runs once per source revision per machine, not once per
process.  Every failure mode — no compiler, sandboxed tmpdir, linker
error — degrades to "provider unavailable" rather than an exception:
callers consult :func:`load` and fall back to the interpreted kernels.

Array layouts match :class:`~repro.graph.csr.CSRGraph` exactly:
``offsets`` is int64, the adjacency array ``dst`` (and therefore every
search target) is int32, counts are int64.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["load", "build_dir", "KERNEL_SOURCE"]

#: The hot loops, exactly mirroring the numba provider: a per-edge
#: galloping intersection (exponential + binary lower bound, resuming
#: from the previous match position), a batched lower-bound search, the
#: BMP mark/probe loop over source-grouped edges, and the cursor mirror
#: of the symmetric assignment.
KERNEL_SOURCE = r"""
#include <stdint.h>

/* Lower bound of `target` in sorted b[lo, hi). */
static int64_t lower_bound(const int32_t *b, int64_t lo, int64_t hi,
                           int32_t target)
{
    while (lo < hi) {
        int64_t mid = (int64_t)(((uint64_t)lo + (uint64_t)hi) >> 1);
        if (b[mid] < target) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* Galloping (exponential) lower bound resuming from `pos`. */
static int64_t gallop_lower_bound(const int32_t *b, int64_t pos, int64_t n,
                                  int32_t target)
{
    int64_t bound, lo, hi;
    if (pos >= n || b[pos] >= target) return pos;
    bound = 1;
    while (pos + bound < n && b[pos + bound] < target) bound <<= 1;
    lo = pos + (bound >> 1);
    hi = pos + bound < n ? pos + bound : n;
    return lower_bound(b, lo, hi, target);
}

/* |N(small[i]) ∩ N(large[i])| for m vertex pairs: every element of the
 * smaller adjacency list is located in the larger one by a galloping
 * search that never moves backwards (both lists ascend). */
void repro_gallop_counts(const int64_t *offsets, const int32_t *dst,
                         const int64_t *small, const int64_t *large,
                         int64_t m, int64_t *out)
{
    for (int64_t i = 0; i < m; ++i) {
        const int32_t *a = dst + offsets[small[i]];
        int64_t na = offsets[small[i] + 1] - offsets[small[i]];
        const int32_t *b = dst + offsets[large[i]];
        int64_t nb = offsets[large[i] + 1] - offsets[large[i]];
        int64_t cnt = 0, pos = 0;
        for (int64_t j = 0; j < na && pos < nb; ++j) {
            pos = gallop_lower_bound(b, pos, nb, a[j]);
            if (pos < nb && b[pos] == a[j]) { ++cnt; ++pos; }
        }
        out[i] = cnt;
    }
}

/* Independent lower-bound searches: out[i] = smallest j in [lo[i], hi[i])
 * with hay[j] >= targets[i] (hi[i] when none). */
void repro_lower_bound_batch(const int32_t *hay, const int64_t *lo,
                             const int64_t *hi, const int32_t *targets,
                             int64_t m, int64_t *out)
{
    for (int64_t i = 0; i < m; ++i)
        out[i] = lower_bound(hay, lo[i], hi[i], targets[i]);
}

/* Row of edge offset e: the u with offsets[u] <= e < offsets[u + 1]. */
static int64_t edge_row(const int64_t *offsets, int64_t n, int64_t e)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (int64_t)(((uint64_t)lo + (uint64_t)hi) >> 1);
        if (offsets[mid + 1] <= e) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* BMP mark/probe: mark N(u) once per run of edges sharing a source u,
 * probe each edge's N(v) against the mark array.  Each edge's source
 * comes from a forward cursor over `offsets` (a binary search re-locates
 * it when the offsets step backwards, so any order is correct; ascending
 * order marks each source once).  The count lands in cnt[eo[i]], or in
 * cnt[i] when `aligned`.  The caller provides `mark` as |V| zeroed
 * bytes; it is returned zeroed. */
void repro_bitmap_counts(const int64_t *offsets, int64_t n, const int32_t *dst,
                         const int64_t *eo, int64_t m, uint8_t *mark,
                         int64_t *cnt, int64_t aligned)
{
    int64_t cur = -1, u = 0;
    for (int64_t i = 0; i < m; ++i) {
        int64_t e = eo[i];
        if (e < offsets[u]) u = edge_row(offsets, n, e);
        while (offsets[u + 1] <= e) ++u;
        if (u != cur) {
            if (cur >= 0)
                for (int64_t k = offsets[cur]; k < offsets[cur + 1]; ++k)
                    mark[dst[k]] = 0;
            for (int64_t k = offsets[u]; k < offsets[u + 1]; ++k)
                mark[dst[k]] = 1;
            cur = u;
        }
        int32_t v = dst[e];
        int64_t c = 0;
        for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k)
            c += mark[dst[k]];
        cnt[aligned ? i : e] = c;
    }
    if (cur >= 0)
        for (int64_t k = offsets[cur]; k < offsets[cur + 1]; ++k)
            mark[dst[k]] = 0;
}

/* One walk of the u < v edges in CSR order with a per-vertex cursor:
 * the lower entries e(v, u) of row v are met in ascending u, which is
 * their CSR order, so cursor[v] always points at the reverse of the
 * current upper edge e(u, v).  Returns 0 when every upper edge finds its
 * reverse there and every lower entry is some upper edge's reverse (a
 * symmetric CSR with strictly ascending rows), 1 otherwise.  With
 * `write`, cnt[cursor[v]++] = cnt[e] mirrors the counts; a write walk
 * is only run after a check walk returned 0, so it stays in bounds and
 * an asymmetric CSR leaves cnt untouched. */
static int64_t mirror_walk(const int64_t *offsets, const int32_t *dst,
                           int64_t n, int64_t *cursor, int64_t *cnt,
                           int write)
{
    for (int64_t v = 0; v < n; ++v) cursor[v] = offsets[v];
    for (int64_t u = 0; u < n; ++u) {
        /* Rows below u are walked: cursor[u] has passed every lower
         * entry of row u, so the upper entries start there.  An entry
         * from there on that is not above both u and its left
         * neighbour fails the check. */
        int64_t prev = u;
        for (int64_t k = cursor[u]; k < offsets[u + 1]; ++k) {
            int64_t v = dst[k];
            if (v <= prev || v >= n) return 1;
            int64_t c = cursor[v];
            if (c >= offsets[v + 1] || dst[c] != u) return 1;
            if (write) cnt[c] = cnt[k];
            cursor[v] = c + 1;
            prev = v;
        }
    }
    return 0;
}

/* Mirror u < v counts onto their reverses (the symmetric assignment):
 * O(|E|) with |V| cursors and no |E|-sized temporary.  Returns 0 when
 * mirrored, 1 (cnt untouched) when the CSR is not symmetric. */
int64_t repro_mirror_counts(const int64_t *offsets, const int32_t *dst,
                            int64_t n, int64_t *cursor, int64_t *cnt)
{
    if (mirror_walk(offsets, dst, n, cursor, cnt, 0)) return 1;
    mirror_walk(offsets, dst, n, cursor, cnt, 1);
    return 0;
}
"""

#: Compilers tried in order; the first one on PATH that links wins.
_COMPILERS = ("cc", "gcc", "clang")


def build_dir() -> str:
    """Directory holding compiled kernel libraries (override via env)."""
    custom = os.environ.get("REPRO_COMPILED_CACHE")
    if custom:
        return custom
    return os.path.join(tempfile.gettempdir(), "repro-compiled")


def _compile(so_path: str) -> bool:
    """Build ``so_path``; every intermediate file carries this process id,
    so concurrent first builds never read each other's partial files."""
    os.makedirs(os.path.dirname(so_path), exist_ok=True)
    tag = f"{so_path[: -len('.so')]}.{os.getpid()}"
    c_path, tmp_so = f"{tag}.c", f"{tag}.so.tmp"
    with open(c_path, "w") as fh:
        fh.write(KERNEL_SOURCE)
    try:
        for compiler in _COMPILERS:
            try:
                proc = subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_so, c_path],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)  # atomic vs concurrent builders
                return True
        return False
    finally:
        for leftover in (c_path, tmp_so):
            if os.path.exists(leftover):
                os.unlink(leftover)


_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_i32 = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_u8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")

_SIGNATURES = {
    "repro_gallop_counts": [_i64, _i32, _i64, _i64, ctypes.c_int64, _i64],
    "repro_lower_bound_batch": [_i32, _i64, _i64, _i32, ctypes.c_int64, _i64],
    "repro_bitmap_counts": [
        _i64, ctypes.c_int64, _i32, _i64, ctypes.c_int64, _u8, _i64, ctypes.c_int64,
    ],
    "repro_mirror_counts": [_i64, _i32, ctypes.c_int64, _i64, _i64],
}
_RESTYPES = {"repro_mirror_counts": ctypes.c_int64}

_LIB: ctypes.CDLL | None = None
_LOAD_FAILED = False


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, building it on first use.

    Returns ``None`` (and remembers the failure for the process) when no
    working compiler is available or loading fails — the capability
    probe the provider selection in :mod:`repro.compiled` relies on.
    """
    global _LIB, _LOAD_FAILED
    if _LIB is not None or _LOAD_FAILED:
        return _LIB
    digest = hashlib.sha256(KERNEL_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(build_dir(), f"repro_kernels_{digest}.so")
    try:
        if not os.path.exists(so_path) and not _compile(so_path):
            _LOAD_FAILED = True
            return None
        lib = ctypes.CDLL(so_path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = _RESTYPES.get(name)
    except (OSError, AttributeError):  # pragma: no cover - host-specific
        _LOAD_FAILED = True
        return None
    _LIB = lib
    return _LIB
