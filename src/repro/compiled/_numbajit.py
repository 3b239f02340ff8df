"""Numba provider: the same hot loops as ``@njit`` machine code.

Imported only after :mod:`repro.compiled` has confirmed numba is
importable, so this module may assume the dependency.  The kernels are
compiled with ``cache=True`` (on-disk jit cache — the second process
pays no compile latency) and ``nogil=True`` so the serving layer's
dispatch threads can overlap kernel execution.

Loop structure deliberately mirrors :data:`repro.compiled._ccjit.
KERNEL_SOURCE` line for line — two providers, one algorithm, so the
differential fuzzer validates whichever the host selected.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = ["gallop_counts", "lower_bound_batch", "bitmap_counts", "mirror_counts"]


@njit(cache=True, nogil=True)
def _lower_bound(b, lo, hi, target):
    while lo < hi:
        mid = (lo + hi) >> 1
        if b[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True, nogil=True)
def _gallop_lower_bound(b, pos, n, target):
    if pos >= n or b[pos] >= target:
        return pos
    bound = 1
    while pos + bound < n and b[pos + bound] < target:
        bound <<= 1
    lo = pos + (bound >> 1)
    hi = min(pos + bound, n)
    return _lower_bound(b, lo, hi, target)


@njit(cache=True, nogil=True)
def gallop_counts(offsets, dst, small, large, out):
    for i in range(len(small)):
        a_lo = offsets[small[i]]
        na = offsets[small[i] + 1] - a_lo
        b_lo = offsets[large[i]]
        nb = offsets[large[i] + 1] - b_lo
        b = dst[b_lo : b_lo + nb]
        cnt = 0
        pos = 0
        for j in range(na):
            if pos >= nb:
                break
            t = dst[a_lo + j]
            pos = _gallop_lower_bound(b, pos, nb, t)
            if pos < nb and b[pos] == t:
                cnt += 1
                pos += 1
        out[i] = cnt


@njit(cache=True, nogil=True)
def lower_bound_batch(hay, lo, hi, targets, out):
    for i in range(len(targets)):
        out[i] = _lower_bound(hay, lo[i], hi[i], targets[i])


@njit(cache=True, nogil=True)
def _edge_row(offsets, n, e):
    lo = 0
    hi = n
    while lo < hi:
        mid = (lo + hi) >> 1
        if offsets[mid + 1] <= e:
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(cache=True, nogil=True)
def bitmap_counts(offsets, n, dst, eo, mark, cnt, aligned):
    cur = np.int64(-1)
    u = np.int64(0)
    for i in range(len(eo)):
        e = eo[i]
        if e < offsets[u]:
            u = _edge_row(offsets, n, e)
        while offsets[u + 1] <= e:
            u += 1
        if u != cur:
            if cur >= 0:
                for k in range(offsets[cur], offsets[cur + 1]):
                    mark[dst[k]] = 0
            for k in range(offsets[u], offsets[u + 1]):
                mark[dst[k]] = 1
            cur = u
        v = dst[e]
        c = 0
        for k in range(offsets[v], offsets[v + 1]):
            c += mark[dst[k]]
        cnt[i if aligned else e] = c
    if cur >= 0:
        for k in range(offsets[cur], offsets[cur + 1]):
            mark[dst[k]] = 0


@njit(cache=True, nogil=True)
def _mirror_walk(offsets, dst, n, cursor, cnt, write):
    for v in range(n):
        cursor[v] = offsets[v]
    for u in range(n):
        prev = u
        for k in range(cursor[u], offsets[u + 1]):
            v = dst[k]
            if v <= prev or v >= n:
                return 1
            c = cursor[v]
            if c >= offsets[v + 1] or dst[c] != u:
                return 1
            if write:
                cnt[c] = cnt[k]
            cursor[v] = c + 1
            prev = v
    return 0


@njit(cache=True, nogil=True)
def mirror_counts(offsets, dst, n, cursor, cnt):
    if _mirror_walk(offsets, dst, n, cursor, cnt, False):
        return 1
    _mirror_walk(offsets, dst, n, cursor, cnt, True)
    return 0
