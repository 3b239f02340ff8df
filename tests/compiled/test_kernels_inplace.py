"""Compiled bitmap sources, the numba loops, and the default hybrid path.

The bitmap kernel derives each edge's source inside the loop and writes
straight into the count vector; it must match the NumPy kernel on any
edge order.  The numba provider's loops are run here as plain Python
(numba itself is absent on most hosts) against the C provider, which
checks the algorithm; only the CI numba leg checks its compilation.
"""

import importlib.util
import sys
import types

import numpy as np
import pytest

from repro import compiled
from repro.engine import GraphSession
from repro.graph.build import csr_from_pairs
from repro.graph.generators import chung_lu_graph
from repro.kernels import batch
from repro.plan import count_all_edges_hybrid, execute_plan, get_plan

needs_provider = pytest.mark.skipif(
    not compiled.available(), reason="no compiled provider on this host"
)


@pytest.fixture(autouse=True)
def fresh_provider():
    compiled.reset_provider_cache()
    yield
    compiled.reset_provider_cache()


def skewed_graph(seed=0, n=300):
    return chung_lu_graph(n, 4 * n, exponent=2.1, seed=seed)


def upper_offsets(graph):
    return np.flatnonzero(graph.edge_sources() < graph.dst)


def edge_subsets(graph, seed=0):
    """Ascending, shuffled and multi-run subsets of the upper edges."""
    rng = np.random.default_rng(seed)
    up = upper_offsets(graph)
    half = np.sort(rng.choice(up, size=len(up) // 2, replace=False))
    return {
        "ascending": up,
        "strided": up[::3],
        "shuffled": rng.permutation(up),
        "descending": up[::-1].copy(),
        # The same edges twice: every source comes back in a second run.
        "multi-run": np.concatenate([half, half]),
        "lower-edges": np.flatnonzero(graph.edge_sources() > graph.dst),
    }


# --------------------------------------------------------------------- #
# bitmap kernel with in-kernel sources
# --------------------------------------------------------------------- #
@needs_provider
@pytest.mark.parametrize(
    "subset",
    ["ascending", "strided", "shuffled", "descending", "multi-run", "lower-edges"],
)
@pytest.mark.parametrize("aligned", [False, True])
def test_bitmap_sources_in_kernel_match_numpy(subset, aligned):
    graph = skewed_graph(seed=len(subset))
    eo = edge_subsets(graph)[subset]
    # The NumPy kernel takes ascending offsets; count those once and
    # place the answers where the given order puts them.
    by_offset = np.zeros(graph.num_directed_edges, dtype=np.int64)
    batch.count_edges_bitmap(graph, np.unique(eo), by_offset)
    if aligned:
        expected = by_offset[eo]
        if subset == "ascending":
            direct = np.zeros(len(eo), dtype=np.int64)
            batch.count_edges_bitmap(graph, eo, direct, aligned=True)
            np.testing.assert_array_equal(direct, expected)
    else:
        expected = np.full(graph.num_directed_edges, -1, dtype=np.int64)
        expected[eo] = by_offset[eo]
    got = np.full(len(expected), -1, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(graph, eo, got, aligned=aligned)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_bitmap_skips_empty_rows_between_sources():
    # Isolated vertices between sources: the forward cursor must step
    # over their empty rows, and an empty N(v) must count zero.
    graph = csr_from_pairs([(1, 5), (5, 9), (1, 9), (9, 12)], num_vertices=15)
    eo = upper_offsets(graph)
    expected = np.zeros(graph.num_directed_edges, dtype=np.int64)
    batch.count_edges_bitmap(graph, eo, expected)
    got = np.zeros(graph.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(graph, eo, got)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_bitmap_writes_through_non_int64_vectors():
    graph = skewed_graph(seed=3)
    eo = upper_offsets(graph)
    expected = np.zeros(graph.num_directed_edges, dtype=np.int64)
    batch.count_edges_bitmap(graph, eo, expected)
    got = np.zeros(graph.num_directed_edges, dtype=np.float64)
    compiled.count_edges_bitmap_compiled(graph, eo, got)
    np.testing.assert_array_equal(got, expected)
    compact = np.zeros(2 * len(eo), dtype=np.int64)[::2]  # strided view
    compiled.count_edges_bitmap_compiled(graph, eo, compact, aligned=True)
    np.testing.assert_array_equal(compact, expected[eo])


@needs_provider
def test_bitmap_rejects_out_of_range_offsets():
    graph = skewed_graph(seed=4)
    cnt = np.zeros(graph.num_directed_edges, dtype=np.int64)
    for bad in ([graph.num_directed_edges], [-1]):
        with pytest.raises(IndexError):
            compiled.count_edges_bitmap_compiled(graph, np.array(bad), cnt)
    with pytest.raises(IndexError):
        compiled.count_edges_bitmap_compiled(graph, upper_offsets(graph), cnt[:5])
    assert not cnt.any()


# --------------------------------------------------------------------- #
# the numba provider's loops, run as Python against the C provider
# --------------------------------------------------------------------- #
@pytest.fixture
def numba_loops(monkeypatch):
    """``repro.compiled._numbajit`` loaded with ``njit`` as the identity."""
    stub = types.ModuleType("numba")
    stub.njit = lambda *args, **kwargs: (lambda fn: fn)
    monkeypatch.setitem(sys.modules, "numba", stub)
    spec = importlib.util.find_spec("repro.compiled._numbajit")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cc_loops():
    from repro.compiled import _ccjit

    if _ccjit.load() is None:
        pytest.skip("no C compiler on this host")
    return compiled._probe_cc()


@pytest.mark.parametrize("seed", [0, 1])
def test_numba_loops_match_cc_provider(numba_loops, cc_loops, seed):
    graph = skewed_graph(seed=seed, n=120)
    n, offsets, dst = graph.num_vertices, graph.offsets, graph.dst
    for eo in edge_subsets(graph, seed).values():
        eo = np.ascontiguousarray(eo, dtype=np.int64)
        for aligned in (False, True):
            outs = []
            for loops in (numba_loops, cc_loops):
                cnt = np.full(len(eo) if aligned else len(dst), -1, dtype=np.int64)
                mark = np.zeros(n, dtype=np.uint8)
                loops.bitmap_counts(offsets, n, dst, eo, mark, cnt, aligned)
                assert not mark.any()
                outs.append(cnt)
            np.testing.assert_array_equal(outs[0], outs[1])

    small = np.ascontiguousarray(graph.edge_sources()[upper_offsets(graph)], np.int64)
    large = np.ascontiguousarray(dst[upper_offsets(graph)], np.int64)
    outs = [np.zeros(len(small), dtype=np.int64) for _ in range(2)]
    numba_loops.gallop_counts(offsets, dst, small, large, outs[0])
    cc_loops.gallop_counts(offsets, dst, small, large, outs[1])
    np.testing.assert_array_equal(outs[0], outs[1])


def test_numba_mirror_matches_cc_provider(numba_loops, cc_loops):
    from repro.motif.clique import orient_dag

    for graph in (skewed_graph(seed=2, n=120), orient_dag(skewed_graph(seed=2, n=120))):
        n = graph.num_vertices
        base = np.arange(1, graph.num_directed_edges + 1, dtype=np.int64)
        results = []
        for loops in (numba_loops, cc_loops):
            cnt = base.copy()
            cursor = np.empty(n, dtype=np.int64)
            status = loops.mirror_counts(graph.offsets, graph.dst, n, cursor, cnt)
            results.append((int(status), cnt))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])


# --------------------------------------------------------------------- #
# the default path: hybrid against merge, with and without a provider
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("forced", ["auto", "off"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hybrid_matches_merge_with_and_without_provider(monkeypatch, forced, seed):
    monkeypatch.setenv("REPRO_COMPILED", forced)
    compiled.reset_provider_cache()
    graph = skewed_graph(seed=seed)
    expected = batch.count_all_edges_merge(graph)
    # Low threshold: the gallop bucket gets work too.
    for threshold in (2.0, 50.0):
        got = count_all_edges_hybrid(graph, skew_threshold=threshold)
        np.testing.assert_array_equal(got, expected)
    with GraphSession(graph) as session:
        np.testing.assert_array_equal(session.count().counts, expected)


@pytest.mark.parametrize("forced", ["auto", "off"])
def test_bucket_timings_name_the_provider(monkeypatch, forced):
    monkeypatch.setenv("REPRO_COMPILED", forced)
    compiled.reset_provider_cache()
    graph = skewed_graph(seed=5)
    _, report = execute_plan(graph, get_plan(graph, 2.0))
    kernel_provider = compiled.provider() or "numpy"
    providers = {t.name: t.provider for t in report.timings}
    assert providers == {
        "cover": kernel_provider,
        "gallop": kernel_provider,
        "bitmap": kernel_provider,
        "matmul": "numpy",
    }
    assert f"on {kernel_provider}" in report.format()
