"""The symmetric assignment: compiled cursor mirror against the lexsort.

``symmetric_assign`` mirrors through one O(|E|) cursor walk when a
compiled provider exists and through a lexsort of the edge list
otherwise (or when the walk finds the CSR asymmetric).  Both must give
the same counts on every CSR, and the walk must never write outside the
count vector or touch it when it declines.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro import compiled
from repro.graph.build import csr_from_pairs
from repro.graph.csr import CSRGraph
from repro.kernels import batch
from repro.motif.clique import orient_dag
from tests.strategies import csr_graphs

needs_provider = pytest.mark.skipif(
    not compiled.available(), reason="no compiled provider on this host"
)


def lexsort_assign(graph, cnt):
    """``symmetric_assign`` as it runs without a provider."""
    with mock.patch.object(compiled, "available", return_value=False):
        return batch.symmetric_assign(graph, cnt)


def scrambled_counts(graph, seed=0):
    """Distinct values on every offset, so a wrong source shows."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_directed_edges).astype(np.int64) + 1


def assert_mirror_matches_lexsort(graph, seed=0):
    cnt = scrambled_counts(graph, seed)
    expected = lexsort_assign(graph, cnt.copy())
    got = cnt.copy()
    assert compiled.mirror_counts_compiled(graph, got)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(batch.symmetric_assign(graph, cnt.copy()), expected)


SPECIAL_GRAPHS = {
    "empty": csr_from_pairs([], num_vertices=0),
    "no-edges": csr_from_pairs([], num_vertices=5),
    "single-edge": csr_from_pairs([(0, 1)]),
    "isolated-vertices": csr_from_pairs([(1, 4), (4, 6), (1, 6)], num_vertices=9),
    "star": csr_from_pairs([(0, i) for i in range(1, 12)]),
    "star-hub-last": csr_from_pairs([(11, i) for i in range(11)]),
    "clique": csr_from_pairs([(i, j) for i in range(6) for j in range(i + 1, 6)]),
}


@needs_provider
@pytest.mark.parametrize("name", sorted(SPECIAL_GRAPHS))
def test_mirror_matches_lexsort_on_special_graphs(name):
    assert_mirror_matches_lexsort(SPECIAL_GRAPHS[name])


@needs_provider
@settings(max_examples=150, deadline=None)
@given(graph=csr_graphs(max_vertex=25, max_size=100))
def test_mirror_matches_lexsort_on_random_graphs(graph):
    assert_mirror_matches_lexsort(graph, seed=graph.num_directed_edges)


def asymmetric_graphs():
    """CSRs the cursor walk must decline, one per kind of asymmetry."""
    base = csr_from_pairs([(i, j) for i in range(7) for j in range(i + 1, 7) if (i + j) % 3])
    return {
        "oriented-dag": orient_dag(base),
        # e(2, 0) has no partner e(0, 2): an unmatched lower entry.
        "lower-only": CSRGraph(np.array([0, 1, 2, 4]), np.array([1, 0, 0, 1])),
        # e(0, 2) has no partner e(2, 0): the cursor of row 2 runs past it.
        "upper-only": CSRGraph(np.array([0, 2, 3, 3]), np.array([1, 2, 0])),
        # 0 -> 2 and 1 -> 3 with partners 2 -> 1 and 3 -> 0: every row
        # has as many lower entries as reverses due, all of the wrong vertex.
        "swapped": CSRGraph(np.array([0, 1, 2, 3, 4]), np.array([2, 3, 1, 0])),
        # A directed 3-cycle 0 -> 1 -> 2 -> 0: no edge has its reverse.
        "cycle": CSRGraph(np.array([0, 1, 2, 3]), np.array([1, 2, 0])),
    }


@needs_provider
@pytest.mark.parametrize("name", sorted(asymmetric_graphs()))
def test_mirror_declines_asymmetric_csr_without_writing(name):
    graph = asymmetric_graphs()[name]
    m = graph.num_directed_edges
    cnt = scrambled_counts(graph)
    # The count vector is a view into a larger buffer with sentinels on
    # both sides: any write outside it, or into it, shows.
    buf = np.full(m + 16, -7, dtype=np.int64)
    buf[8 : 8 + m] = cnt
    view = buf[8 : 8 + m]
    assert not compiled.mirror_counts_compiled(graph, view)
    np.testing.assert_array_equal(view, cnt)
    assert (buf[:8] == -7).all() and (buf[8 + m :] == -7).all()
    # symmetric_assign then falls back to exactly the lexsort answer.
    np.testing.assert_array_equal(
        batch.symmetric_assign(graph, cnt.copy()), lexsort_assign(graph, cnt.copy())
    )


@needs_provider
def test_mirror_declines_self_loop_and_unsorted_rows():
    self_loop = CSRGraph(np.array([0, 2, 3]), np.array([0, 1, 0]), validate=False)
    unsorted = CSRGraph(
        np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]), validate=False
    )
    for graph in (self_loop, unsorted):
        cnt = scrambled_counts(graph)
        assert not compiled.mirror_counts_compiled(graph, cnt.copy())


@needs_provider
def test_mirror_declines_count_vectors_it_cannot_write():
    graph = SPECIAL_GRAPHS["clique"]
    m = graph.num_directed_edges
    readonly = scrambled_counts(graph)
    readonly.flags.writeable = False
    for cnt in (
        scrambled_counts(graph).astype(np.int32),
        np.repeat(scrambled_counts(graph), 2)[::2],  # strided view
        readonly,
        scrambled_counts(graph)[: m - 1],
    ):
        assert not compiled.mirror_counts_compiled(graph, cnt)


def test_lexsort_mirror_runs_without_provider(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    try:
        graph = SPECIAL_GRAPHS["clique"]
        upper = graph.edge_sources() < graph.dst
        cnt = np.where(upper, 3, 0).astype(np.int64)
        calls = []
        real = batch.reverse_edge_offsets
        monkeypatch.setattr(
            batch, "reverse_edge_offsets", lambda g: calls.append(1) or real(g)
        )
        assert (batch.symmetric_assign(graph, cnt) == 3).all()
        assert calls == [1]
    finally:
        monkeypatch.delenv("REPRO_COMPILED")
        compiled.reset_provider_cache()


@needs_provider
def test_compiled_mirror_skips_the_lexsort(monkeypatch):
    graph = SPECIAL_GRAPHS["clique"]
    monkeypatch.setattr(
        batch, "reverse_edge_offsets", mock.Mock(side_effect=AssertionError)
    )
    cnt = np.where(graph.edge_sources() < graph.dst, 3, 0).astype(np.int64)
    assert (batch.symmetric_assign(graph, cnt) == 3).all()
