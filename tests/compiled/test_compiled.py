"""Compiled kernel providers: bit-exactness, gating, fuzz registration."""

import os

import numpy as np
import pytest

from repro import compiled
from repro.engine import GraphSession, default_registry
from repro.errors import AlgorithmError
from repro.graph.build import csr_from_pairs
from repro.kernels import batch, batchsearch


@pytest.fixture(autouse=True)
def fresh_provider(monkeypatch):
    """Re-probe the provider around every test (env flips stay local)."""
    compiled.reset_provider_cache()
    yield monkeypatch
    compiled.reset_provider_cache()


def random_graph(seed, n=150, m=900):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return csr_from_pairs(edges)


def upper_offsets(graph):
    return np.flatnonzero(graph.edge_sources() < graph.dst)


needs_provider = pytest.mark.skipif(
    not compiled.available(), reason="no compiled provider on this host"
)


# --------------------------------------------------------------------- #
# provider selection and gating
# --------------------------------------------------------------------- #
def test_module_imports_cleanly_whatever_the_host_has():
    # available() must answer without raising, both ways.
    assert compiled.available() in (True, False)
    if compiled.available():
        assert compiled.provider() in ("numba", "cc")
        assert compiled.unavailable_reason() is None
    else:
        assert compiled.provider() is None
        forced = os.environ.get("REPRO_COMPILED", "").strip().lower()
        forced_off = forced in ("off", "0", "none", "false")
        expected = "REPRO_COMPILED=off" if forced_off else "numba"
        assert expected in compiled.unavailable_reason()


def test_forced_off_disables_and_names_the_reason(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    assert not compiled.available()
    assert "REPRO_COMPILED=off" in compiled.unavailable_reason()
    with pytest.raises(AlgorithmError):
        compiled.require()


def test_forced_numba_unavailable_without_numba(monkeypatch):
    pytest.importorskip_reverse = None  # documentation: no numba assumed
    try:
        import numba  # noqa: F401

        pytest.skip("numba installed: forcing it succeeds by design")
    except ImportError:
        pass
    monkeypatch.setenv("REPRO_COMPILED", "numba")
    compiled.reset_provider_cache()
    assert not compiled.available()


def test_registry_specs_follow_provider_availability(monkeypatch):
    reg = default_registry()
    assert "gallop-compiled" in reg.names()
    assert "bitmap-compiled" in reg.names()

    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    available = reg.available_names()
    assert "gallop-compiled" not in available
    assert "bitmap-compiled" not in available
    # Still *registered*: the CLI lists them; use raises a clear error.
    assert "gallop-compiled" in reg.names()
    with pytest.raises(AlgorithmError, match="unavailable on this host"):
        reg.check_available("gallop-compiled")

    with GraphSession(random_graph(0)) as session:
        with pytest.raises(AlgorithmError, match="requires"):
            session.count(backend="bitmap-compiled")


# --------------------------------------------------------------------- #
# kernel bit-exactness against the interpreted counterparts
# --------------------------------------------------------------------- #
@needs_provider
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gallop_compiled_matches_interpreted(seed):
    g = random_graph(seed)
    eo = upper_offsets(g)
    expected = batchsearch.count_edges_galloping(g, eo)
    got = compiled.count_edges_galloping_compiled(g, eo)
    np.testing.assert_array_equal(got, expected)


@needs_provider
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bitmap_compiled_matches_interpreted(seed):
    g = random_graph(seed)
    eo = upper_offsets(g)
    expected = np.zeros(g.num_directed_edges, dtype=np.int64)
    batch.count_edges_bitmap(g, eo, expected)
    got = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, got)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_bitmap_compiled_aligned_mode():
    g = random_graph(3)
    eo = upper_offsets(g)[::3]  # strided subset, still ascending
    full = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, full)
    compact = np.zeros(len(eo), dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, eo, compact, aligned=True)
    np.testing.assert_array_equal(compact, full[eo])


@needs_provider
def test_batched_lower_bound_compiled_matches_interpreted():
    rng = np.random.default_rng(4)
    hay = np.sort(rng.integers(0, 1000, size=500).astype(np.int32))
    lanes = 300
    lo = rng.integers(0, 400, size=lanes)
    hi = lo + rng.integers(0, 100, size=lanes)
    targets = rng.integers(0, 1000, size=lanes).astype(np.int32)
    expected = batchsearch.batched_lower_bound(hay, lo, hi, targets)
    got = compiled.batched_lower_bound_compiled(hay, lo, hi, targets)
    np.testing.assert_array_equal(got, expected)


@needs_provider
def test_compiled_backends_match_merge_through_session():
    g = random_graph(5)
    with GraphSession(g) as session:
        ref = session.count(backend="merge").counts
        for backend in ("gallop-compiled", "bitmap-compiled"):
            got = session.count(backend=backend).counts
            np.testing.assert_array_equal(got, ref)


@needs_provider
def test_empty_graph_and_empty_subset():
    g = csr_from_pairs(np.array([[0, 1]]), num_vertices=3)
    none = np.empty(0, dtype=np.int64)
    assert len(compiled.count_edges_galloping_compiled(g, none)) == 0
    cnt = np.zeros(g.num_directed_edges, dtype=np.int64)
    compiled.count_edges_bitmap_compiled(g, none, cnt)
    assert not cnt.any()


# --------------------------------------------------------------------- #
# fuzz-path registration
# --------------------------------------------------------------------- #
def test_fuzzer_registers_compiled_paths_only_when_available(monkeypatch):
    from repro.fuzz import differential

    if compiled.available():
        differential._register_builtin_paths()
        assert "gallop-compiled" in differential.registered_paths()
        assert "bitmap-compiled" in differential.registered_paths()

    monkeypatch.setenv("REPRO_COMPILED", "off")
    compiled.reset_provider_cache()
    differential._register_builtin_paths()
    assert "gallop-compiled" not in differential.registered_paths()
    assert "bitmap-compiled" not in differential.registered_paths()
    # Interpreted paths are untouched by the gate.
    for name in ("merge", "bitmap", "gallop", "hybrid-cold"):
        assert name in differential.registered_paths()

    monkeypatch.delenv("REPRO_COMPILED")
    compiled.reset_provider_cache()
    differential._register_builtin_paths()
    if compiled.available():
        assert "gallop-compiled" in differential.registered_paths()


@needs_provider
def test_fuzz_case_runs_compiled_paths_bit_exact():
    from repro.fuzz.differential import run_case
    from repro.fuzz.generators import generate_case

    for index in range(4):
        case = generate_case(seed=99, index=index)
        report = run_case(
            case, paths=["gallop-compiled", "bitmap-compiled", "merge"]
        )
        assert report.ok, [f.format() for f in report.failures]
        assert "gallop-compiled" in report.paths_run
        assert "bitmap-compiled" in report.paths_run
