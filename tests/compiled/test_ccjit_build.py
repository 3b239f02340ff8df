"""The C provider's on-disk build and its per-process cache."""

import os
import shutil
import subprocess

import pytest

from repro import compiled
from repro.compiled import _ccjit

needs_cc = pytest.mark.skipif(
    not any(shutil.which(c) for c in _ccjit._COMPILERS),
    reason="no C compiler on this host",
)


@pytest.fixture(autouse=True)
def fresh_provider():
    compiled.reset_provider_cache()
    yield
    compiled.reset_provider_cache()


@needs_cc
def test_concurrent_builder_cannot_truncate_our_source(tmp_path, monkeypatch):
    """Another process that starts the same build truncates the shared
    ``<digest>.c`` path while this one compiles; the build must not read
    that file."""
    so_path = str(tmp_path / "repro_kernels_test.so")
    shared_c = so_path[: -len(".so")] + ".c"
    real_run = subprocess.run

    def racing_run(cmd, **kwargs):
        with open(shared_c, "w"):  # the other builder's open(..., "w")
            pass
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(_ccjit.subprocess, "run", racing_run)
    assert _ccjit._compile(so_path)
    assert os.path.getsize(so_path) > 0
    # Only the library (and the other builder's file) remain.
    leftovers = sorted(os.listdir(tmp_path))
    assert leftovers == sorted({"repro_kernels_test.so", os.path.basename(shared_c)})


@needs_cc
def test_failed_build_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(_ccjit, "_COMPILERS", ("false",))
    assert not _ccjit._compile(str(tmp_path / "k.so"))
    assert os.listdir(tmp_path) == []


@needs_cc
def test_reset_provider_cache_re_probes_the_c_provider(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "cc")
    compiled.reset_provider_cache()
    # A failed probe earlier in the process is remembered by _ccjit ...
    _ccjit._LOAD_FAILED = True
    _ccjit._LIB = None
    assert _ccjit.load() is None
    # ... until the provider cache is reset.
    compiled.reset_provider_cache()
    assert not _ccjit._LOAD_FAILED and _ccjit._LIB is None
    assert compiled.provider() == "cc"
    assert _ccjit._LIB is not None


def test_reset_provider_cache_forgets_the_loaded_library(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(_ccjit, "_LIB", sentinel)
    compiled.reset_provider_cache()
    assert _ccjit._LIB is None
