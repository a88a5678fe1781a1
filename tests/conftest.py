"""Fixtures shared by the test modules."""

import shutil

import pytest

from thinlab import core


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """greedy.c copied into tmp_path, so its kernels are built into an empty __pycache__."""
    source = tmp_path / "greedy.c"
    shutil.copy(core._KERNEL_SOURCE, source)
    monkeypatch.setattr(core, "_KERNEL_SOURCE", str(source))
    core._kernels.cache_clear()
    yield tmp_path / "__pycache__"
    core._kernels.cache_clear()
