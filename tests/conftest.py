"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def physical_memory(monkeypatch):
    """A setter of the physical memory, in bytes, that the memory rule
    (icfcluster.data._fits) reads, so a refusal test works at a small size
    and allocates nothing large.  Other sysconf names read the real values."""
    real = os.sysconf

    def set_memory(nbytes: int) -> None:
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(os, "sysconf", lambda name: sizes[name] if name in sizes else real(name))

    return set_memory
