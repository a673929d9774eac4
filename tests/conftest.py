"""Shared fixtures: a session-wide trace cache so the expensive CPU runs
happen once, plus small canned traces for predictor tests."""

from __future__ import annotations

import pytest

from repro.trace.synthetic import random_program
from repro.workloads.base import TraceCache, get_workload
from tests.synthetic import periodic_branch


@pytest.fixture(scope="session")
def trace_cache(tmp_path_factory) -> TraceCache:
    """Session-scoped cache backed by a temp directory (exercises the disk
    layer once, then serves from memory)."""
    return TraceCache(disk_dir=tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="session")
def small_scale() -> int:
    """Per-benchmark conditional-branch cap for integration tests."""
    return 8_000


@pytest.fixture(scope="session")
def eqntott_trace(trace_cache, small_scale):
    return trace_cache.get(get_workload("eqntott"), "test", small_scale)


@pytest.fixture()
def periodic_trace():
    """A single branch with the exact repeating pattern T T N."""
    return list(periodic_branch([True, True, False], repetitions=500))


@pytest.fixture()
def program_trace():
    """A deterministic multi-branch synthetic program trace."""
    return list(random_program(static_branches=40, count=6_000, seed=11))
