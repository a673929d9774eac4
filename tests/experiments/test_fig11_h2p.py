"""fig11's per-benchmark pass: shared by the report and the site table,
memoised per trace cache and per backend."""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

import repro.analysis
import repro.sim.analysis as sim_analysis
from repro.experiments import fig11_h2p
from repro.sim.backend import resolve_backend
from repro.workloads.base import TraceCache

BENCHMARKS = ["eqntott", "li"]
SCALE = 3_000


@pytest.fixture()
def calls(monkeypatch) -> Counter:
    """Counts calls of the functions fig11 looks up through their modules.

    ``analyze_program`` scores its own scheme set through the same per-site
    functions, so only calls scoring fig11's SPECS count."""
    counted: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if name == "analyze_program" or set(args[0]) == set(fig11_h2p.SPECS):
                counted[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(repro.analysis, "analyze_program")
    count(sim_analysis, "per_site_accuracy_specs")
    count(sim_analysis, "per_site_accuracy_many")
    return counted


def test_run_and_site_table_share_one_pass(calls):
    cache = TraceCache(disk_dir=None)
    fig11_h2p.run(SCALE, BENCHMARKS, cache)
    fig11_h2p.site_table(SCALE, BENCHMARKS, cache)
    assert calls["analyze_program"] == len(BENCHMARKS)
    assert calls["per_site_accuracy_specs"] == len(BENCHMARKS)
    # without NumPy the fused path declines and each benchmark replays once
    replays = 0 if resolve_backend("auto") == "vector" else len(BENCHMARKS)
    assert calls["per_site_accuracy_many"] == replays


def test_memo_is_keyed_on_backend_and_scale(calls):
    cache = TraceCache(disk_dir=None)
    sites = fig11_h2p.site_table(SCALE, BENCHMARKS, cache)
    before = Counter(calls)

    scalar = fig11_h2p.site_table(SCALE, BENCHMARKS, cache, backend="scalar")
    replayed = calls["per_site_accuracy_many"] - before["per_site_accuracy_many"]
    assert replayed == len(BENCHMARKS)
    assert calls["per_site_accuracy_specs"] == before["per_site_accuracy_specs"]
    assert scalar == sites

    fig11_h2p.site_table(SCALE // 2, BENCHMARKS, cache)
    assert calls["analyze_program"] == 3 * len(BENCHMARKS)
    assert calls["per_site_accuracy_specs"] == 2 * len(BENCHMARKS)

    assert sites == fig11_h2p.site_table(SCALE, BENCHMARKS, TraceCache(disk_dir=None))


def test_memo_does_not_keep_its_cache_alive():
    cache = TraceCache(disk_dir=None)
    fig11_h2p.site_table(SCALE, ["eqntott"], cache)
    assert cache in fig11_h2p._PASSES
    alive = weakref.ref(cache)
    del cache
    gc.collect()
    assert alive() is None
