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
from repro.workloads.base import TraceCache, workload_names

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
    # each benchmark is scored once, fused with NumPy and replayed without
    fused = resolve_backend("auto") == "vector"
    assert calls["per_site_accuracy_specs"] == (len(BENCHMARKS) if fused else 0)
    assert calls["per_site_accuracy_many"] == (0 if fused else len(BENCHMARKS))


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
    passes = calls["per_site_accuracy_specs"] + calls["per_site_accuracy_many"]
    assert passes == 3 * len(BENCHMARKS)

    assert sites == fig11_h2p.site_table(SCALE, BENCHMARKS, TraceCache(disk_dir=None))


def test_memo_does_not_keep_its_cache_alive():
    cache = TraceCache(disk_dir=None)
    fig11_h2p.site_table(SCALE, ["eqntott"], cache)
    assert cache in fig11_h2p._PASSES
    alive = weakref.ref(cache)
    del cache
    gc.collect()
    assert alive() is None


@pytest.fixture()
def no_fused_kernel(monkeypatch):
    """Fails any per-site scoring that reaches the fused kernel."""

    def fused(*args, **kwargs):
        raise AssertionError("the fused per-site kernel ran on the scalar backend")

    monkeypatch.setattr(sim_analysis, "per_site_accuracy_specs", fused)


def test_scalar_backend_scores_the_analysis_on_the_scalar_engine(no_fused_kernel):
    report = fig11_h2p.run(SCALE, ["eqntott"], TraceCache(disk_dir=None), backend="scalar")
    assert not report.failures()


def test_process_default_backend_reaches_the_analysis(no_fused_kernel, monkeypatch):
    from repro.isa.assembler import assemble
    from repro.workloads.base import get_workload

    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    workload = get_workload("eqntott")
    program = assemble(workload.build_source(workload.dataset("test")))
    trace = TraceCache(disk_dir=None).get(workload, "test", SCALE)
    validation = repro.analysis.validate_predictability(program, trace.records, SCALE)
    assert validation.ok, validation.mismatches


def test_the_analysis_bounds_only_the_reference_scheme(monkeypatch):
    from repro.analysis.predictability import REFERENCE_SCHEME

    asked = []
    original = repro.analysis.analyze_program

    def spy(*args, **kwargs):
        asked.append([scheme.name for scheme in kwargs["schemes"]])
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.analysis, "analyze_program", spy)
    fig11_h2p.site_table(SCALE, BENCHMARKS, TraceCache(disk_dir=None))
    assert asked == [[REFERENCE_SCHEME]] * len(BENCHMARKS)


@pytest.mark.parametrize("name", workload_names())
def test_reference_only_ranking_matches_the_full_registry(name):
    from repro.analysis.predictability import ANALYSIS_SCHEMES, REFERENCE_SCHEME
    from repro.isa.assembler import assemble
    from repro.workloads.base import get_workload

    workload = get_workload(name)
    program = assemble(workload.build_source(workload.dataset("test")))
    reference = [s for s in ANALYSIS_SCHEMES if s.name == REFERENCE_SCHEME]
    full = repro.analysis.analyze_program(program, 1_000, name=name)
    alone = repro.analysis.analyze_program(program, 1_000, name=name, schemes=reference)
    assert alone.h2p_ranking() == full.h2p_ranking()
