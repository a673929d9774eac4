"""Per-trace column stores: what a command's figures share across passes.

A :class:`~repro.sim.sweep.TraceContext` keeps each AHRT register column
and each key space's widest history window in its trace's store, so later
contexts over the same :class:`PackedTrace` (the command's other figures)
read them instead of recomputing.  These tests run figures 5 to 10 over
one in-memory trace cache and pin four properties: each (trace, AHRT
geometry) is replayed once, every cell still equals the scalar engine,
the byte budget bounds the stores (a zero budget keeps nothing and
changes no result), and a store lives exactly as long as its trace —
while the streaming scorers never add to one.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import weakref

import pytest

import repro.sim.kernels as kernels
import repro.sim.sweep as sweep
from repro.experiments.registry import get_experiment
from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.runner import SweepRunner
from repro.sim.streaming import VectorMultiSessionScorer, make_multi_scorer, needs_training
from repro.trace.columnar import pack_records
from repro.workloads.base import TraceCache, get_workload, workload_names

pytestmark = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10")
SCALE = 2000


def _kept_bytes() -> int:
    return sum(kept.nbytes for store in sweep._STORES.values() for _w, kept in store.values())


def _cells(reports):
    """``{(figure, scheme, benchmark): (correct, total)}`` of every report."""
    return {
        (figure, scheme, bench): (cell.stats.conditional_correct, cell.stats.conditional_total)
        for figure, report in reports.items()
        for scheme, row in report.sweep.results.items()
        for bench, cell in row.items()
    }


def _run_figures(cache):
    return {
        figure: get_experiment(figure).run(
            max_conditional=SCALE, benchmarks=workload_names(), cache=cache, backend="vector"
        )
        for figure in FIGURES
    }


@pytest.fixture(scope="module")
def traces():
    """One in-memory cache holding every trace the figures read."""
    cache = TraceCache()
    for name in workload_names():
        workload = get_workload(name)
        for role in sorted(workload.datasets):
            cache.get(workload, role, SCALE)
    return cache


@pytest.fixture
def stores(monkeypatch):
    """An empty store registry for the test (the module's is restored)."""
    monkeypatch.setattr(sweep, "_STORES", {})


@pytest.fixture(scope="module")
def counted(traces):
    """Figures 5-10 over the cache: ``_ahrt_registers`` calls per (pc
    column digest, geometry), the reports, and the bytes the stores kept."""
    calls = collections.Counter()
    original = kernels._ahrt_registers

    def counting(np, pc, entries, associativity):
        calls[hashlib.sha1(pc.tobytes()).hexdigest(), entries, associativity] += 1
        return original(np, pc, entries, associativity)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_STORES", {})
        patch.setattr(kernels, "_ahrt_registers", counting)
        reports = _run_figures(traces)
        kept = _kept_bytes()
    return calls, reports, kept


class TestFiguresShareColumns:
    def test_each_ahrt_geometry_replays_once_per_trace(self, counted):
        calls, reports, _kept = counted
        geometries = {
            (spec.hrt_entries, spec.hrt_associativity)
            for report in reports.values()
            for spec in map(parse_spec, report.sweep.schemes())
            if spec.hrt_kind == "AHRT"
        }
        assert geometries, "figures 5-10 sweep at least one AHRT"
        assert set(calls.values()) == {1}
        # AHRT specs never profile, so only the nine test traces replay
        assert len(calls) == len(workload_names()) * len(geometries)

    def test_every_cell_equals_the_scalar_engine(self, counted, traces):
        _calls, reports, _kept = counted
        scalar = SweepRunner(workload_names(), SCALE, traces, backend="scalar", result_cache=None)
        for (_figure, scheme, bench), cell in _cells(reports).items():
            stats = scalar.run_one(scheme, bench).stats
            assert cell == (stats.conditional_correct, stats.conditional_total), (scheme, bench)

    def test_zero_budget_keeps_nothing_and_changes_nothing(
        self, counted, traces, stores, monkeypatch
    ):
        _calls, reports, _kept = counted
        monkeypatch.setattr(sweep, "_STORE_BUDGET", 0)
        assert _cells(_run_figures(traces)) == _cells(reports)
        assert sweep._STORES and _kept_bytes() == 0

    def test_stores_never_exceed_the_budget(self, counted, traces, stores, monkeypatch):
        _calls, reports, kept = counted
        budget = kept // 2
        monkeypatch.setattr(sweep, "_STORE_BUDGET", budget)
        held = []
        keep = sweep.TraceContext._keep

        def checked(self, key, width, column):
            keep(self, key, width, column)
            held.append(_kept_bytes())

        monkeypatch.setattr(sweep.TraceContext, "_keep", checked)
        assert _cells(_run_figures(traces)) == _cells(reports)
        assert held and max(held) <= budget
        assert max(held) > budget // 2  # the budget, not a lack of columns, was the bound


class TestStoreLifetime:
    SPECS = [parse_spec("AT(AHRT(8,4SR),PT(2^4,A2),)"), parse_spec("GAg(6,A2)")]

    def test_store_dies_with_its_trace(self, traces, stores):
        packed = pack_records(next(iter(traces._memory.values())).packed())
        sweep.fused_stats(self.SPECS, packed)
        key, alive = id(packed), weakref.ref(packed)
        assert sweep._STORES[key], "the pass kept its AHRT registers and windows"
        del packed
        gc.collect()
        assert alive() is None
        assert key not in sweep._STORES

    @pytest.mark.parametrize(
        "spec_text", ["AT(AHRT(8,4SR),PT(2^4,A2),)", "ST(IHRT(,4SR),PT(2^4,PB),Same)"]
    )
    def test_streaming_feed_adds_nothing(self, traces, spec_text):
        records = next(iter(traces._memory.values())).packed().to_records()[:400]
        before = {key: dict(store) for key, store in sweep._STORES.items()}
        scorer = make_multi_scorer(spec_text, "vector")
        assert isinstance(scorer, VectorMultiSessionScorer)
        training = records if needs_training(parse_spec(spec_text)) else None
        for key in (1, 2):
            scorer.open_session(key, training)
        scorer.feed_many([(1, records[:200]), (2, records[:150]), (1, records[200:])])
        gc.collect()
        assert {key: dict(store) for key, store in sweep._STORES.items()} == before
