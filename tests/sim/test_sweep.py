"""Fused sweep engine and sweep-result cache.

The fused scorer (:mod:`repro.sim.sweep`) must be bit-exact against the
scalar engine: the property tests score random spec *subsets* together
(fusion shares intermediates across whichever specs happen to group) on
synthetic traces and on every one of the fourteen workload variants, the
carried-state tests cut columns at random points and require the carried
history window and automaton scan to equal one fresh whole-column call,
and the parallel tests pin the (benchmark x spec-group) partitioning to
the serial sweep.
The result-cache tests cover the persistence layer the runner rides: a
round trip, the backend's presence in the key (backend-agreement tests
are the verification that makes caching sound), eviction, corrupt, torn
and legacy rows degrading to misses, and rows crossing instances and
processes through the append-only logs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.predictors.automata import automaton_by_name
from repro.predictors.families import family_of
from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.kernels import score_spec
from repro.sim.result_cache import ResultCache, result_key
from repro.sim.results import PredictionStats
from repro.sim.runner import SweepRunner
from repro.sim.streaming import KeyedState
from repro.sim.sweep import (
    _branch_history,
    _ScanBatch,
    fused_stats,
    training_role,
)
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord
from repro.workloads.base import TraceCache, get_workload, workload_names

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

#: one spec per fused recipe: stateless, profiled, per-address FSM,
#: two-level with each HRT front-end, global-history extensions.
FUSABLE_SPECS = [
    "AlwaysTaken",
    "BTFN",
    "Profile",
    "LS(IHRT(,A2),,)",
    "LS(AHRT(4,A2),,)",
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "AT(AHRT(4,8SR),PT(2^8,A2),)",
    "AT(HHRT(4,6SR),PT(2^6,A2),)",
    "ST(IHRT(,4SR),PT(2^4,PB),Same)",
    "GAg(6,A2)",
    "gshare(8,A2)",
]

#: small pc pool so random traces revisit branches (exercises bucket replay
#: and the tiny-HRT eviction/collision paths).
_COND_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.sampled_from([0x1000, 0x1004, 0x1008, 0x100C, 0x2000, 0x2004]),
        cls=st.just(BranchClass.CONDITIONAL),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFFFFFF),
        is_call=st.just(False),
    ),
    max_size=120,
)


def _per_spec_stats(specs, packed):
    """The reference: each spec scored alone by the scalar engine."""
    return [
        score_spec(spec, packed, backend="scalar", training=packed)
        for spec in specs
    ]


@needs_numpy
class TestFusedProperty:
    """fused_stats == the scalar engine for arbitrary spec subsets."""

    @given(
        records=_COND_RECORDS,
        subset=st.sets(
            st.integers(0, len(FUSABLE_SPECS) - 1), min_size=1, max_size=6
        ),
    )
    @settings(deadline=None, max_examples=25)
    def test_random_subsets_match_per_spec(self, records, subset):
        specs = [parse_spec(FUSABLE_SPECS[i]) for i in sorted(subset)]
        packed = pack_records(records)
        fused = fused_stats(specs, packed, trainings={"test": packed})
        assert fused == _per_spec_stats(specs, packed)

    def test_all_fourteen_variants(self, trace_cache, small_scale):
        """Bit-exactness on every workload variant the repo ships."""
        specs = [parse_spec(text) for text in FUSABLE_SPECS]
        variants = [
            (name, role)
            for name in workload_names()
            for role in (
                ("test", "train")
                if get_workload(name).has_training_set
                else ("test",)
            )
        ]
        assert len(variants) == 14
        for name, role in variants:
            packed = trace_cache.get(get_workload(name), role, small_scale).packed()
            fused = fused_stats(specs, packed, trainings={"test": packed})
            assert fused == _per_spec_stats(specs, packed), f"{name}/{role}"

    def test_training_roles(self):
        assert training_role(parse_spec("Profile")) == "test"
        assert training_role(parse_spec("ST(IHRT(,4SR),PT(2^4,PB),Same)")) == "test"
        assert training_role(parse_spec("ST(IHRT(,4SR),PT(2^4,PB),Diff)")) == "train"
        assert training_role(parse_spec("BTFN")) is None


def _scan_correct(np, keys, taken, automaton, state=None):
    """One scan request's per-record correctness, in column order."""
    batch = _ScanBatch(np, taken)
    handle = batch.add(("column",), keys, automaton, state)
    batch.run()
    correct, group = batch.correct_sorted(handle)
    out = np.empty_like(correct)
    out[group.order] = correct
    return out


@needs_numpy
class TestCarriedPrimitives:
    """Feeding cut pieces with carried state == one fresh whole call."""

    @given(
        column=st.lists(
            st.tuples(
                # small keys radix-sort, namespaced ones take the int64 path
                st.sampled_from([0, 1, 7, 1 << 32, (2 << 32) | 7]),
                st.integers(0, 1),
            ),
            max_size=160,
        ),
        cuts=st.lists(st.integers(0, 160), max_size=6),
        history_length=st.integers(1, 10),
        init_bit=st.integers(0, 1),
        automaton=st.sampled_from(["A1", "A2", "A3", "A4", "LT"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_pieces_equal_whole(self, column, cuts, history_length, init_bit, automaton):
        import numpy as np

        keys = np.array([key for key, _ in column], dtype=np.int64)
        taken = np.array([bit for _, bit in column], dtype=np.int8)
        machine = automaton_by_name(automaton)
        bounds = [0] + sorted(min(cut, len(column)) for cut in cuts) + [len(column)]
        histories, scans = KeyedState(np), KeyedState(np)
        pieces_history, pieces_correct = [], []
        for start, stop in zip(bounds, bounds[1:]):
            piece_keys, piece_taken = keys[start:stop], taken[start:stop]
            pieces_history.append(
                _branch_history(
                    np, piece_keys, piece_taken, history_length, init_bit, histories
                )
            )
            pieces_correct.append(
                _scan_correct(np, piece_keys, piece_taken, machine, scans)
            )
        whole_history = _branch_history(np, keys, taken, history_length, init_bit)
        assert np.concatenate(pieces_history).tolist() == whole_history.tolist()
        whole_correct = _scan_correct(np, keys, taken, machine)
        assert np.concatenate(pieces_correct).tolist() == whole_correct.tolist()


@needs_numpy
class TestParallelFusedGroups:
    """The (benchmark x spec-group) pool partitioning == the serial sweep."""

    SPECS = [
        "AT(AHRT(512,8SR),PT(2^8,A2),)",
        "ST(IHRT(,4SR),PT(2^4,PB),Diff)",  # skips on benchmarks without training data
        "BTFN",
    ]

    def test_jobs2_matches_serial(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "store")
        runner = SweepRunner(["eqntott", "gcc"], 600, cache)
        serial = runner.run(self.SPECS)
        parallel = runner.run(self.SPECS, jobs=2)
        assert serial.schemes() == parallel.schemes()
        for scheme in serial.schemes():
            assert serial.accuracies(scheme) == parallel.accuracies(scheme)


def _append_rows(root: str, worker: int, count: int) -> None:
    """One process appending ``count`` distinct rows to one shared log."""
    cache = ResultCache(root)
    for index in range(count):
        cache.put(
            "BTFN", "li-test-300-x", f"w{worker}-{index}", "vector",
            TestResultCache.STATS,
        )


class TestResultCache:
    STATS = PredictionStats(conditional_total=100, conditional_correct=88)

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        assert cache.get("BTFN", "li-test-300-x", None, "vector") == self.STATS

    def test_backend_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        assert cache.get("BTFN", "li-test-300-x", None, "scalar") is None
        assert result_key("BTFN", "li-test-300-x", None, "vector") != result_key(
            "BTFN", "li-test-300-x", None, "scalar"
        )

    def test_training_stem_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        spec = "ST(IHRT(,4SR),PT(2^4,PB),Diff)"
        cache.put(spec, "gcc-test-300-x", "gcc-train-300-y", "vector", self.STATS)
        assert cache.get(spec, "gcc-test-300-x", None, "vector") is None
        assert (
            cache.get(spec, "gcc-test-300-x", "gcc-train-300-y", "vector")
            == self.STATS
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        (log,) = cache.root.glob("*.jsonl")
        # a row with the four counters of the format-1 layout
        row = json.loads(log.read_text())
        four_counters = dict(row, stats=[100, 88, 7, 7])
        format_1 = {"digest": row["digest"], "format": 1, "spec": "Profile"}
        for line in (json.dumps(four_counters), json.dumps(format_1), "not json at all"):
            log.write_text(line + "\n")
            assert ResultCache(cache.root).get("BTFN", "li-test-300-x", None, "vector") is None

    def test_rows_and_keys_are_canonical_json(self, tmp_path):
        canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
        spec, test, train = "ST(IHRT(,4SR),PT(2^4,PB),Diff)", 'li-"t\\e"-\u00e9', "li-train"
        cache = ResultCache(tmp_path / "results")
        cache.put(spec, test, train, "vector", self.STATS)
        (log,) = cache.root.glob("*.jsonl")
        fields = {"format": 3, "spec": spec, "test": test, "train": train, "backend": "vector"}
        semantics = family_of(parse_spec(spec)).semantics
        digest = hashlib.sha256(
            canonical(dict(fields, semantics=semantics)).encode()
        ).hexdigest()[:24]
        assert result_key(spec, test, train, "vector") == digest
        row = dict(fields, digest=digest, stats=[100, 88])
        assert log.read_text() == "\n" + canonical(row) + "\n"
        assert ResultCache(cache.root).get(spec, test, train, "vector") == self.STATS

    def test_torn_or_garbage_line_costs_only_its_row(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        (log,) = cache.root.glob("*.jsonl")
        scratch = ResultCache(tmp_path / "scratch")
        scratch.put("Profile", "li-test-300-x", None, "vector", self.STATS)
        profile_row = next(scratch.root.glob("*.jsonl")).read_bytes()

        def hits(*specs):
            fresh = ResultCache(cache.root)
            return [fresh.get(spec, "li-test-300-x", None, "vector") == self.STATS
                    for spec in specs]

        with log.open("ab") as handle:  # a write cut short at the end of the log
            handle.write(profile_row[: len(profile_row) // 2])
        assert hits("BTFN", "Profile") == [True, False]
        cache.put("AlwaysTaken", "li-test-300-x", None, "vector", self.STATS)
        with log.open("ab") as handle:
            handle.write(b"\xff{not a row\n")
        cache.put("GAg(6,A2)", "li-test-300-x", None, "vector", self.STATS)
        assert hits("BTFN", "Profile", "AlwaysTaken", "GAg(6,A2)") == [
            True, False, True, True,
        ]
        assert [row.spec for row in cache.entries()] == sorted(
            ["BTFN", "AlwaysTaken", "GAg(6,A2)"],
            key=lambda spec: result_key(spec, "li-test-300-x", None, "vector"),
        )

    def test_rows_another_instance_appends_are_found(self, tmp_path):
        reader = ResultCache(tmp_path / "results")
        writer = ResultCache(tmp_path / "results")
        writer.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        assert reader.get("BTFN", "li-test-300-x", None, "vector") == self.STATS
        assert reader.get("AlwaysTaken", "li-test-300-x", None, "vector") is None
        writer.put("AlwaysTaken", "li-test-300-x", None, "vector", self.STATS)
        assert reader.get("AlwaysTaken", "li-test-300-x", None, "vector") == self.STATS

    def test_concurrent_appenders_lose_no_row(self, tmp_path):
        root = tmp_path / "results"
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_append_rows, args=(str(root), worker, 200))
            for worker in range(4)  # more appenders than the CI runners' cores
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert not process.is_alive() and process.exitcode == 0
        fresh = ResultCache(root)
        for worker in range(4):
            for index in range(200):
                assert fresh.get("BTFN", "li-test-300-x", f"w{worker}-{index}", "vector") == (
                    self.STATS
                )
        assert len(list(fresh.entries())) == 800

    def test_legacy_row_files_are_never_read_and_cleared(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.root.mkdir()
        digest = result_key("BTFN", "li-test-300-x", None, "vector")
        legacy = cache.root / f"{digest}.json"
        legacy.write_text(json.dumps({
            "format": 3, "spec": "BTFN", "test": "li-test-300-x", "train": "",
            "backend": "vector", "stats": [100, 88],
        }))
        assert cache.get("BTFN", "li-test-300-x", None, "vector") is None
        assert list(cache.entries()) == []
        cache.put("AlwaysTaken", "li-test-300-x", None, "vector", self.STATS)
        assert cache.clear() == 2
        assert list(cache.root.iterdir()) == []

    def test_family_semantics_is_part_of_the_key(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        cache.put("GAg(6,A2)", "li-test-300-x", None, "vector", self.STATS)
        family = family_of(parse_spec("BTFN"))
        monkeypatch.setattr(family, "semantics", family.semantics + 1)
        assert cache.get("BTFN", "li-test-300-x", None, "vector") is None
        assert cache.get("GAg(6,A2)", "li-test-300-x", None, "vector") == self.STATS

    def test_entries_evict_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.put("BTFN", "li-test-300-x", None, "vector", self.STATS)
        cache.put("AlwaysTaken", "li-test-300-x", None, "vector", self.STATS)
        rows = list(cache.entries())
        assert len(rows) == 2
        assert {row.spec for row in rows} == {"BTFN", "AlwaysTaken"}
        assert cache.evict(rows[0].digest)
        assert not cache.evict(rows[0].digest)
        assert cache.clear() == 1
        assert list(cache.entries()) == []

    def test_runner_populates_and_reuses(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "store")
        runner = SweepRunner(["li"], 300, cache)
        assert runner.result_cache is not None
        first = runner.run(["BTFN"])
        assert list(runner.result_cache.entries())
        # a fresh runner over the same store must hit the persisted row
        again = SweepRunner(["li"], 300, TraceCache(disk_dir=tmp_path / "store"))
        second = again.run(["BTFN"])
        for scheme in first.schemes():
            assert first.accuracies(scheme) == second.accuracies(scheme)

    def test_memory_only_runner_has_no_result_cache(self):
        assert SweepRunner(["li"], 300, TraceCache()).result_cache is None



class TestResultLogSweeps:
    SPECS = ["BTFN", "GAg(6,A2)", "AT(AHRT(4,8SR),PT(2^8,A2),)"]

    @pytest.fixture
    def lookups(self, monkeypatch):
        """Every ``ResultCache.get`` result, in call order."""
        seen = []
        original = ResultCache.get

        def get(self, *key):
            seen.append(original(self, *key))
            return seen[-1]

        monkeypatch.setattr(ResultCache, "get", get)
        return seen

    def test_parallel_rows_serve_a_serial_rerun(self, tmp_path, lookups):
        store = tmp_path / "store"
        benchmarks = ["li", "eqntott"]
        first = SweepRunner(benchmarks, 300, TraceCache(disk_dir=store)).run(
            self.SPECS, jobs=2
        )
        del lookups[:]  # the pool workers looked up in their own processes
        again = SweepRunner(benchmarks, 300, TraceCache(disk_dir=store)).run(self.SPECS)
        assert len(lookups) == len(self.SPECS) * len(benchmarks)
        assert all(hit is not None for hit in lookups)
        for scheme in first.schemes():
            assert first.accuracies(scheme) == again.accuracies(scheme)
        digests = [entry.digest for entry in ResultCache(store / "results").entries()]
        assert len(digests) == len(set(digests)) == len(lookups)

    def test_clear_makes_the_next_sweep_score_every_cell(self, tmp_path, lookups):
        store = tmp_path / "store"
        SweepRunner(["li"], 300, TraceCache(disk_dir=store)).run(self.SPECS)
        assert ResultCache(store / "results").clear() == len(self.SPECS)
        del lookups[:]
        SweepRunner(["li"], 300, TraceCache(disk_dir=store)).run(self.SPECS)
        assert lookups == [None] * len(self.SPECS)
        assert len(list(ResultCache(store / "results").entries())) == len(self.SPECS)


class TestCacheCli:
    def _populate(self, tmp_path, capsys):
        assert main([
            "sweep", "BTFN", "--scale", "300", "--benchmarks", "li",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()

    def test_list_shows_results(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 cached sweep result(s)" in out
        assert "BTFN @ li-test-300-" in out

    def test_evict_result_by_digest(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        (digest,) = [
            entry.digest
            for entry in ResultCache(tmp_path / "results").entries()
        ]
        assert main(["cache", "--cache-dir", str(tmp_path), "--evict", digest]) == 0
        assert "evicted result" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(tmp_path), "--evict", digest]) == 1
        assert "no such shard or result" in capsys.readouterr().err

    def test_clear_wipes_results_too(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        out = capsys.readouterr().out
        assert "1 cached sweep result(s)" in out or "cleared" in out
        assert list(ResultCache(tmp_path / "results").entries()) == []
