"""Workload framework: registry, data sets, trace caching."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import (
    DataSet,
    TraceCache,
    Workload,
    get_workload,
    workload_names,
)

PAPER_ORDER = [
    "eqntott",
    "espresso",
    "gcc",
    "li",
    "doduc",
    "fpppp",
    "matrix300",
    "spice2g6",
    "tomcatv",
]


class TestRegistry:
    def test_all_nine_registered_in_paper_order(self):
        assert workload_names() == PAPER_ORDER

    def test_get_workload(self):
        workload = get_workload("eqntott")
        assert workload.name == "eqntott"
        assert workload.category == "integer"

    def test_unknown_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("nasa7")  # excluded by the paper too

    def test_table3_training_sets(self):
        with_training = {name for name in workload_names() if get_workload(name).has_training_set}
        assert with_training == {"espresso", "gcc", "li", "doduc", "spice2g6"}

    def test_missing_dataset_raises(self):
        with pytest.raises(WorkloadError):
            get_workload("eqntott").dataset("train")


class TestDataSet:
    def test_param_defaulting(self):
        dataset = DataSet("x", {"a": 1})
        assert dataset.param("a", 9) == 1
        assert dataset.param("b", 9) == 9


class TestGenerate:
    def test_cap_respected(self):
        trace = get_workload("eqntott").generate(max_conditional=500)
        assert trace.mix.conditional == 500
        conditional_records = [
            record for record in trace.records if record.cls.name == "CONDITIONAL"
        ]
        assert len(conditional_records) == 500

    def test_deterministic(self):
        workload = get_workload("li")
        first = workload.generate(max_conditional=300)
        second = workload.generate(max_conditional=300)
        assert first.records == second.records


class TestTraceCache:
    def test_memory_hit_returns_same_object(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path)
        workload = get_workload("eqntott")
        first = cache.get(workload, "test", 300)
        assert cache.get(workload, "test", 300) is first

    def test_disk_round_trip(self, tmp_path):
        workload = get_workload("eqntott")
        cache_a = TraceCache(disk_dir=tmp_path)
        original = cache_a.get(workload, "test", 300)
        cache_b = TraceCache(disk_dir=tmp_path)  # fresh memory, same disk
        reloaded = cache_b.get(workload, "test", 300)
        assert reloaded.records == original.records
        assert reloaded.mix.conditional == original.mix.conditional
        assert reloaded.mix.non_branch == original.mix.non_branch

    def test_memory_only_cache(self):
        cache = TraceCache()
        workload = get_workload("eqntott")
        assert cache.get(workload, "test", 200).mix.conditional == 200

    def test_corrupt_disk_entry_regenerates(self, tmp_path):
        workload = get_workload("eqntott")
        cache = TraceCache(disk_dir=tmp_path)
        cache.get(workload, "test", 200)
        for path in tmp_path.iterdir():
            path.write_bytes(b"garbage")
        fresh = TraceCache(disk_dir=tmp_path)
        assert fresh.get(workload, "test", 200).mix.conditional == 200

    def test_version_busts_cache(self, tmp_path):
        class Versioned(Workload):
            name = "eqntott"  # reuse the real generator
            category = "integer"
            version = 999
            datasets = get_workload("eqntott").datasets

            def build_source(self, dataset):
                return get_workload("eqntott").build_source(dataset)

        cache = TraceCache(disk_dir=tmp_path)
        baseline = cache.get(get_workload("eqntott"), "test", 200)
        bumped = cache.get(Versioned(), "test", 200)
        assert bumped is not baseline

    def test_bumped_version_gets_a_new_stem(self):
        workload = get_workload("li")
        cache = TraceCache()
        stem = cache.stem_for(workload, "test", 200)
        assert cache.stem_for(workload, "test", 200) == stem  # memoised
        workload.version += 1
        bumped = cache.stem_for(workload, "test", 200)
        assert bumped != stem
        assert bumped == TraceCache().stem_for(workload, "test", 200)
        assert cache.stem_for(workload, "train", 200) != bumped
