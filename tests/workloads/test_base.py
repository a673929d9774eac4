"""Workload framework: registry, data sets, trace caching."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import isa
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

    def test_generator_edit_busts_cache(self, tmp_path, monkeypatch):
        eqntott = get_workload("eqntott")

        class Edited(type(eqntott)):
            def build_source(self, dataset):  # one more instruction
                return super().build_source(dataset).replace("_start:\n", "_start:\n    nop\n", 1)

        generated = _count_generations(monkeypatch)
        cache = TraceCache(disk_dir=tmp_path)
        baseline = cache.get(eqntott, "test", 200)
        base_stem = cache.stem_for(eqntott, "test", 200)
        shard = cache.store.path_for(base_stem).read_bytes()

        edited = cache.get(Edited(), "test", 200)
        edited_stem = cache.stem_for(Edited(), "test", 200)
        assert edited_stem != base_stem
        assert edited is not baseline
        assert generated == ["eqntott", "eqntott"]  # the edit regenerated
        # nothing else is touched: the old shard stays, byte for byte, and
        # a fresh cache still loads it without generating
        assert {info.stem for info in cache.store.entries()} == {base_stem, edited_stem}
        assert cache.store.path_for(base_stem).read_bytes() == shard
        TraceCache(disk_dir=tmp_path).get(eqntott, "test", 200)
        assert len(generated) == 2

    def test_patched_generator_gets_a_new_stem(self, monkeypatch):
        workload = get_workload("li")
        stem = TraceCache().stem_for(workload, "test", 200)
        build = type(workload).build_source
        monkeypatch.setattr(
            type(workload), "build_source", lambda self, dataset: build(self, dataset) + "    nop\n"
        )
        assert TraceCache().stem_for(workload, "test", 200) != stem
        monkeypatch.undo()
        assert TraceCache().stem_for(workload, "test", 200) == stem

    def test_bumped_version_gets_a_new_stem(self, tmp_path, monkeypatch):
        """Bumping the ISA semantics version re-keys every stored trace."""
        workload = get_workload("li")
        cache = TraceCache(disk_dir=tmp_path)
        stem = cache.stem_for(workload, "test", 200)
        assert cache.stem_for(workload, "test", 200) == stem  # memoised
        cache.get(workload, "test", 200)
        generated = _count_generations(monkeypatch)
        monkeypatch.setattr(isa, "SEMANTICS_VERSION", isa.SEMANTICS_VERSION + 1)
        bumped = cache.stem_for(workload, "test", 200)
        assert bumped != stem
        assert cache.stem_for(workload, "train", 200) != bumped
        TraceCache(disk_dir=tmp_path).get(workload, "test", 200)
        assert generated == ["li"]  # the store missed

    def test_stems_are_stable_across_processes(self):
        """Stems digest program text, never a per-process hash."""
        script = (
            "from repro.workloads import TraceCache, get_workload, workload_names\n"
            "cache = TraceCache()\n"
            "for name in workload_names():\n"
            "    workload = get_workload(name)\n"
            "    for role in sorted(workload.datasets):\n"
            "        print(cache.stem_for(workload, role, 200))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script], env=env, check=True,
                    capture_output=True, text=True,
                ).stdout
            )
        cache = TraceCache()
        parent = "".join(
            f"{cache.stem_for(get_workload(name), role, 200)}\n"
            for name in workload_names()
            for role in sorted(get_workload(name).datasets)
        )
        assert outputs == {parent}


def _count_generations(monkeypatch):
    """The names of the workloads generated from now on (store misses)."""
    generated = []
    generate = Workload.generate

    def counting(self, *args, **kwargs):
        generated.append(self.name)
        return generate(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "generate", counting)
    return generated
