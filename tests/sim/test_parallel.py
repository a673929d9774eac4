"""Parallel sweep execution: determinism vs the serial path, cache warming."""

import pytest

from repro.sim.parallel import resolve_jobs, run_parallel_sweep
from repro.sim.runner import SweepRunner, run_sweep
from repro.trace.store import TraceStore
from repro.workloads.base import TraceCache, get_workload

SPECS = [
    "AT(AHRT(512,8SR),PT(2^8,A2),)",
    "BTFN",
    "ST(IHRT(,8SR),PT(2^8,PB),Diff)",  # skipped on benchmarks without a train set
]
BENCHMARKS = ["eqntott", "li"]
SCALE = 3_000


def _assert_identical(serial, parallel):
    """Byte-identical sweep results: same schemes, cells, counters, means."""
    assert serial.schemes() == parallel.schemes()
    assert serial.benchmarks() == parallel.benchmarks()
    assert serial.categories == parallel.categories
    for scheme in serial.schemes():
        assert serial.accuracies(scheme) == parallel.accuracies(scheme)
        assert serial.mean(scheme) == parallel.mean(scheme)
        for benchmark in serial.results[scheme]:
            assert (
                serial.results[scheme][benchmark].stats
                == parallel.results[scheme][benchmark].stats
            )


class TestDeterminism:
    def test_jobs2_matches_serial_disk_cache(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "traces")
        serial = run_sweep(SPECS, BENCHMARKS, SCALE, cache)
        parallel = run_sweep(SPECS, BENCHMARKS, SCALE, cache, jobs=2)
        _assert_identical(serial, parallel)

    def test_jobs2_matches_serial_memory_cache(self):
        # a memory-only cache is transparently spilled to a temp dir
        cache = TraceCache()
        serial = run_sweep(SPECS, BENCHMARKS, SCALE, cache)
        parallel = run_sweep(SPECS, BENCHMARKS, SCALE, cache, jobs=2)
        _assert_identical(serial, parallel)

    def test_jobs1_is_the_serial_path(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "traces")
        runner = SweepRunner(BENCHMARKS, SCALE, cache)
        _assert_identical(
            runner.run(SPECS), run_parallel_sweep(runner, SPECS, jobs=1)
        )

    def test_st_diff_cells_skipped_identically(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "traces")
        parallel = run_sweep(SPECS, BENCHMARKS, SCALE, cache, jobs=2)
        st_scheme = [s for s in parallel.schemes() if s.startswith("ST(")][0]
        assert "eqntott" not in parallel.accuracies(st_scheme)  # no train set
        assert "li" in parallel.accuracies(st_scheme)


class TestCacheWarming:
    def test_traces_written_once_to_shared_dir(self, tmp_path):
        cache = TraceCache(disk_dir=tmp_path / "traces")
        run_sweep(SPECS, BENCHMARKS, SCALE, cache, jobs=2)
        trace_files = sorted(p.name for p in (tmp_path / "traces").glob("*.shard"))
        # eqntott test, li test, li train (for ST-Diff) — exactly once each
        assert len(trace_files) == 3

    def test_worker_loads_reach_the_index(self, tmp_path):
        # the coordinator generates the shards and never loads them, so
        # every hit comes from a worker, and a pool worker exits without
        # running finalizers.  One benchmark: every worker's flush then
        # carries a hit of its test trace, whichever write lands last.
        cache = TraceCache(disk_dir=tmp_path / "traces")
        run_sweep(SPECS, ["li"], SCALE, cache, jobs=2)
        (test_trace,) = [
            info for info in TraceStore(tmp_path / "traces").entries()
            if info.stem.startswith("li-test-")
        ]
        assert test_trace.hits >= 1

    def test_ensure_on_disk_requires_disk(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            TraceCache().ensure_on_disk(get_workload("li"), "test", 100)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_none_means_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_negative_clamped(self):
        assert resolve_jobs(-4) == 1
