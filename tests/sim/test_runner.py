"""Sweep runner: trace reuse, ST two-pass protocol, Diff availability."""

import pytest

from repro.errors import WorkloadError
from repro.sim.runner import SweepRunner, run_sweep


@pytest.fixture(scope="module")
def runner(trace_cache):
    return SweepRunner(
        benchmarks=["eqntott", "li"], max_conditional=4_000, cache=trace_cache
    )


class TestTraces:
    def test_testing_trace_cached_identity(self, runner):
        first = runner.testing_trace("eqntott")
        second = runner.testing_trace("eqntott")
        assert first is second  # memory cache returns the same object

    def test_training_trace_same_is_testing_trace(self, runner):
        # Profile and ST(...,Same) train on the testing trace's cache entry
        assert runner._role_trace("li", "test").records is runner.testing_trace("li")

    def test_training_trace_diff_differs(self, runner):
        diff = runner._role_trace("li", "train").records
        assert diff is not runner.testing_trace("li")
        assert diff != runner.testing_trace("li")

    def test_diff_unavailable_raises(self, runner):
        with pytest.raises(WorkloadError):
            runner._role_trace("eqntott", "train")


class TestRun:
    def test_run_one(self, runner):
        result = runner.run_one("AT(AHRT(512,8SR),PT(2^8,A2),)", "eqntott")
        assert result.benchmark == "eqntott"
        assert result.scheme == "AT(AHRT(512,8SR),PT(2^8,A2),)"
        assert 0.5 < result.accuracy <= 1.0

    def test_profile_trains_on_execution_trace(self, runner):
        result = runner.run_one("Profile", "eqntott")
        assert result.accuracy > 0.5

    def test_st_diff_skipped_where_unavailable(self, runner):
        sweep = runner.run(["ST(IHRT(,8SR),PT(2^8,PB),Diff)"])
        scheme = sweep.schemes()[0]
        assert "eqntott" not in sweep.accuracies(scheme)
        assert "li" in sweep.accuracies(scheme)

    def test_sweep_categories(self, runner):
        sweep = runner.run(["BTFN"])
        assert sweep.categories["eqntott"] == "integer"

    def test_run_sweep_convenience(self, trace_cache):
        sweep = run_sweep(
            ["AlwaysTaken"], benchmarks=["li"], max_conditional=2_000, cache=trace_cache
        )
        assert sweep.schemes() == ["AlwaysTaken"]
