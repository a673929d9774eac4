"""Per-workload behavioural tests.

Each analog was engineered with specific branch-behaviour structure (see
docs/workloads.md); these tests pin that structure so a workload edit that
silently changes the *behaviour class* — not just the numbers — fails here.
"""

import pytest

from repro.isa.assembler import assemble
from repro.predictors.base import measure_accuracy
from repro.predictors.spec import parse_spec
from repro.trace.record import BranchClass
from repro.trace.stats import conditional_pc_histogram, taken_rate
from repro.workloads.base import get_workload

SCALE = 10_000


@pytest.fixture(scope="module")
def traces(trace_cache):
    return lambda name: trace_cache.get(get_workload(name), "test", SCALE)


def _at_vs_counter(records):
    at = measure_accuracy(parse_spec("AT(IHRT(,12SR),PT(2^12,A2),)").build(), records)
    ls = measure_accuracy(parse_spec("LS(IHRT(,A2),,)").build(), records)
    return at, ls


class TestMatrix300:
    def test_loop_bound_everything_predicts_well(self, traces):
        records = traces("matrix300").records
        at, ls = _at_vs_counter(records)
        assert at > 0.95 and ls > 0.93  # counters fine on pure loops

    def test_high_taken_rate(self, traces):
        assert taken_rate(traces("matrix300").records) > 0.85

    def test_btfn_strong(self, traces):
        records = traces("matrix300").records
        assert measure_accuracy(parse_spec("BTFN").build(), records) > 0.85


class TestTomcatv:
    def test_kernel_is_branch_lean(self, traces):
        mix = traces("tomcatv").mix
        assert mix.branch_fraction < 0.20

    def test_btfn_strong_on_loop_bound_code(self, traces):
        records = traces("tomcatv").records
        assert measure_accuracy(parse_spec("BTFN").build(), records) > 0.80


class TestFpppp:
    def test_extreme_low_branch_fraction(self, traces):
        assert traces("fpppp").mix.branch_fraction < 0.08

    def test_heavy_call_return_traffic(self, traces):
        mix = traces("fpppp").mix
        assert mix.returns / mix.total_branches > 0.10


class TestGcc:
    def test_computed_goto_dispatch(self, traces):
        mix = traces("gcc").mix
        assert mix.reg_unconditional > 0.05 * mix.total_branches

    def test_dynamics_spread_over_many_sites(self, traces):
        histogram = conditional_pc_histogram(traces("gcc").records)
        hottest = max(histogram.values())
        assert hottest / sum(histogram.values()) < 0.25  # no single hot loop

    def test_hardest_integer_benchmark_for_finite_tables(self, trace_cache):
        """gcc must pressure the AHRT hardest: its IHRT-vs-AHRT512 gap is
        the suite's largest (Table 1's population, Figure 6's driver)."""
        gaps = {}
        for name in ("gcc", "eqntott", "matrix300"):
            records = trace_cache.get(get_workload(name), "test", SCALE).records
            ideal = measure_accuracy(
                parse_spec("AT(IHRT(,12SR),PT(2^12,A2),)").build(), records
            )
            practical = measure_accuracy(
                parse_spec("AT(AHRT(512,12SR),PT(2^12,A2),)").build(), records
            )
            gaps[name] = ideal - practical
        assert gaps["gcc"] == max(gaps.values())


class TestEqntott:
    def test_cmppt_exits_are_history_correlated(self, traces):
        """The compare-loop structure is exactly where AT beats counters."""
        records = traces("eqntott").records
        at, ls = _at_vs_counter(records)
        assert at - ls > 0.03


class TestEspresso:
    def test_containment_scans_favour_two_level(self, traces):
        at, ls = _at_vs_counter(traces("espresso").records)
        assert at - ls > 0.08


class TestLi:
    def test_recursion_generates_calls_and_returns(self, traces):
        mix = traces("li").mix
        assert mix.returns > 0.005 * mix.total_branches

    def test_deep_recursion_exercises_ras(self, traces):
        """Calls nest deep enough to overflow a two-entry return stack."""
        depth = deepest = 0
        for record in traces("li").records:
            if record.is_call:
                depth += 1
                deepest = max(deepest, depth)
            elif record.cls is BranchClass.RETURN:
                depth = max(depth - 1, 0)
        assert deepest > 2  # hanoi/queens recursion exceeds depth 2

    def test_train_is_hanoi_dominant(self, trace_cache):
        """The training input must look different: hanoi's regular recursion
        is far more counter-predictable than queens' backtracking."""
        workload = get_workload("li")
        train = trace_cache.get(workload, "train", SCALE).records
        test = trace_cache.get(workload, "test", SCALE).records
        counter_on_train = measure_accuracy(parse_spec("LS(IHRT(,A2),,)").build(), train)
        counter_on_test = measure_accuracy(parse_spec("LS(IHRT(,A2),,)").build(), test)
        assert counter_on_train > counter_on_test


class TestDoduc:
    def test_contains_irreducible_noise(self, traces):
        """The Monte-Carlo test keeps even the ideal AT below the loop-bound
        codes — doduc must not become trivially predictable."""
        records = traces("doduc").records
        at, _ = _at_vs_counter(records)
        assert at < 0.99

    def test_sorted_table_gives_counters_runs(self, traces):
        _, ls = _at_vs_counter(traces("doduc").records)
        assert ls > 0.70


class TestSpice2g6:
    def test_dispatch_runs_from_sorted_netlist(self, traces):
        records = traces("spice2g6").records
        _, ls = _at_vs_counter(records)
        assert ls > 0.85  # grouped device types give counters long runs

    def test_convergence_behaviour_learnable(self, traces):
        at, ls = _at_vs_counter(traces("spice2g6").records)
        assert at > ls


class TestCrossSuite:
    @pytest.mark.parametrize(
        "name",
        ["eqntott", "espresso", "gcc", "li", "doduc", "fpppp", "matrix300",
         "spice2g6", "tomcatv"],
    )
    def test_at_never_loses_to_the_counter(self, traces, name):
        at, ls = _at_vs_counter(traces(name).records)
        assert at >= ls - 0.005, (name, at, ls)

    @pytest.mark.parametrize(
        "name",
        ["eqntott", "espresso", "gcc", "li", "doduc", "fpppp", "matrix300",
         "spice2g6", "tomcatv"],
    )
    def test_program_text_fits_encoding(self, name):
        """Every analog's branches stay within the 16/26-bit offset ranges
        (the assembler would fault, but this pins it as a property)."""
        from repro.isa.encoding import encode_program

        workload = get_workload(name)
        program = assemble(workload.build_source(workload.dataset("test")))
        words = encode_program(program.instructions)
        assert len(words) == len(program.instructions)
