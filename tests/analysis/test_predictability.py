"""Predictability classification, closed-form bounds, and cross-validation.

The acceptance property for this analysis layer: for every bundled workload
variant, every conditional site's dynamic per-scheme accuracy falls inside
its static bound (exact for ``constant`` and ``loop-periodic`` sites) and
the static hard-to-predict top-5 matches the dynamic misprediction-mass
top-5.  ``validate_predictability`` bundles that check; the fixture below
runs it once per variant and the tests inspect the outcome.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ANALYSIS_SCHEMES,
    PredictabilityClass,
    analyze_program,
    validate_predictability,
)
import repro.sim.analysis as sim_analysis
import repro.sim.sweep as sweep
from repro.analysis import build_cfg, conditional_sites, reaching_definitions
from repro.analysis.absint import Resolution, walk_program
from repro.analysis.predictability import (
    PROFILE_SCHEME,
    REFERENCE_SCHEME,
    _CorrelationFinder,
    _profile_bound,
    automaton_constant_misses,
    automaton_periodic_misses,
    eventual_period,
)
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.instructions import encoded_target
from repro.predictors.automata import automaton_by_name
from repro.trace.columnar import pack_conditional_stream, pack_records
from repro.trace.record import BranchClass, BranchRecord
from repro.workloads._asmlib import bounded_driver
from repro.workloads import workload_names
from repro.workloads.base import get_workload

from tests.analysis.helpers import loop_summaries

VARIANTS = [
    (name, role)
    for name in workload_names()
    for role in sorted(get_workload(name).datasets)
]


def _program(name, role):
    workload = get_workload(name)
    return assemble(workload.build_source(workload.dataset(role)))


# ----------------------------------------------------------------------
# Closed-form automaton results.
# ----------------------------------------------------------------------

class TestClosedForms:
    def test_lt_pays_two_per_loop_period(self):
        # Lee & Smith last-time: misses the exit AND the re-entry.
        lt = automaton_by_name("LT")
        for trips in (3, 5, 10):
            pattern = (True,) * trips + (False,)
            _, steady = automaton_periodic_misses(lt, pattern)
            assert steady == 2

    def test_a2_pays_one_per_loop_period(self):
        # 2-bit saturating counter: only the exit misses.
        a2 = automaton_by_name("A2")
        for trips in (3, 5, 10):
            pattern = (True,) * trips + (False,)
            _, steady = automaton_periodic_misses(a2, pattern)
            assert steady == 1

    def test_alternating_pattern_defeats_both(self):
        pattern = (True, False)
        for name, expected in (("LT", 2), ("A2", 1)):
            _, steady = automaton_periodic_misses(automaton_by_name(name), pattern)
            assert steady >= expected

    def test_constant_stream_warmup_is_bounded_by_state_count(self):
        for name in ("LT", "A1", "A2", "A3", "A4"):
            automaton = automaton_by_name(name)
            for outcome in (True, False):
                warmup = automaton_constant_misses(automaton, outcome)
                assert 0 <= warmup <= automaton.num_states

    def test_lt_constant_warmup(self):
        lt = automaton_by_name("LT")
        # LT initialises predicting taken: no misses on an all-taken
        # stream, one on an all-not-taken stream.
        assert automaton_constant_misses(lt, True) == 0
        assert automaton_constant_misses(lt, False) == 1


class TestEventualPeriod:
    def test_pure_periodic(self):
        stream = [True, True, False] * 20
        assert eventual_period(stream) == (3, 0)

    def test_periodic_after_transient(self):
        # The prefix cannot fold into the periodic tail, so the minimal
        # transient is exactly its length.
        stream = [True, True] + [True, True, False] * 15
        assert eventual_period(stream) == (3, 2)

    def test_constant_stream_is_not_periodic(self):
        assert eventual_period([True] * 50) is None

    def test_eventually_constant_needs_a_transient(self):
        # period 1 with a non-empty transient: "settles down" shape.
        stream = [False, True, False] + [True] * 47
        assert eventual_period(stream) == (1, 3)

    def test_aperiodic(self):
        # T F TT FF TTT FFF ... — run lengths keep growing, so no period.
        stream = []
        for run in range(1, 9):
            stream += [True] * run + [False] * run
        assert eventual_period(stream) is None

    def test_too_short_for_three_repetitions(self):
        assert eventual_period([True, False] * 2) is None


class TestProfileBound:
    def test_majority_count(self):
        bound = _profile_bound(10, 7)
        # predicts taken: 7 of 10 correct
        assert bound.exact and bound.lower == bound.upper == 7

    def test_tie_predicts_taken(self):
        bound = _profile_bound(10, 5)
        assert bound.lower == bound.upper == 5

    def test_minority_taken(self):
        bound = _profile_bound(10, 2)
        assert bound.lower == bound.upper == 8


# ----------------------------------------------------------------------
# Classification on small synthetic programs.
# ----------------------------------------------------------------------

class TestClassification:
    def test_constant_site(self):
        program = assemble(
            """
_start:
    li r2, 3
    li r3, 5
    blt r2, r3, yes
    addi r4, r0, 1
yes:
    halt
"""
        )
        report = analyze_program(program, 100, name="const")
        [site] = report.sites.values()
        assert site.predictability is PredictabilityClass.CONSTANT
        assert site.analytic_constant is True

    def test_loop_latch_is_periodic(self):
        program = assemble(
            """
_start:
    li r2, 50
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        report = analyze_program(program, 100, name="loop")
        [site] = report.sites.values()
        assert site.predictability is PredictabilityClass.LOOP_PERIODIC
        assert site.trip_count == 49

    def test_bounds_are_exact_when_walk_completes(self):
        program = assemble(
            """
_start:
    li r2, 12
loop:
    addi r3, r3, 1
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        report = analyze_program(program, 100, name="loop")
        assert report.walk_complete
        [site] = report.sites.values()
        names = set(site.bounds)
        assert {scheme.name for scheme in ANALYSIS_SCHEMES} <= names
        assert PROFILE_SCHEME in names
        for bound in site.bounds.values():
            assert bound.exact and bound.lower == bound.upper

    def test_report_json_schema(self):
        program = assemble(
            """
_start:
    li r2, 6
loop:
    subi r2, r2, 1
    bnez r2, loop
    halt
"""
        )
        payload = analyze_program(program, 100, name="tiny").as_dict()
        json.dumps(payload)  # must be serialisable
        assert payload["version"] == 1
        assert payload["name"] == "tiny"
        assert payload["reference_scheme"] == REFERENCE_SCHEME
        assert set(payload["classes"]) == {
            cls.value for cls in PredictabilityClass
        }
        for site in payload["sites"]:
            assert {"pc", "class", "occurrences", "bounds"} <= set(site)
            for bound in site["bounds"].values():
                assert {"occurrences", "lower", "upper", "exact"} <= set(bound)


# ----------------------------------------------------------------------
# Hypothesis: static loop trips == dynamic taken-run lengths for
# randomly-parameterized bounded_driver programs.
# ----------------------------------------------------------------------

def _driver_program(bound, inner):
    init, check, stop = bounded_driver("r15", "drv", bound=bound)
    return assemble(
        f"""
_start:
{init}
outer:
{check}
    li r11, {inner}
walk:
    addi r19, r19, 1
    subi r11, r11, 1
    bnez r11, walk
    br outer
{stop}
"""
    )


def _dynamic_continue_runs(program, exit_pc, loop_blocks):
    """Lengths of completed continue-outcome runs of the loop's exit branch,
    measured from the simulator."""
    records = CPU(program).run(max_conditional_branches=5_000).branch_records
    stream = [
        r.taken
        for r in records
        if r.cls is BranchClass.CONDITIONAL and r.pc == exit_pc
    ]
    instruction = program.instruction_at(exit_pc)
    taken_continues = encoded_target(exit_pc, instruction) in loop_blocks
    runs, run = [], 0
    for taken in stream:
        if taken == taken_continues:
            run += 1
        else:
            runs.append(run)
            run = 0
    return runs


@settings(max_examples=25, deadline=None)
@given(bound=st.integers(min_value=2, max_value=40),
       inner=st.integers(min_value=2, max_value=8))
def test_static_trips_match_dynamic_taken_runs(bound, inner):
    program = _driver_program(bound, inner)
    summaries = {s.exit_pc: s for s in loop_summaries(program)}
    resolved = {
        pc: s.trip_count for pc, s in summaries.items()
        if s.trip_count is not None
    }
    # Both the driver countdown and the inner counted loop must resolve.
    assert len(resolved) == 2
    expected = sorted([bound - 1, inner - 1])
    assert sorted(resolved.values()) == expected

    for exit_pc, trip in resolved.items():
        runs = _dynamic_continue_runs(
            program, exit_pc, summaries[exit_pc].blocks
        )
        assert runs, f"exit branch {exit_pc:#x} never completed a run"
        assert all(run == trip for run in runs), (
            f"exit {exit_pc:#x}: static trip {trip}, dynamic runs {runs[:5]}"
        )


class _ReversedDefinitions:
    """A reaching-definitions solution whose per-register answers come out
    in reverse order."""

    def __init__(self, reaching):
        self.reaching = reaching

    def of(self, register, address):
        return tuple(reversed(self.reaching.of(register, address)))


@pytest.mark.parametrize("name", workload_names())
def test_correlation_sources_ignore_definition_order(name):
    # ``sources`` dedupes (register, pc) pairs whatever budget is left, so
    # visiting definitions in another order could in principle change what
    # it finds; on the bundled programs it does not
    cfg = build_cfg(_program(name, "test"))
    reaching = reaching_definitions(cfg)
    forward = _CorrelationFinder(Resolution(cfg=cfg, reaching=reaching))
    backward = _CorrelationFinder(
        Resolution(cfg=cfg, reaching=_ReversedDefinitions(reaching))
    )
    for site in conditional_sites(cfg.program):
        assert forward.sources(site.pc) == backward.sources(site.pc), hex(site.pc)


def test_partial_walk_never_runs_the_fused_kernel(monkeypatch):
    # one replay per site: the scalar engine, whatever the backend
    pytest.importorskip("numpy")

    def fused(*args, **kwargs):
        raise AssertionError("a partial walk's per-site stream ran the fused kernel")

    monkeypatch.setattr(sweep, "fused_per_site", fused)
    monkeypatch.setattr(sim_analysis, "per_site_accuracy_specs", fused)
    monkeypatch.setenv("REPRO_BACKEND", "vector")
    program = assemble(
        """
_start:
    li r2, 5
loop:
    subi r2, r2, 1
    bnez r2, loop
spin:
    br spin
"""
    )
    for backend in (None, "vector"):
        report = analyze_program(program, 100, backend=backend)
        assert not report.walk_complete
        [site] = report.sites.values()
        assert site.bounds[REFERENCE_SCHEME].exact


@pytest.mark.parametrize("name", workload_names())
def test_packed_walk_stream_equals_packed_records(name):
    # the analysis packs the walk's (pc, taken) stream straight into
    # columns; it must equal packing the conditional records it stands for
    program = _program(name, "test")
    walk = walk_program(program, 1_000)
    targets = {
        site.pc: site.target
        for site in conditional_sites(program)
        if site.target is not None
    }
    records = [
        BranchRecord(pc=pc, cls=BranchClass.CONDITIONAL, taken=taken, target=targets[pc])
        for pc, taken in walk.global_stream
    ]
    packed = pack_conditional_stream(walk.global_stream, targets)
    expected = pack_records(records)
    assert len(packed) == len(records) > 0
    assert packed == expected
    assert packed.num_conditional == expected.num_conditional
    columns = (packed.cond_pc, packed.cond_target, packed.cond_taken)
    assert columns == (expected.cond_pc, expected.cond_target, expected.cond_taken)
    assert all(type(taken) is bool for taken in packed.cond_taken)


# ----------------------------------------------------------------------
# Full cross-validation over every bundled workload variant.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def validated(trace_cache, small_scale):
    results = {}
    for name, role in VARIANTS:
        program = _program(name, role)
        trace = trace_cache.get(get_workload(name), role, small_scale)
        results[(name, role)] = validate_predictability(
            program, trace.records, small_scale, name=f"{name}:{role}"
        )
    return results


class TestCrossValidation:
    @pytest.mark.parametrize("name,role", VARIANTS)
    def test_variant_validates(self, validated, name, role):
        validation = validated[(name, role)]
        assert validation.ok, "\n".join(validation.mismatches)

    @pytest.mark.parametrize("name,role", VARIANTS)
    def test_h2p_rankings_agree(self, validated, name, role):
        validation = validated[(name, role)]
        assert set(validation.static_h2p) == set(validation.dynamic_h2p)

    def test_every_variant_checks_all_schemes(self, validated):
        expected = len(ANALYSIS_SCHEMES) + 1  # the registry plus Profile
        for validation in validated.values():
            assert validation.schemes_checked == expected
            assert validation.sites_checked > 0

    def test_as_dict_round_trips(self, validated):
        payload = validated[("eqntott", "test")].as_dict()
        json.dumps(payload)
        assert payload["ok"] is True
        assert payload["sites_checked"] > 0
