"""The walk read off a dynamic trace (``WalkResult.of_trace``).

``repro h2p`` hands :func:`analyze_program` the walk its test trace already
holds instead of running the CPU a second time.  The report must not tell
the two apart: on every workload variant, on a program that halts before
its budget, and at the step cap, where a trace cannot say where the walk
would have stopped and the program is walked instead.
"""

import pytest

from repro.analysis import WalkResult, analyze_program, walk_program
from repro.analysis.absint import default_step_cap
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.workloads import workload_names
from repro.workloads.base import get_workload

VARIANTS = [
    (name, role)
    for name in workload_names()
    for role in sorted(get_workload(name).datasets)
]


def _trace_walk(program, budget):
    result = CPU(program).run(max_conditional_branches=budget)
    return WalkResult.of_trace(result.packed, result.mix, budget)


def _same_walk(got, want):
    assert got.stop_reason == want.stop_reason
    assert got.streams == want.streams
    assert got.global_stream == want.global_stream


@pytest.mark.parametrize("scale", [1_000, None])
@pytest.mark.parametrize("name,role", VARIANTS)
def test_trace_walk_report_equals_the_self_walked_report(
    trace_cache, small_scale, name, role, scale
):
    scale = scale or small_scale
    workload = get_workload(name)
    program = assemble(workload.build_source(workload.dataset(role)))
    trace = trace_cache.get(workload, role, scale)
    walk = WalkResult.of_trace(trace.packed(), trace.mix, scale)
    assert walk is not None
    _same_walk(walk, walk_program(program, scale))
    shared = analyze_program(program, scale, name=name, walk=walk)
    assert shared.as_dict() == analyze_program(program, scale, name=name).as_dict()


#: ``{pad}`` instructions with no branch, then three trips round a loop
PADDED = """
_start:
{pad}
    li r2, 3
loop:
    subi r2, r2, 1
    bnez r2, loop
    halt
"""


def _padded(pad):
    """A program of ``pad + 8`` dynamic instructions; its second
    conditional branch is its ``pad + 5``th."""
    return assemble(PADDED.format(pad="\n".join(["    nop"] * pad)))


def test_halt_before_the_budget():
    program = _padded(40)
    walk = _trace_walk(program, 100)
    assert (walk.stop_reason, walk.known_conditionals) == ("halt", 3)
    _same_walk(walk, walk_program(program, 100))
    assert (
        analyze_program(program, 100, walk=walk).as_dict()
        == analyze_program(program, 100).as_dict()
    )


def test_stop_at_the_budget():
    program = _padded(40)
    walk = _trace_walk(program, 2)
    assert walk.stop_reason == "budget"
    assert list(walk.streams.values()) == [[True, True]]
    _same_walk(walk, walk_program(program, 2))


@pytest.mark.parametrize("budget,stop", [(5, "halt"), (2, "budget")])
def test_a_trace_that_reaches_the_step_cap_is_walked_again(budget, stop):
    # stopping one instruction under the cap is a complete walk; stopping
    # on the cap's last instruction, the walk reports the cap instead
    cap = default_step_cap(budget)
    last = 8 if stop == "halt" else 5  # the stop's instruction after the pad
    under = _padded(cap - last - 1)
    walk = _trace_walk(under, budget)
    assert walk.stop_reason == stop
    _same_walk(walk, walk_program(under, budget))

    at_cap = _padded(cap - last)
    assert _trace_walk(at_cap, budget) is None
    assert walk_program(at_cap, budget).stop_reason == "step-cap"
    report = analyze_program(at_cap, budget, walk=_trace_walk(at_cap, budget))
    assert (report.walk_complete, report.walk_stop_reason) == (False, "step-cap")
    assert report.as_dict() == analyze_program(at_cap, budget).as_dict()


def test_a_trace_longer_than_the_budget_is_refused():
    result = CPU(_padded(0)).run(max_conditional_branches=3)
    with pytest.raises(ValueError, match="budget 2"):
        WalkResult.of_trace(result.packed, result.mix, 2)
