"""Golden static branch-site tables for every bundled workload variant.

These pin the *static* shape of each generated program — how many branch
sites of each class the assembler emits, and how many conditionals point
backward vs forward.  Any workload-generator change that alters the emitted
program shows up here (and requires a workload ``version`` bump so cached
traces are not reused).
"""

import pytest

from repro.isa.assembler import assemble
from repro.workloads.base import get_workload
from tests.analysis.helpers import static_branch_summary

GOLDEN = {
    ("eqntott", "test"): {
        "total": 313, "conditional": 273, "return": 12,
        "imm_unconditional": 28, "reg_unconditional": 0,
        "conditional_backward": 1, "conditional_forward": 272,
    },
    ("espresso", "test"): {
        "total": 612, "conditional": 552, "return": 20,
        "imm_unconditional": 40, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 549,
    },
    ("espresso", "train"): {
        "total": 612, "conditional": 552, "return": 20,
        "imm_unconditional": 40, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 549,
    },
    ("gcc", "test"): {
        "total": 3402, "conditional": 2292, "return": 88,
        "imm_unconditional": 1021, "reg_unconditional": 1,
        "conditional_backward": 0, "conditional_forward": 2292,
    },
    ("gcc", "train"): {
        "total": 3402, "conditional": 2292, "return": 88,
        "imm_unconditional": 1021, "reg_unconditional": 1,
        "conditional_backward": 0, "conditional_forward": 2292,
    },
    ("li", "test"): {
        "total": 571, "conditional": 496, "return": 25,
        "imm_unconditional": 50, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 493,
    },
    ("li", "train"): {
        "total": 571, "conditional": 496, "return": 25,
        "imm_unconditional": 50, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 493,
    },
    ("doduc", "test"): {
        "total": 1171, "conditional": 1107, "return": 21,
        "imm_unconditional": 43, "reg_unconditional": 0,
        "conditional_backward": 2, "conditional_forward": 1105,
    },
    ("doduc", "train"): {
        "total": 1171, "conditional": 1107, "return": 21,
        "imm_unconditional": 43, "reg_unconditional": 0,
        "conditional_backward": 2, "conditional_forward": 1105,
    },
    ("fpppp", "test"): {
        "total": 717, "conditional": 656, "return": 21,
        "imm_unconditional": 40, "reg_unconditional": 0,
        "conditional_backward": 4, "conditional_forward": 652,
    },
    ("matrix300", "test"): {
        "total": 257, "conditional": 222, "return": 12,
        "imm_unconditional": 23, "reg_unconditional": 0,
        "conditional_backward": 4, "conditional_forward": 218,
    },
    ("spice2g6", "test"): {
        "total": 663, "conditional": 602, "return": 20,
        "imm_unconditional": 41, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 599,
    },
    ("spice2g6", "train"): {
        "total": 663, "conditional": 602, "return": 20,
        "imm_unconditional": 41, "reg_unconditional": 0,
        "conditional_backward": 3, "conditional_forward": 599,
    },
    ("tomcatv", "test"): {
        "total": 440, "conditional": 381, "return": 20,
        "imm_unconditional": 39, "reg_unconditional": 0,
        "conditional_backward": 6, "conditional_forward": 375,
    },
}


@pytest.mark.parametrize("name,role", sorted(GOLDEN))
def test_static_summary_matches_golden(name, role):
    workload = get_workload(name)
    program = assemble(workload.build_source(workload.dataset(role)))
    summary = static_branch_summary(program)
    expected = GOLDEN[(name, role)]
    observed = {key: summary[key] for key in expected}
    assert observed == expected
    # BTFN statically predicts taken exactly for the backward conditionals
    assert summary["btfn_predict_taken"] == expected["conditional_backward"]
    assert summary["btfn_predict_not_taken"] == expected["conditional_forward"]
