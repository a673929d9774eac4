"""fpppp analog: quantum-chemistry two-electron integrals.

SPEC89's fpppp computes electron-repulsion integrals with enormous straight-
line basic blocks and remarkably few branches — the paper's Figure 3 shows
floating-point codes at only ~5 percent dynamic branch instructions, and
fpppp is the extreme of that.  Its branches are mostly the small loops over
shell indices plus occasional symmetry short-circuits.

The analog reproduces those demographics: a four-deep shell loop nest whose
body is one long unrolled arithmetic block (no branches inside), a symmetry
test that skips redundant quadruplets (a deterministic function of the loop
indices, so its outcome pattern is periodic and learnable), and a leaf call
per accepted quadruplet.
"""

from __future__ import annotations

from repro.workloads._asmlib import aux_phase, bounded_driver, join_sections
from repro.workloads.base import DataSet, FLOATING_POINT, Workload, register_workload


def _unrolled_block(terms: int) -> str:
    """A long straight-line arithmetic block (the fpppp signature)."""
    lines = []
    for index in range(terms):
        a = 4 + (index % 4)          # r4..r7 accumulators
        lines.append(f"    mul  r12, r8, r{a}")
        lines.append(f"    addi r12, r12, {index + 1}")
        lines.append(f"    add  r{a}, r{a}, r12")
        lines.append("    srai r12, r12, 3")
        lines.append(f"    xor  r9, r9, r12")
    return "\n".join(lines)


@register_workload
class Fpppp(Workload):
    """Shell-quadruplet integral loops with huge basic blocks."""

    name = "fpppp"
    category = FLOATING_POINT
    datasets = {
        # Table 3: no alternative data set applicable (testing set natoms).
        "test": DataSet("natoms", {"shells": 8, "terms": 24}),
    }

    def build_source(self, dataset: DataSet) -> str:
        shells = dataset.param("shells", 8)
        terms = dataset.param("terms", 24)
        # Cold-branch tail (Table 1 lists 653 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(534, seed=653, label_prefix="fpaux", call_period_log2=4, groups=16, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=654, label_prefix="fpwarm", call_period_log2=1, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="fpdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, {shells}
    li   r4, 1
    li   r5, 2
    li   r6, 3
    li   r7, 4
    li   r9, 0

pass:
{drv_check}
    li   r2, 0              ; shell i
si:
    li   r3, 0              ; shell j
sj:
{warm_call}
{aux_call}
    li   r10, 0             ; shell k
sk:
    li   r11, 0             ; shell l
sl:
    ; symmetry screen: skip the rare fully-symmetric quadruplets — a
    ; deterministic, strongly-biased, exactly periodic branch (real fpppp
    ; screens redundant integrals the same way).
    add  r8, r2, r3
    add  r13, r10, r11
    add  r13, r8, r13
    andi r13, r13, 7
    beqz r13, skip_quad
    addi r8, r8, 2          ; seed value for the block
    bsr  integral
skip_quad:
    addi r11, r11, 1
    blt  r11, r20, sl
    addi r10, r10, 1
    blt  r10, r20, sk
    addi r3, r3, 1
    blt  r3, r20, sj
    addi r2, r2, 1
    blt  r2, r20, si
    br   pass

integral:
{_unrolled_block(terms)}
    rts

{aux_sub}

{warm_sub}

{drv_stop}
"""
        return join_sections(text)
