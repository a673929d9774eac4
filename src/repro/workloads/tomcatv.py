"""tomcatv analog: vectorised mesh relaxation.

SPEC89's tomcatv generates a 2D mesh by iterative relaxation: regular sweeps
over a grid with convergence bookkeeping.  Like matrix300 it is loop-bound
(the paper's "repetitive loop execution" pair), so every reasonable dynamic
predictor approaches its asymptote and BTFN is unusually strong.

The analog sweeps an NxN integer grid, replacing interior points by a
neighbour average, and counts points whose residual exceeds a tolerance —
the residual branch starts data-dependent and settles as the grid smooths,
the same convergence-driven behaviour the original exhibits.
"""

from __future__ import annotations

from repro.workloads._asmlib import (
    aux_phase,
    bounded_driver,
    join_sections,
    random_words,
    words_directive,
)
from repro.workloads.base import DataSet, FLOATING_POINT, Workload, register_workload


@register_workload
class Tomcatv(Workload):
    """Jacobi-style relaxation sweeps over an NxN grid."""

    name = "tomcatv"
    category = FLOATING_POINT
    datasets = {
        # Table 3: no alternative data set applicable (marked NA).
        "test": DataSet("default", {"n": 64, "seed": 1009, "tol": 8}),
    }

    def build_source(self, dataset: DataSet) -> str:
        n = dataset.param("n", 64)
        seed = dataset.param("seed", 1009)
        tol = dataset.param("tol", 8)
        cells = n * n
        initial = random_words(seed, cells, lo=0, hi=4096)
        # Cold-branch tail (Table 1 lists 370 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(259, seed=370, label_prefix="tcaux", call_period_log2=2, groups=16, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=371, label_prefix="tcwarm", call_period_log2=0, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r18", label_prefix="tcdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, {n}           ; N
    li   r21, grid
    li   r22, scratch
    li   r23, {tol}         ; tolerance

sweep:
{drv_check}
    li   r19, 0             ; residual count this sweep
    li   r2, 1              ; i = 1 .. N-2
irow:
{aux_call}
{warm_call}
    li   r3, 1              ; j = 1 .. N-2
jcol:
    mul  r4, r2, r20        ; cell index
    add  r4, r4, r3
    shli r4, r4, 2
    add  r5, r4, r21        ; &grid[i][j]
    ld   r6, 0(r5)          ; old value
    ld   r7, 4(r5)          ; east
    ld   r8, -4(r5)         ; west
    li   r9, {4 * n}        ; row stride in bytes
    add  r10, r5, r9
    ld   r10, 0(r10)        ; south
    sub  r11, r5, r9
    ld   r11, 0(r11)        ; north
    add  r12, r7, r8
    add  r12, r12, r10
    add  r12, r12, r11
    srai r12, r12, 2        ; average of neighbours
    add  r13, r4, r22
    st   r12, 0(r13)        ; write into scratch
    sub  r14, r12, r6       ; residual
    srai r15, r14, 31       ; branchless |residual| (as compiled FP code is)
    xor  r14, r14, r15
    sub  r14, r14, r15
    or   r19, r19, r14      ; accumulate a residual indicator for the sweep
    addi r3, r3, 1
    addi r15, r20, -1
    blt  r3, r15, jcol
    addi r2, r2, 1
    blt  r2, r15, irow

    ; copy scratch back into grid interior
    li   r2, 1
crow:
    li   r3, 1
ccol:
    mul  r4, r2, r20
    add  r4, r4, r3
    shli r4, r4, 2
    add  r5, r4, r22
    ld   r6, 0(r5)
    add  r7, r4, r21
    st   r6, 0(r7)
    addi r3, r3, 1
    addi r15, r20, -1
    blt  r3, r15, ccol
    addi r2, r2, 1
    blt  r2, r15, crow

    ; once-per-sweep convergence test (reductions are branchless above)
    bgt  r19, r23, sweep
    li   r2, 0
rough:
    shli r3, r2, 2
    add  r3, r3, r21
    ld   r4, 0(r3)
    muli r5, r2, 97
    add  r4, r4, r5
    andi r4, r4, 4095
    st   r4, 0(r3)
    addi r2, r2, 1
    li   r3, {cells}
    blt  r2, r3, rough
    br   sweep

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = join_sections(
            ".data",
            words_directive("grid", initial),
            f"scratch: .space {cells}",
        )
        return join_sections(text, data)
