"""matrix300 analog: dense matrix multiply.

SPEC89's matrix300 is 300x300 dense matrix arithmetic — the archetypal
loop-bound floating-point benchmark.  Its branch behaviour is almost entirely
loop-closing backward branches, which is why the paper shows BTFN reaching
~98 percent on it while the same scheme collapses on the integer codes.

The analog is a blocked triple-nested integer matrix multiply: identical
loop structure, identical branch demographics (deep inner loops, one
fall-through per loop exit, very high taken rate, tiny static branch count —
Table 1 lists only 213 static conditional branches for the original).
"""

from __future__ import annotations

from repro.workloads._asmlib import aux_phase, bounded_driver, join_sections
from repro.workloads.base import DataSet, FLOATING_POINT, Workload, register_workload


@register_workload
class Matrix300(Workload):
    """C = A x B over an NxN integer matrix, repeated indefinitely."""

    name = "matrix300"
    category = FLOATING_POINT
    datasets = {
        # Table 3: no alternative data set applicable (marked NA).
        "test": DataSet("default", {"n": 64}),
    }

    def build_source(self, dataset: DataSet) -> str:
        n = dataset.param("n", 64)
        cells = n * n
        # Cold-branch tail (Table 1 lists 213 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(109, seed=300, label_prefix="m3aux", call_period_log2=5, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=301, label_prefix="m3warm", call_period_log2=2, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="m3drv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, {n}          ; N
    li   r21, mat_a
    li   r22, mat_b
    li   r23, mat_c
    ; fill A and B with simple deterministic values once
    li   r2, 0             ; linear index
init:
    shli r3, r2, 2
    add  r4, r3, r21
    addi r5, r2, 3
    st   r5, 0(r4)
    add  r4, r3, r22
    muli r5, r2, 7
    st   r5, 0(r4)
    addi r2, r2, 1
    li   r3, {cells}
    blt  r2, r3, init

outer:
{drv_check}
    li   r2, 0             ; i
iloop:
    li   r3, 0             ; j
jloop:
{warm_call}
{aux_call}
    li   r4, 0             ; k
    li   r5, 0             ; acc
kloop:
    mul  r6, r2, r20       ; A[i][k]
    add  r6, r6, r4
    shli r6, r6, 2
    add  r6, r6, r21
    ld   r7, 0(r6)
    mul  r8, r4, r20       ; B[k][j]
    add  r8, r8, r3
    shli r8, r8, 2
    add  r8, r8, r22
    ld   r9, 0(r8)
    mul  r10, r7, r9
    add  r5, r5, r10
    addi r4, r4, 1
    blt  r4, r20, kloop
    mul  r6, r2, r20       ; C[i][j] = acc
    add  r6, r6, r3
    shli r6, r6, 2
    add  r6, r6, r23
    st   r5, 0(r6)
    addi r3, r3, 1
    blt  r3, r20, jloop
    addi r2, r2, 1
    blt  r2, r20, iloop
    br   outer

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = f"""
.data
mat_a: .space {cells}
mat_b: .space {cells}
mat_c: .space {cells}
"""
        return join_sections(text, data)
