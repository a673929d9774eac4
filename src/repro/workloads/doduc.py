"""doduc analog: Monte Carlo reactor simulation.

SPEC89's doduc simulates a nuclear reactor's thermo-hydraulics: a time-step
driver, physics kernels with data-dependent decisions, and table lookups
whose access patterns repeat across time steps.  Its branch behaviour mixes
highly regular loop control, table-driven decisions that recur identically
each time step (learnable history patterns), and genuinely stochastic
threshold tests.

The analog has the same three populations: per-step loops, a scanned
parameter table whose sign/threshold branches repeat with the table period,
and an LCG-driven acceptance test providing irreducible noise.  The training
data set ("tiny doducin", Table 3) uses a different seed, threshold and
parameter table so per-pattern statistics shift between train and test.
"""

from __future__ import annotations

from repro.workloads._asmlib import (
    aux_phase,
    bounded_driver,
    join_sections,
    lcg_step,
    random_words,
    words_directive,
)
from repro.workloads.base import DataSet, FLOATING_POINT, Workload, register_workload


@register_workload
class Doduc(Workload):
    """Time-step driver with table-driven physics branches and MC noise."""

    name = "doduc"
    category = FLOATING_POINT
    datasets = {
        # The training input ("tiny doducin") is the same reactor model at a
        # smaller scale: identical structure, mildly perturbed parameter
        # table, different random seed.  Matching the paper, FP benchmarks
        # degrade very little when trained on the alternative input.
        "test": DataSet("doducin", {"seed": 4242, "threshold": 3500, "table_len": 11, "inner": 12, "perturb": 0}),
        "train": DataSet("tiny", {"seed": 977, "threshold": 3500, "table_len": 11, "inner": 12, "perturb": 0}),
    }

    def build_source(self, dataset: DataSet) -> str:
        seed = dataset.param("seed", 4242)
        threshold = dataset.param("threshold", 1500)
        table_len = dataset.param("table_len", 11)
        inner = dataset.param("inner", 12)
        perturb = dataset.param("perturb", 0)
        # Both data sets share one base parameter table; the training set
        # perturbs a few entries (same physics, smaller input).
        # sorted: physical parameter tables are monotone in practice, so the
        # hot/cool decision sees runs with one transition per table cycle
        table = sorted(random_words(12721, table_len, lo=0, hi=4000))
        if perturb:
            replacement = random_words(seed, perturb, lo=0, hi=4000)
            for offset, value in enumerate(replacement):
                table[(offset * 3) % table_len] = value
        # Cold-branch tail (Table 1 lists 1149 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(984, seed=1149, label_prefix="ddaux", call_period_log2=5, groups=16, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=1150, label_prefix="ddwarm", call_period_log2=3, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="dddrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, {seed}        ; LCG state
    li   r21, params
    li   r22, {threshold}
    li   r24, 0             ; table index
    li   r19, 0             ; accumulated "energy"

step:
{drv_check}
{aux_call}
{warm_call}
    ; ---- physics kernel: fixed-trip inner loop over nodes --------------
    li   r2, 0
node:
    ; table-driven decision: repeats with the table period across steps
    shli r3, r24, 2
    add  r3, r3, r21
    ld   r4, 0(r3)
    addi r24, r24, 1
    li   r3, {table_len}
    bge  r24, r3, dowrap    ; rare forward branch (table exhausted)
nowrap:
    li   r5, 2000
    blt  r4, r5, cool_path
    add  r19, r19, r4       ; hot node: accumulate
    srai r19, r19, 1
    br   node_done
cool_path:
    sub  r19, r19, r4
    bge  r19, r0, node_done
    li   r19, 0             ; clamp
node_done:
    addi r2, r2, 1
    li   r3, {inner}
    blt  r2, r3, node

    ; ---- Monte Carlo acceptance: stochastic threshold test -------------
{lcg_step("r20", "r6")}
    andi r7, r20, 4095
    blt  r7, r22, accept
    addi r19, r19, 7        ; reject path
    br   mc_done
accept:
    bsr  relax
mc_done:
    br   step

dowrap:
    li   r24, 0
    br   nowrap

relax:
    ; short data-dependent damping loop: trip count from the LCG low bits
    andi r8, r20, 3
    addi r8, r8, 1
damp:
    srai r19, r19, 1
    addi r8, r8, -1
    bgt  r8, r0, damp
    rts

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = join_sections(".data", words_directive("params", table))
        return join_sections(text, data)
