"""eqntott analog: PLA term comparison (the ``cmppt`` kernel).

SPEC89's eqntott converts boolean equations to truth tables; nearly all its
time goes into sorting product terms, i.e. the ``cmppt`` routine that walks
two bit vectors until the first differing position.  Its branches are the
canonical history-correlated case: the compare-loop exit fires at a position
determined by the data, and because the same terms are compared repeatedly
during the sort, exit positions recur in patterns a two-level predictor
learns and a per-branch counter cannot.

The analog compares vector pairs from a fixed pool cyclically; the
first-difference position of consecutive pairs follows a short schedule
(period 7 by default), so the compare-loop's exit branch shows an exact
periodic pattern.  A biased LCG branch adds the irreducible noise floor.
Table 3 lists no applicable training set for eqntott, so only the test data
set exists.
"""

from __future__ import annotations

import random

from repro.workloads._asmlib import (
    aux_phase,
    bounded_driver,
    join_sections,
    lcg_step,
    words_directive,
)
from repro.workloads.base import DataSet, INTEGER, Workload, register_workload


def _vector_pool(seed: int, pairs: int, width: int, schedule_period: int):
    """Build ``pairs`` pairs of ``width``-word vectors where pair ``k``
    first differs at word ``schedule[k % period]``."""
    rng = random.Random(seed)
    schedule = [rng.randrange(width) for _ in range(schedule_period)]
    vec_a: "list[int]" = []
    vec_b: "list[int]" = []
    for pair in range(pairs):
        diff_at = schedule[pair % schedule_period]
        base = [rng.randint(0, 0xFFFF) for _ in range(width)]
        other = list(base)
        other[diff_at] = base[diff_at] ^ (1 + rng.randint(0, 0x7FFF))
        # words after the difference are irrelevant to cmppt but vary anyway
        for position in range(diff_at + 1, width):
            other[position] = rng.randint(0, 0xFFFF)
        vec_a.extend(base)
        vec_b.extend(other)
    return vec_a, vec_b


@register_workload
class Eqntott(Workload):
    """Cyclic cmppt sweeps over a fixed pool of term pairs."""

    name = "eqntott"
    category = INTEGER
    datasets = {
        # Table 3: testing set int_pri_3.eqn; no applicable training set.
        "test": DataSet("int_pri_3", {"seed": 8111, "pairs": 13, "width": 8, "period": 7, "noise": 330}),
    }

    def build_source(self, dataset: DataSet) -> str:
        seed = dataset.param("seed", 8111)
        pairs = dataset.param("pairs", 13)
        width = dataset.param("width", 8)
        period = dataset.param("period", 7)
        noise = dataset.param("noise", 1300)
        vec_a, vec_b = _vector_pool(seed, pairs, width, period)
        # Cold-branch tail (Table 1 lists 277 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(159, seed=277, label_prefix="eqaux", call_period_log2=2, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=278, label_prefix="eqwarm", call_period_log2=5, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="eqdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, terms_a
    li   r21, terms_b
    li   r22, {seed}        ; LCG state for the noise branch
    li   r23, 0             ; pair index
    li   r19, 0             ; "comparison result" accumulator

sortpass:
{warm_call}
    ; ---- cmppt: compare pair r23's two vectors word by word ------------
    muli r2, r23, {4 * width}
    add  r3, r2, r20        ; &a[pair][0]
    add  r4, r2, r21        ; &b[pair][0]
    li   r5, 0              ; word position
cmppt:
    ld   r6, 0(r3)
    ld   r7, 0(r4)
    bne  r6, r7, differs    ; exit position follows the pair schedule
    addi r3, r3, 4
    addi r4, r4, 4
    addi r5, r5, 1
    li   r8, {width}
    blt  r5, r8, cmppt
    br   equal              ; never reached: every pair differs somewhere
differs:
    blt  r6, r7, a_less
    addi r19, r19, 1
    br   compared
a_less:
    addi r19, r19, -1
    br   compared
equal:
    addi r19, r19, 0
compared:

    ; ---- advance to the next pair (cyclic) ------------------------------
    addi r23, r23, 1
    li   r8, {pairs}
    bge  r23, r8, do_wrap   ; rare forward branch (pool exhausted)
no_wrap:

    ; ---- biased noise branch (~irreducible data dependence) -------------
{lcg_step("r22", "r9")}
    andi r10, r22, 4095
    li   r11, {noise}
    blt  r10, r11, noisy
    addi r19, r19, 2
    br   sortpass
noisy:
    srai r19, r19, 1
    br   sortpass

do_wrap:
    li   r23, 0
{drv_check}
{aux_call}
    br   no_wrap

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = join_sections(
            ".data",
            words_directive("terms_a", vec_a),
            words_directive("terms_b", vec_b),
        )
        return join_sections(text, data)
