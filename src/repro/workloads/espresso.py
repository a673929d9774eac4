"""espresso analog: cube containment scans.

SPEC89's espresso minimises two-level logic: its inner loops test cubes
(bit-mask encoded product terms) for containment and intersection against a
cover list.  Each scan walks the same cover, so a given containment branch
sees outcomes determined by the fixed cube list — irregular-looking but
exactly repeating across scans, which rewards pattern-history prediction.

The analog keeps a fixed cover of mask pairs and repeatedly scans it with a
rotating probe cube: per cube, a containment test, an intersection test,
and a literal-count loop with data-dependent trips.  The "cps" training and
"bca" testing sets (Table 3) are different covers — different sizes,
densities and branch tendencies.
"""

from __future__ import annotations

import random

from repro.workloads._asmlib import aux_phase, bounded_driver, join_sections, words_directive
from repro.workloads.base import DataSet, INTEGER, Workload, register_workload


def _cover(seed: int, cubes: int, density: float):
    """A list of (mask, care) words; density controls set-bit probability."""
    rng = random.Random(seed)
    masks = []
    cares = []
    for _ in range(cubes):
        mask = 0
        care = 0
        for bit in range(16):
            if rng.random() < density:
                care |= 1 << bit
                if rng.random() < 0.5:
                    mask |= 1 << bit
        masks.append(mask)
        cares.append(care | 1)  # at least one care bit
    return masks, cares


@register_workload
class Espresso(Workload):
    """Containment/intersection scans of a probe cube against a cover."""

    name = "espresso"
    category = INTEGER
    datasets = {
        # Both inputs are PLA covers of the same family: the training cover
        # ("cps") shares most of its cubes with the testing cover ("bca")
        # but swaps a handful, shifting per-pattern statistics by a little —
        # Figure 8 shows espresso degrading by about one percent.
        # Both covers come from the same PLA family; the inputs differ in
        # the probe phase the minimiser starts from (different cube order in
        # the input file), so per-pattern statistics shift modestly — the
        # paper's Figure 8 shows espresso degrading by about one percent.
        "test": DataSet("bca", {"seed": 2741, "cubes": 11, "density_pct": 55, "swap": 0, "probe_init": 5}),
        "train": DataSet("cps", {"seed": 9127, "cubes": 11, "density_pct": 55, "swap": 1, "probe_init": 5}),
    }

    def build_source(self, dataset: DataSet) -> str:
        cubes = dataset.param("cubes", 11)
        density = dataset.param("density_pct", 55) / 100.0
        swap = dataset.param("swap", 0)
        probe_init = dataset.param("probe_init", 5)
        # One shared base cover; the training set swaps a few cubes out.
        masks, cares = _cover(4391, cubes, density)
        if swap:
            alt_masks, alt_cares = _cover(dataset.param("seed", 9127), swap, density)
            for offset in range(swap):
                position = (offset * 4) % cubes
                masks[position] = alt_masks[offset]
                cares[position] = alt_cares[offset]
        # Cold-branch tail (Table 1 lists 556 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(429, seed=556, label_prefix="esaux", call_period_log2=4, groups=16, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=557, label_prefix="eswarm", call_period_log2=3, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r18", label_prefix="esdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, masks
    li   r21, cares
    li   r22, {probe_init}  ; probe cube (rotates each full scan)
    li   r19, 0             ; cover statistics accumulator

scan:
{drv_check}
{aux_call}
{warm_call}
    li   r2, 0              ; cube index
cube:
    shli r3, r2, 2
    add  r4, r3, r20
    ld   r5, 0(r4)          ; cube mask
    add  r4, r3, r21
    ld   r6, 0(r4)          ; cube care set

    ; containment: probe & care == mask & care ?
    and  r7, r22, r6
    and  r8, r5, r6
    bne  r7, r8, not_contained
    addi r19, r19, 1        ; contained: count it
    br   isect
not_contained:
    ; distance check: if they differ in exactly the low literal, still close
    xor  r9, r7, r8
    andi r10, r9, 1
    beqz r10, isect
    addi r19, r19, -1
isect:
    ; intersection emptiness: any shared care bit with equal value?
    and  r11, r22, r5
    beqz r11, next_cube

    ; literal-count loop: count set bits of the intersection (the add is
    ; branchless, as compilers emit it; the trip count is data-dependent)
    mov  r12, r11
bits:
    andi r13, r12, 1
    add  r19, r19, r13
    shri r12, r12, 1
    bnez r12, bits
next_cube:
    addi r2, r2, 1
    li   r3, {cubes}
    blt  r2, r3, cube

    ; swap the probe's halves so scans cycle with period two
    shli r14, r22, 8
    shri r15, r22, 8
    or   r22, r14, r15
    andi r22, r22, 65535
    bnez r22, scan
    li   r22, {probe_init}  ; never let the probe collapse to zero
    br   scan

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = join_sections(
            ".data",
            words_directive("masks", masks),
            words_directive("cares", cares),
        )
        return join_sections(text, data)
