"""spice2g6 analog: circuit simulation inner loop.

SPEC89's spice2g6 spends its time in Newton-iteration sweeps over the
circuit's element list: per element, a dispatch on device type, model
evaluation, and convergence checks.  Because the element list is fixed, the
dispatch branches see the *same* outcome sequence every iteration — a
classic periodic history pattern — while the convergence tests are
data-dependent early and settle as the solution converges.

The analog sweeps a fixed element table: a type-dispatch ladder (resistor /
capacitor / diode-like update rules), an update magnitude check per element,
and an outer convergence loop that restarts with a perturbed state when the
sweep converges (so the trace runs indefinitely).  The "short greycode.in"
training set (Table 3) uses a different element mix and tolerance.
"""

from __future__ import annotations

import random

from repro.workloads._asmlib import aux_phase, bounded_driver, join_sections, words_directive
from repro.workloads.base import DataSet, FLOATING_POINT, Workload, register_workload


def _element_tables(seed: int, count: int, type_weights: "tuple[int, int, int]"):
    """Element type codes (0/1/2) and parameter values.

    Types are sorted: circuit netlists list devices grouped by kind, so the
    dispatch branches see long runs rather than alternations.
    """
    rng = random.Random(seed)
    population = [0] * type_weights[0] + [1] * type_weights[1] + [2] * type_weights[2]
    types = sorted(rng.choice(population) for _ in range(count))
    params = [rng.randint(1, 500) for _ in range(count)]
    return types, params


@register_workload
class Spice2g6(Workload):
    """Newton sweeps over a fixed element list with type dispatch."""

    name = "spice2g6"
    category = FLOATING_POINT
    datasets = {
        # The training input is "short greycode.in" — the same circuit run
        # shorter: identical element list with a few devices swapped, same
        # tolerance.  FP degradation under Diff training stays tiny (Fig 8).
        # "short greycode.in" is the same circuit simulated from a different
        # operating point: identical element list, different initial bias
        # (perturbation phase), so only the data-dependent convergence
        # branches shift — the FP Diff degradation in Figure 8 is tiny.
        "test": DataSet("greycode", {"seed": 31337, "elements": 48, "w0": 5, "w1": 3, "w2": 2, "tol": 6, "swap": 0, "r18_init": 1}),
        "train": DataSet("short-greycode", {"seed": 555, "elements": 48, "w0": 5, "w1": 3, "w2": 2, "tol": 6, "swap": 0, "r18_init": 11}),
    }

    def build_source(self, dataset: DataSet) -> str:
        elements = dataset.param("elements", 23)
        weights = (dataset.param("w0", 5), dataset.param("w1", 3), dataset.param("w2", 2))
        tol = dataset.param("tol", 6)
        swap = dataset.param("swap", 0)
        r18_init = dataset.param("r18_init", 1)
        # One shared base circuit; the training input swaps a few devices.
        types, params = _element_tables(77717, elements, weights)
        if swap:
            alt_types, alt_params = _element_tables(dataset.param("seed", 555), swap, weights)
            for offset in range(swap):
                position = (offset * 5) % elements
                types[position] = alt_types[offset]
                params[position] = alt_params[offset]
        # Cold-branch tail (Table 1 lists 606 static conditional branches).
        aux_init, aux_call, aux_sub = aux_phase(479, seed=606, label_prefix="spaux", call_period_log2=3, groups=16, seed_state=False)
        warm_init, warm_call, warm_sub = aux_phase(96, seed=607, label_prefix="spwarm", call_period_log2=0, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="spdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, etypes
    li   r21, eparams
    li   r22, state
    li   r23, {tol}
    li   r18, {r18_init}    ; iteration counter (perturbation source)

newton:
{drv_check}
{aux_call}
{warm_call}
    li   r19, 0             ; non-converged element count
    li   r2, 0              ; element index
element:
    shli r3, r2, 2
    add  r4, r3, r20
    ld   r5, 0(r4)          ; device type (fixed list -> periodic branches)
    add  r4, r3, r21
    ld   r6, 0(r4)          ; parameter
    add  r7, r3, r22        ; &state[e]
    ld   r8, 0(r7)          ; current value

    beqz r5, dev_res
    li   r9, 1
    beq  r5, r9, dev_cap
    ; diode-like: exponential-ish update via squaring and clamp
    mul  r10, r8, r8
    srai r10, r10, 8
    add  r10, r10, r6
    li   r11, 100000
    ble  r10, r11, dio_ok
    li   r10, 100000
dio_ok:
    br   dev_done
dev_cap:
    ; capacitor: relax toward parameter
    add  r10, r8, r6
    srai r10, r10, 1
    br   dev_done
dev_res:
    ; resistor: linear update, three quarters of the way to the solution
    sub  r10, r6, r8
    srai r10, r10, 2
    sub  r10, r6, r10
dev_done:
    sub  r12, r10, r8       ; delta
    srai r13, r12, 31       ; branchless |delta|
    xor  r12, r12, r13
    sub  r12, r12, r13
    st   r10, 0(r7)
    ble  r12, r23, conv
    addi r19, r19, 1        ; not converged yet
conv:
    addi r2, r2, 1
    li   r3, {elements}
    blt  r2, r3, element

    bgt  r19, r0, newton    ; keep iterating while any element moves

    ; converged: perturb the state so the simulation continues (new "time point")
    addi r18, r18, 1
    li   r2, 0
perturb:
    shli r3, r2, 2
    add  r3, r3, r22
    ld   r4, 0(r3)
    mul  r5, r2, r18
    andi r5, r5, 63
    addi r5, r5, 64         ; uniform perturbation magnitude per time point
    add  r4, r4, r5
    st   r4, 0(r3)
    addi r2, r2, 1
    li   r3, {elements}
    blt  r2, r3, perturb
    br   newton

{aux_sub}

{warm_sub}

{drv_stop}
"""
        data = join_sections(
            ".data",
            words_directive("etypes", types),
            words_directive("eparams", params),
            f"state: .space {elements}",
        )
        return join_sections(text, data)
