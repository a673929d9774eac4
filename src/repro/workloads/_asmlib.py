"""Shared assembly-generation helpers for the workload programs.

Workload generators build programs from Python, so repeated idioms live here:
deterministic data tables, the linear-congruential random step, and the
cold-branch auxiliary phase that gives every analog a realistic long tail
of rarely executed static branches.
"""

from __future__ import annotations

import random
from typing import List, Sequence


def words_directive(label: str, values: Sequence[int], per_line: int = 12) -> str:
    """Render a labelled ``.word`` table, wrapping long rows."""
    lines = [f"{label}:"]
    values = [value & 0xFFFFFFFF for value in values]
    if not values:
        return f"{label}: .word 0"
    for start in range(0, len(values), per_line):
        chunk = ", ".join(str(value) for value in values[start : start + per_line])
        lines.append(f"    .word {chunk}")
    return "\n".join(lines)


def random_words(seed: int, count: int, lo: int = 0, hi: int = 0x7FFFFFFF) -> List[int]:
    """Deterministic table of pseudo-random words."""
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(count)]


def lcg_step(state_reg: str, tmp_reg: str) -> str:
    """Assembly for one step of a 31-bit linear congruential generator:
    ``state = (state * 1103515245 + 12345) & 0x7FFFFFFF``.

    Clobbers ``tmp_reg``; leaves the new state in ``state_reg``.
    """
    return "\n".join(
        [
            f"    li   {tmp_reg}, 1103515245",
            f"    mul  {state_reg}, {state_reg}, {tmp_reg}",
            f"    addi {state_reg}, {state_reg}, 12345",
            f"    shli {state_reg}, {state_reg}, 1",
            f"    shri {state_reg}, {state_reg}, 1",
        ]
    )


def aux_phase(
    n_sites: int,
    seed: int,
    label_prefix: str = "aux",
    call_period_log2: int = 0,
    groups: int = 8,
    counter_reg: str = "r28",
    seed_state: bool = True,
) -> "tuple[str, str, str]":
    """Generate a cold-branch auxiliary phase.

    Real programs execute a long tail of static branches at low frequency
    (initialisation, bookkeeping, error paths); Table 1 counts hundreds to
    thousands of static conditional branches per benchmark even though a few
    hot loops dominate dynamically.  The hot kernels of the analogs alone
    would leave a 256-entry AHRT unpressured, hiding the Figure 6 effects.

    The sites are partitioned into ``groups`` subroutines visited round-robin
    — one group per invocation — so each call touches only ``n_sites /
    groups`` table entries (a burst that executed every site at once would
    wipe a finite HRT wholesale, which is not how real cold code behaves).

    Returns ``(init_text, call_text, subroutine_text)``:

    * ``init_text`` goes once at program start (sets up the phase state in
      ``r16`` and the call counter in ``counter_reg`` — ``r16``/``r17`` and
      the counter registers are reserved for these phases across all
      workloads; a second phase instance (e.g. a warm, medium-frequency
      population alongside the cold tail) must use a different counter).
    * ``call_text`` goes at a low-frequency point of the kernel; it invokes
      the phase every ``2 ** call_period_log2`` visits (``r29``/``r17`` are
      scratch).  The call site must not hold a live return address in ``r1``.

    When a program stacks two phase instances (cold + warm), only the last
    one's ``li r16`` survives — pass ``seed_state=False`` on the earlier
    instances so their init omits the overwritten (dead) seed store.  The
    site branch outcomes depend only on ``r16 mod 16`` (every site mask is
    at most 15) and every update of ``r16`` is additive, so which instance
    seeds the state shifts outcomes but never changes their structure.
    * ``subroutine_text`` holds the group bodies: generated branch sites
      whose outcomes follow short deterministic cycles of the evolving state
      register — partially learnable, like real cold branches.
    """
    rng = random.Random(seed)
    groups = max(1, min(groups, n_sites))
    lines: List[str] = []
    for group in range(groups):
        lines.append(f"{label_prefix}_g{group}:")
        lines.append(f"    addi r16, r16, {1 + 2 * group}")
        group_sites = range(group, n_sites, groups)
        for site in group_sites:
            increment = rng.choice((1, 3, 5, 7, 9, 11))
            mask = rng.choice((1, 3, 3, 7, 7, 15))
            sense = rng.choice(("beqz", "bnez"))
            lines.append(f"    addi r16, r16, {increment}")
            lines.append(f"    andi r17, r16, {mask}")
            lines.append(f"    {sense} r17, {label_prefix}_s{site}")
            # Not-taken path: nudge the state by a multiple of 16, which no
            # site mask (all <= 15) can observe — outcome sequences are
            # untouched, but fall-through paths do real, live work.
            lines.append("    addi r16, r16, 16")
            lines.append(f"{label_prefix}_s{site}:")
        lines.append("    rts")
    subroutine = "\n".join(lines)

    init_lines = []
    if seed_state:
        init_lines.append(f"    li   r16, {seed & 0x3FFF}")
    init_lines.append(f"    li   {counter_reg}, 0")
    init_text = "\n".join(init_lines)

    call_lines = [f"    addi {counter_reg}, {counter_reg}, 1"]
    skip = f"{label_prefix}_skip"
    if call_period_log2 > 0:
        call_lines += [
            f"    andi r29, {counter_reg}, {(1 << call_period_log2) - 1}",
            f"    bnez r29, {skip}",
        ]
    # Select the group from the counter bits above the period bits with a
    # compare ladder (cheap, and itself a set of perfectly periodic
    # branches).  A single group needs no selector at all.
    if groups > 1:
        call_lines += [
            f"    shri r29, {counter_reg}, {call_period_log2}",
            f"    andi r29, r29, {groups - 1}",
        ]
    for group in range(groups - 1):
        call_lines += [
            f"    li   r17, {group}",
            f"    bne  r29, r17, {label_prefix}_n{group}",
            f"    bsr  {label_prefix}_g{group}",
            f"    br   {skip}",
            f"{label_prefix}_n{group}:",
        ]
    call_lines += [
        f"    bsr  {label_prefix}_g{groups - 1}",
        f"{skip}:",
    ]
    return init_text, "\n".join(call_lines), subroutine


def bounded_driver(
    reg: str,
    label_prefix: str = "drv",
    bound: int = 1 << 30,
) -> "tuple[str, str, str]":
    """A termination bound for a workload's top-level driver loop.

    The analogs are sized externally (the tracer stops at a branch budget),
    but a loop with *no* exit is statically an infinite loop — the R006 lint
    rule, and a real hazard if a budget is ever mis-wired.  This gives the
    driver an architectural exit that never fires at realistic budgets
    (``bound`` iterations is orders of magnitude past the paper's 20M
    conditional branches), while staying almost invisible dynamically: the
    check branch is forward and never taken, so every predictor — including
    static BTFN — predicts it perfectly.

    Returns ``(init_text, check_text, stop_text)``: ``init_text`` goes at
    program start, ``check_text`` once inside the driver loop, and
    ``stop_text`` (the ``halt`` landing pad) at the end of the text section,
    which also satisfies the R002 no-fallthrough-off-text rule.
    """
    init_text = f"    li   {reg}, {bound}"
    check_text = "\n".join(
        [
            f"    addi {reg}, {reg}, -1",
            f"    beqz {reg}, {label_prefix}_stop",
        ]
    )
    stop_text = "\n".join([f"{label_prefix}_stop:", "    halt"])
    return init_text, check_text, stop_text


def join_sections(*sections: str) -> str:
    """Join program fragments with blank lines, dropping empties."""
    return "\n\n".join(section for section in sections if section.strip())
