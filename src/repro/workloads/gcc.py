"""gcc analog: a token-stream interpreter with many small handlers.

SPEC89's gcc is the branch-predictor stress test of the suite: Table 1
counts 6,922 static conditional branches, spread over parsing, RTL analysis
and code generation — thousands of small, modestly-biased decision points
rather than a few hot loops.

The analog is a generated interpreter: a computed-goto dispatch (exercising
the register-unconditional branch class) over a fixed cyclic token stream,
with one generated handler per opcode.  Handlers test attribute bits of the
current token, compare against generated constants, consult a persistent
mode register (cross-token correlation), and occasionally call shared helper
routines (exercising calls/returns).  The handler *code* is identical across
data sets — only the token stream and attribute words change — exactly like
recompiling different source files with the same compiler (Table 3 trains on
``cexp.i`` and tests on ``dbxout.i``).

The static-branch population (hundreds of sites) is a scaled-down stand-in
for gcc's 6,922; the scale is recorded in DESIGN.md's substitution table.
"""

from __future__ import annotations

import random
from typing import List

from repro.workloads._asmlib import aux_phase, bounded_driver, join_sections, words_directive
from repro.workloads.base import DataSet, INTEGER, Workload, register_workload

#: handler structure is part of the *program*, not the data set, so it uses a
#: fixed seed — both Table 3 data sets run the identical interpreter.
_PROGRAM_SEED = 20011


def _handler(index: int, rng: random.Random, helpers: int) -> str:
    """Generate one token handler with 2-4 conditional branches."""
    lines = [f"h{index}:"]
    bit = 1 << rng.randrange(12)
    lines += [
        f"    andi r9, r6, {bit}",
        f"    beqz r9, h{index}_alt",
        f"    addi r19, r19, {rng.randrange(1, 9)}",
    ]
    style = rng.choices((0, 1, 2, 3), weights=(45, 15, 30, 10))[0]
    if style == 0:
        # nested threshold test on the attribute value
        threshold = rng.randrange(256, 3840)
        lines += [
            f"    li   r10, {threshold}",
            f"    blt  r6, r10, h{index}_low",
            "    srai r19, r19, 1",
            f"    br   h{index}_alt",
            f"h{index}_low:",
            "    addi r18, r18, 1",
        ]
    elif style == 1:
        # mode-register test (correlates across tokens)
        lines += [
            f"    andi r10, r18, {1 << rng.randrange(4)}",
            f"    beqz r10, h{index}_alt",
            "    xor  r19, r19, r6",
        ]
    elif style == 2:
        # helper call
        lines += [
            f"    bsr  helper{rng.randrange(helpers)}",
        ]
    else:
        # parity of accumulator
        lines += [
            "    andi r10, r19, 1",
            f"    bnez r10, h{index}_odd",
            "    addi r18, r18, 3",
            f"    br   h{index}_alt",
            f"h{index}_odd:",
            "    srai r18, r18, 1",
        ]
    lines += [
        f"h{index}_alt:",
        "    andi r18, r18, 255",
        "    br   dispatch",
    ]
    return "\n".join(lines)


def _helpers(count: int, rng: random.Random) -> str:
    """Small shared leaf routines (one conditional each)."""
    chunks: List[str] = []
    for index in range(count):
        constant = rng.randrange(3, 60)
        chunks.append(
            "\n".join(
                [
                    f"helper{index}:",
                    f"    li   r11, {constant}",
                    "    blt  r19, r11, helper{0}_small".format(index),
                    f"    sub  r19, r19, r11",
                    "    rts",
                    f"helper{index}_small:",
                    "    add  r19, r19, r11",
                    "    rts",
                ]
            )
        )
    return "\n\n".join(chunks)


def _phrase_library(handlers: int, phrases: int = 48):
    """Fixed library of token idioms.

    Compilers see the same few-token idioms over and over (declarations,
    calls, loop heads), regardless of which source file is compiled; branch
    outcomes therefore correlate strongly with recent history.  Each phrase
    is a short fixed sequence of (opcode, attribute) pairs — the library
    belongs to the *language*, so it is shared by every data set.
    """
    rng = random.Random(_PROGRAM_SEED + 17)
    weights = [1.0 / (rank + 1) for rank in range(handlers)]
    library = []
    for _ in range(phrases):
        length = rng.randint(6, 14)
        phrase = [
            (rng.choices(range(handlers), weights=weights)[0], rng.randrange(0, 4096))
            for _ in range(length)
        ]
        library.append(phrase)
    return library


def _token_stream(seed: int, length: int, handlers: int, epochs: int = 4):
    """A stream composed of library phrases plus a little free-form noise.

    The stream is organised in *epochs*, each drawing from an overlapping
    subset of the phrase library — a compiler works function by function, so
    at any moment only part of its code is hot and the working set shifts
    slowly.  This temporal locality is what gives a tagged LRU table (AHRT)
    its hit-ratio advantage over a tagless hash table in Figure 6.

    Different data sets (source files) mix the same idioms in different
    proportions, so the stream differs while per-history statistics mostly
    transfer — the mechanism behind gcc's ~1 percent Figure 8 degradation.
    """
    rng = random.Random(seed)
    library = _phrase_library(handlers)
    pool_size = max(2, (2 * len(library)) // (epochs + 1))  # overlapping pools
    pools = []
    for epoch in range(epochs):
        start = (epoch * (len(library) - pool_size)) // max(1, epochs - 1)
        pools.append(library[start : start + pool_size])
    epoch_len = max(1, length // epochs)

    opcodes: "list[int]" = []
    attrs: "list[int]" = []
    uniform = [1.0] * handlers
    while len(opcodes) < length:
        epoch = min(len(opcodes) // epoch_len, epochs - 1)
        pool = pools[epoch]
        # steep skew within the pool: a few idioms dominate any function
        weights = [1.0 / (rank + 1) ** 1.7 for rank in range(len(pool))]
        if rng.random() < 0.03:  # free-form token (file-specific noise)
            opcodes.append(rng.choices(range(handlers), weights=uniform)[0])
            attrs.append(rng.randrange(0, 4096))
            continue
        for opcode, attr in rng.choices(pool, weights=weights)[0]:
            opcodes.append(opcode)
            attrs.append(attr)
    return opcodes[:length], attrs[:length]


@register_workload
class Gcc(Workload):
    """Computed-goto interpreter over a cyclic token stream."""

    name = "gcc"
    category = INTEGER
    datasets = {
        "test": DataSet("dbxout.i", {"stream_seed": 60601, "stream_len": 420}),
        "train": DataSet("cexp.i", {"stream_seed": 7333, "stream_len": 360}),
    }

    #: generated-program shape (identical for every data set).  480 handlers
    #: with ~3 branch sites each plus the cold tail gives a static population
    #: in the low thousands — gcc is Table 1's outlier at 6,922 and must be
    #: the benchmark that pressures every finite HRT.
    num_handlers = 480
    num_helpers = 10

    def build_source(self, dataset: DataSet) -> str:
        stream_seed = dataset.param("stream_seed", 60601)
        stream_len = dataset.param("stream_len", 211)
        opcodes, attrs = _token_stream(stream_seed, stream_len, self.num_handlers)
        rng = random.Random(_PROGRAM_SEED)
        handlers = "\n\n".join(
            _handler(index, rng, self.num_helpers) for index in range(self.num_handlers)
        )
        helpers = _helpers(self.num_helpers, rng)
        # Cold-branch tail on top of the handler population (Table 1: 6,922).
        aux_init, aux_call, aux_sub = aux_phase(1304, seed=6922, label_prefix="gcaux", call_period_log2=6, groups=64, seed_state=False)
        # Warm, medium-frequency population: resident under a tagged LRU
        # table, collision-prone in a tagless hash (the Figure 6 lever).
        warm_init, warm_call, warm_sub = aux_phase(96, seed=6923, label_prefix="gcwarm", call_period_log2=6, groups=4, counter_reg="r25")
        drv_init, drv_check, drv_stop = bounded_driver("r15", label_prefix="gcdrv")
        text = f"""
_start:
{aux_init}
{warm_init}
{drv_init}
    li   r20, stream
    li   r21, attrs
    li   r22, handler_table
    li   r24, 0             ; stream index
    li   r18, 0             ; persistent mode register
    li   r19, 0             ; accumulator

dispatch:
{aux_call}
{warm_call}
    shli r3, r24, 2
    add  r4, r3, r20
    ld   r5, 0(r4)          ; opcode
    add  r4, r3, r21
    ld   r6, 0(r4)          ; attribute word
    addi r24, r24, 1
    li   r7, {stream_len}
    bge  r24, r7, do_wrap   ; rare forward branch (end of token stream)
resume:
    shli r7, r5, 2
    add  r7, r7, r22
    ld   r8, 0(r7)
    jmp  r8                 ; computed goto into the handler
do_wrap:
    li   r24, 0
{drv_check}
    br   resume
"""
        # handler_table holds label references, which words_directive does
        # not produce — emit the directive rows directly.
        rows = []
        for start in range(0, self.num_handlers, 8):
            chunk = ", ".join(f"h{i}" for i in range(start, min(start + 8, self.num_handlers)))
            rows.append(f"    .word {chunk}")
        table = "handler_table:\n" + "\n".join(rows)
        data = join_sections(
            ".data",
            table,
            words_directive("stream", opcodes),
            words_directive("attrs", attrs),
        )
        return join_sections(text, handlers, helpers, aux_sub, warm_sub, drv_stop, data)
