"""Vectorized predictor kernels over packed traces (the ``vector`` backend).

The scalar engine dispatches one Python ``observe()`` call per conditional
record — the wall-clock floor of every full-figure sweep.  The vector
backend scores whole predictor families with columnar batch operations
instead.  This module holds the per-family primitives and the one-spec
entry points; the recipe that combines the primitives for a scheme lives
in its family (:mod:`repro.predictors.families`), the history windows and
the automaton scan in :mod:`repro.sim.sweep`, and every one-spec call
here is a one-spec fused sweep.

* **Stateless schemes** (Always Taken / Not Taken, BTFN, per-branch
  profiling) reduce to pure column comparisons.
* **Small-FSM schemes** decompose into *independent buckets* whose state
  evolutions never interact in the scalar engine either: Lee & Smith
  per-address automata (one bucket per branch address), the two-level AT
  pattern table (one bucket per k-bit history pattern, each record's
  pattern derived by a per-branch sliding window), Static Training
  (profiled preset bits, so the test pass is a table lookup), and the
  global-history extensions GAg and gshare (single global window).
* **TAGE** (:mod:`repro.predictors.modern`) couples its tables through
  provider selection and allocation, so its per-record state walk is
  inherently sequential; the kernel instead lifts all the *hash* work —
  per-table folded indices and tags over the global-history column —
  into whole-column NumPy passes, then drives the same
  :class:`~repro.predictors.modern.TageState` update rule the scalar
  predictor uses, guaranteeing bit-exactness.
* **The perceptron** trains on about a quarter of its records, too often
  for a speculative block scan to win, so its recipe drives the scalar
  predictor itself, one per session.
* **Finite HRT front-ends** (AHRT / HHRT) reduce to the same bucket
  machinery through a *key remap*:

  - the hashed HHRT's collisions are just a different pc→bucket map —
    every branch hashing to a slot shares one register, so replaying the
    slot's merged outcome sequence reproduces the interference exactly;
  - the set-associative AHRT's payloads live in *physical registers*
    (eviction inherits the victim's bits — section 4.2), so each record is
    keyed by the register that services it.  The register assignment is a
    pure function of the pc touch sequence (LRU order never reads payloads
    or outcomes) and decomposes per way-set; sets whose touch alphabet
    fits in the ways — the common case — assign fully columnarly, and one
    loop walks only the LRU events of all *conflicted* sets, the same walk
    the streaming scorers carry (see :class:`AhrtReplay`).

Every kernel is **bit-exact** against the scalar engine, which remains the
reference: the per-record predictions are identical, so
:class:`~repro.sim.results.PredictionStats` and per-site accuracies match
exactly.  Every spec family the registry can parse has a vector recipe.

NumPy is an optional dependency (see :mod:`repro.sim.backend`); everything
here raises :class:`~repro.errors.KernelError` when it is missing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError, KernelError
from repro.predictors.hrt import _HASH_MULTIPLIER
from repro.predictors.modern import (
    BASE_EXTRA_BITS,
    TAG_BITS,
    TageState,
)
from repro.predictors.spec import PredictorSpec
from repro.sim.backend import numpy_or_none, resolve_backend
from repro.sim.results import PredictionStats
from repro.trace.columnar import PackedTrace

_CLS_MASK = 0x0E


def _np() -> Any:
    numpy = numpy_or_none()
    if numpy is None:
        raise KernelError("vectorized kernels require NumPy, which is not installed")
    return numpy


# ----------------------------------------------------------------------
# column extraction
# ----------------------------------------------------------------------
def _uint_view(np: Any, column: Any) -> Any:
    """Zero-copy NumPy view of an ``array('I')``/``array('L')`` column."""
    return np.frombuffer(column, dtype=np.dtype(f"=u{column.itemsize}"))


def _conditional_columns(np: Any, packed: PackedTrace) -> Tuple[Any, Any, Any, Any]:
    """The conditional records' positions and their ``(pc, target, taken)``
    columns as intp/int64/int64/int8 arrays, straight from the packed byte
    columns (the lazily-derived tuple columns are never materialised)."""
    flags = np.frombuffer(packed.flags, dtype=np.uint8)
    index = np.flatnonzero((flags & _CLS_MASK) == 0)
    pc = _uint_view(np, packed.pc)[index].astype(np.int64)
    target = _uint_view(np, packed.target)[index].astype(np.int64)
    taken = (flags[index] & 1).astype(np.int8)
    return index, pc, target, taken


# ----------------------------------------------------------------------
# history columns and finite-HRT key remaps (AHRT / HHRT)
# ----------------------------------------------------------------------
def _history_global(np: Any, taken: Any, history_length: int, init_bit: int) -> Any:
    """Single global history register — the per-branch window of
    :func:`repro.sim.sweep._branch_history` degenerated to one bucket, so
    no sort is needed at all."""
    n = len(taken)
    taken64 = taken.astype(np.int64)
    history = np.zeros(n, dtype=np.int64)
    for j in range(1, history_length + 1):
        boundary = min(j, n)
        if init_bit:
            history[:boundary] |= 1 << (j - 1)
        if j < n:
            history[j:] |= taken64[:-j] << (j - 1)
    return history


def _hash_buckets(np: Any, pc: Any, buckets: int) -> Any:
    """Columnar twin of :func:`repro.predictors.hrt._index_hash`.

    Safe in int64 arithmetic: the shifted pc is below ``2**30``, so the
    pre-mask product stays below ``2**62``.
    """
    return (((pc >> 2) * _HASH_MULTIPLIER) & 0xFFFFFFFF) % buckets


def _compact_sort_keys(np: Any, keys: Any) -> Any:
    """The narrowest integer view of a non-negative key column.

    NumPy's stable sort is a radix sort for one- and two-byte integers and
    a comparison sort above that; history patterns, hashed slots and set
    ranks almost always fit in sixteen bits, which makes a segment sort a
    small fraction of its int64 cost.
    """
    if len(keys) == 0:
        return keys
    top = int(keys.max())
    if top < (1 << 16):
        return keys.astype(np.uint16)
    if top < (1 << 31):
        return keys.astype(np.int32)
    return keys


class AhrtReplay:
    """AHRT register assignment: the one LRU walk and its per-set state.

    Maps each access to the *physical register* that services it.  LRU
    eviction, whose victim's payload is inherited (section 4.2), never
    reads payloads or outcomes, so the register sequence is a pure
    function of the pc sequence; after the remap, payloads replay as
    independent buckets keyed by register.  Fed chunk by chunk, every
    access lands on the same physical register as in one whole-trace call
    (the same partition, so the same predictions); only the id numbers,
    allocated in walk order, may differ.
    """

    def __init__(self, entries: int, associativity: int):
        if entries < 1 or associativity < 1:
            raise ConfigError("AHRT entries and associativity must be >= 1")
        if entries % associativity:
            raise ConfigError(
                f"AHRT entries ({entries}) must be a multiple of"
                f" associativity ({associativity})"
            )
        self.associativity = associativity
        self.num_sets = entries // associativity
        #: per touched set: {tag: register}, least recently used first
        self._sets: Dict[int, Dict[int, int]] = {}
        self._next_register = 0

    def assign(self, np: Any, pc: Any) -> Any:
        """Register id serving each access in ``pc``, advancing the LRU state."""
        return self.walk(np, _hash_buckets(np, pc, self.num_sets), pc)

    def walk(self, np: Any, sets: Any, tags: Any) -> Any:
        """Register id of each ``(set, tag)`` access, in trace order.

        Sorts by set and loops over the *heads* only: accesses whose tag
        differs from their set's previous one (``sets`` is a function of
        ``tags``).  A repeat is an LRU stack-distance-0 hit (Mattson et
        al., 1970) that changes nothing, so it takes its head's register.
        """
        order = np.argsort(_compact_sort_keys(np, sets), kind="stable")
        tags = tags[order]
        head = np.ones(len(tags), dtype=bool)
        np.not_equal(tags[1:], tags[:-1], out=head[1:])
        assoc, tables, next_register = self.associativity, self._sets, self._next_register
        out: List[int] = []
        current: Any = None
        for set_index, tag in zip(sets[order][head].tolist(), tags[head].tolist()):
            if set_index != current:
                current = set_index
                lru = tables.setdefault(set_index, {})
            register = lru.pop(tag, None)
            if register is None:
                if len(lru) < assoc:  # untagged physical registers remain
                    register = next_register
                    next_register += 1
                else:  # evict LRU; its register (and payload) is inherited
                    register = lru.pop(next(iter(lru)))
            lru[tag] = register  # (re)inserted as the most recently used
            out.append(register)
        self._next_register = next_register
        registers = np.empty(len(tags), dtype=np.int64)
        registers[order] = np.asarray(out, dtype=np.int64)[np.cumsum(head) - 1]
        return registers


def _ahrt_registers(np: Any, pc: Any, entries: int, associativity: int) -> Any:
    """One-shot AHRT register assignment for a whole pc column.

    LRU decomposes per way-set, and a set whose whole touch alphabet fits
    in its ways never evicts: each branch keeps one register, its dense pc
    id (``np.unique``, sorted at radix width: a program's branch addresses
    span far fewer than 2**16 bytes).  With the paper's geometries (128
    sets for AHRT(512)) that covers nearly every set.  The touches of the
    *conflicted* sets (more distinct tags than ways) go through one
    :meth:`AhrtReplay.walk`, keyed by set rank, with ids after the pc ids.
    """
    replay = AhrtReplay(entries, associativity)  # validates the geometry
    registers = np.zeros(len(pc), dtype=np.int64)
    if len(pc) == 0:
        return registers
    order = np.argsort(_compact_sort_keys(np, pc - pc.min()), kind="stable")
    values = pc[order]
    first = np.ones(len(pc), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    registers[order] = np.cumsum(first) - 1
    unique_pc = values[first]
    _sets, set_rank, tags_per_set = np.unique(
        _hash_buckets(np, unique_pc, replay.num_sets), return_inverse=True, return_counts=True
    )
    touched = np.flatnonzero((tags_per_set[set_rank] > associativity)[registers])
    if len(touched):
        registers[touched] = len(unique_pc) + replay.walk(
            np, set_rank[registers[touched]], pc[touched]
        )
    return registers


def _hrt_keys(np: Any, spec: PredictorSpec, pc: Any) -> Any:
    """The bucket-key column for the spec's HRT front-end.

    The branch address under IHRT; the hashed slot under HHRT (colliding
    branches merge into one bucket, reproducing the paper's history
    interference exactly); the servicing physical register under AHRT
    (payload inheritance rides along for free — an evicted register's
    bucket replay simply continues from wherever the previous branch left
    its bits).
    """
    if spec.hrt_kind == "AHRT":
        assert spec.hrt_entries is not None
        return _ahrt_registers(np, pc, spec.hrt_entries, spec.hrt_associativity)
    if spec.hrt_kind == "HHRT":
        assert spec.hrt_entries is not None
        if spec.hrt_entries < 1:
            raise ConfigError("HHRT entries must be >= 1")
        return _hash_buckets(np, pc, spec.hrt_entries)
    return pc


# ----------------------------------------------------------------------
# TAGE kernel
# ----------------------------------------------------------------------
def _tage_fold_columns(np: Any, histories: Any, length: int, bits: int) -> Any:
    """Columnar twin of :func:`repro.predictors.modern.fold_history`."""
    folded = np.zeros(len(histories), dtype=np.int64)
    value = histories & ((1 << length) - 1)
    mask = (1 << bits) - 1
    for _ in range((length + bits - 1) // bits):
        folded ^= value & mask
        value = value >> bits
    return folded


def _tage_predictions(
    np: Any, pc: Any, histories: Any, taken: Any, state: TageState
) -> Any:
    """TAGE predictions with columnar hashing and a sequential state walk.

    All per-table folded indices and tags — which the scalar predictor
    reads from its lane-packed byte tables one record at a time — are
    precomputed as whole columns; the remaining walk drives
    :meth:`TageState.step` (the *same* update rule the scalar predictor
    runs), mutating ``state`` in place so streaming sessions can carry it
    across batches.
    """
    entry_bits = state.entry_bits
    index_mask = (1 << entry_bits) - 1
    tag_mask = (1 << TAG_BITS) - 1
    pc_word = pc >> 2
    base_index = (pc_word & ((1 << (entry_bits + BASE_EXTRA_BITS)) - 1)).tolist()
    index_columns = []
    tag_columns = []
    for length in state.lengths:
        index_columns.append(
            (
                (pc_word ^ _tage_fold_columns(np, histories, length, entry_bits))
                & index_mask
            ).tolist()
        )
        tag_columns.append(
            (
                (
                    pc_word
                    ^ _tage_fold_columns(np, histories, length, TAG_BITS)
                    ^ (_tage_fold_columns(np, histories, length, TAG_BITS - 1) << 1)
                )
                & tag_mask
            ).tolist()
        )
    index_rows = list(zip(*index_columns))
    tag_rows = list(zip(*tag_columns))
    n = len(taken)
    out = np.empty(n, dtype=bool)
    step = state.step
    taken_list = taken.tolist()
    for record in range(n):
        out[record] = step(
            base_index[record],
            index_rows[record],
            tag_rows[record],
            taken_list[record] == 1,
        )
    return out


def _one_spec_trainings(
    spec: PredictorSpec, training: Optional[PackedTrace]
) -> Dict[str, PackedTrace]:
    """The fused sweep's ``trainings`` map for one spec's training trace."""
    from repro.sim.sweep import training_role

    role = training_role(spec)
    return {role: training} if role is not None and training is not None else {}


def simulate_spec(
    spec: PredictorSpec,
    packed: PackedTrace,
    training: Optional[PackedTrace] = None,
) -> PredictionStats:
    """Score ``spec`` over ``packed`` with the vector kernels: a one-spec
    :func:`repro.sim.sweep.fused_stats` call.

    Returns exactly the :class:`PredictionStats` that
    ``simulate(spec.build(...), packed)`` produces.  Raises
    :class:`~repro.errors.KernelError` for a scheme without a kernel or a
    missing training trace; use :func:`score_spec` for the backend-choosing
    entry point.
    """
    from repro.sim import sweep

    return sweep.fused_stats([spec], packed, _one_spec_trainings(spec, training))[0]


# ----------------------------------------------------------------------
# backend dispatch
# ----------------------------------------------------------------------
def score_spec(
    spec: PredictorSpec,
    packed: PackedTrace,
    backend: Optional[str] = None,
    training: Optional[PackedTrace] = None,
    training_records: Optional[Iterable[Any]] = None,
) -> PredictionStats:
    """Score one predictor spec over a packed trace on the chosen backend.

    This is the engine entry point the sweep layers use: ``backend`` may be
    ``auto`` / ``scalar`` / ``vector`` (or ``None`` for the process
    default), and the result is identical whichever backend runs.  Profiled
    schemes take their training trace as ``training`` (packed, used by the
    kernels) and/or ``training_records`` (any record iterable, used by the
    scalar path; defaults to iterating ``training``).
    """
    if resolve_backend(backend) == "vector":
        return simulate_spec(spec, packed, training)
    from repro.sim.engine import simulate

    if training_records is None:
        training_records = training
    predictor = spec.build(training_records=training_records)
    return simulate(predictor, packed)
