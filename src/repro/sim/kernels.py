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
    fits in the ways — the common case — assign fully columnarly, and only
    *conflicted* sets walk their recency stack (see :class:`AhrtReplay`).

Every kernel is **bit-exact** against the scalar engine, which remains the
reference: the per-record predictions are identical, so
:class:`~repro.sim.results.PredictionStats` and per-site accuracies match
exactly.  Every spec family the registry can parse has a vector recipe.

NumPy is an optional dependency (see :mod:`repro.sim.backend`); everything
here raises :class:`~repro.errors.KernelError` when it is missing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

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


class AhrtReplay:
    """Incremental AHRT register assignment (the streaming scorers' carry).

    Maps each access to the *physical register* that services it.  The
    AHRT's one coupling between branches — LRU eviction, whose victim's
    payload is inherited rather than re-initialised (section 4.2) — never
    reads payloads or outcomes, so the register sequence is a pure function
    of the pc touch sequence and can be computed up front; after the remap,
    payload evolution is ordinary independent-bucket replay keyed by
    register.  This class walks every touched set's recency stack one touch
    at a time (consecutive repeats short-circuited), allocating register
    ids globally on first use so they are stable across ``assign`` calls:
    feeding a trace through one instance chunk by chunk yields exactly the
    ids a single whole-trace call would (chunking invariance).
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
        #: per touched set: ({tag: register}, [tags in LRU..MRU order])
        self._sets: Dict[int, Tuple[Dict[int, int], list]] = {}
        self._next_register = 0
        self.evictions = 0

    def assign(self, np: Any, pc: Any) -> Any:
        """Register id serving each access in ``pc``, advancing the LRU state."""
        sets = _hash_buckets(np, pc, self.num_sets)
        out = [0] * len(pc)
        assoc = self.associativity
        tables = self._sets
        last_set = last_tag = last_register = -1
        for i, (set_index, tag) in enumerate(zip(sets.tolist(), pc.tolist())):
            if set_index == last_set and tag == last_tag:
                out[i] = last_register
                continue
            ways = tables.get(set_index)
            if ways is None:
                ways = ({}, [])
                tables[set_index] = ways
            tagmap, recency = ways
            register = tagmap.get(tag)
            if register is None:
                if len(tagmap) < assoc:  # untagged physical registers remain
                    register = self._next_register
                    self._next_register += 1
                else:  # evict LRU; its register (and payload) is inherited
                    victim = recency.pop(0)
                    register = tagmap.pop(victim)
                    self.evictions += 1
                tagmap[tag] = register
                recency.append(tag)
            elif recency[-1] != tag:
                recency.remove(tag)
                recency.append(tag)
            out[i] = register
            last_set, last_tag, last_register = set_index, tag, register
        return np.asarray(out, dtype=np.int64)


def _ahrt_registers(np: Any, pc: Any, entries: int, associativity: int) -> Any:
    """One-shot AHRT register assignment for a whole pc column.

    LRU decomposes per way-set, and a set whose whole touch alphabet fits
    in its ways can never evict — every (set, tag) pair keeps the register
    it first allocated, so its assignment is just the dense pair id from
    ``np.unique``.  With the paper's geometries (e.g. 128 sets for
    AHRT(512)) that covers nearly every set; only *conflicted* sets (more
    distinct tags than ways) walk their touch sequence through
    :class:`AhrtReplay`, renumbered into per-set id ranges disjoint from
    the pair ids.
    """
    replay = AhrtReplay(entries, associativity)  # validates the geometry
    num_sets = replay.num_sets
    if num_sets > 0x7FFFFFFF:  # pair packing needs the set id in 31 bits
        return replay.assign(np, pc)
    sets = _hash_buckets(np, pc, num_sets)
    pairs = (sets << np.int64(32)) | pc
    unique_pairs, pair_ids = np.unique(pairs, return_inverse=True)
    distinct_per_set = np.bincount(unique_pairs >> 32, minlength=num_sets)
    conflicted = distinct_per_set > associativity
    registers = pair_ids.astype(np.int64)
    if not conflicted.any():
        return registers
    touched = np.nonzero(conflicted[sets])[0]
    order = touched[np.argsort(sets[touched], kind="stable")]
    boundaries = np.nonzero(np.diff(sets[order]))[0] + 1
    base = len(unique_pairs)
    for chunk in np.split(order, boundaries):
        # a conflicted set allocates all `associativity` of its registers
        set_replay = AhrtReplay(entries, associativity)
        registers[chunk] = set_replay.assign(np, pc[chunk]) + base
        base += associativity
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
    reads from its byte tables one record at a time — are precomputed as
    whole columns;
    the remaining walk drives :meth:`TageState.step` (the *same* update
    rule the scalar predictor runs), mutating ``state`` in place so
    streaming sessions can carry it across batches.
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
