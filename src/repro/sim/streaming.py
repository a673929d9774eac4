"""Incremental (streaming) predictor scoring sessions.

The offline engines score a *complete* trace in one call.  The prediction
service (:mod:`repro.serve`) instead receives records in arbitrary chunks
over a connection and must answer each chunk before the next arrives, while
the predictor's state persists across chunks.  A session here is fed record
batches in trace order and returns the per-record predictions, accumulating
the same :class:`~repro.sim.results.PredictionStats` the offline engine
would have produced for the concatenated stream.

Two engines exist, mirroring :mod:`repro.sim.backend`:

* the **scalar** session (:class:`ScalarStreamingScorer`) wraps the
  predictor object built by :meth:`~repro.predictors.spec.PredictorSpec.build`
  and dispatches its fused ``observe`` per record — always available, the
  reference;
* the **vector** multi-session scorer (:class:`VectorMultiSessionScorer`)
  is a driver over the fused sweep's recipes (:mod:`repro.sim.sweep`): each
  ``feed_many`` scores one :class:`SessionContext` whose keys are
  namespaced by session slot and whose history registers, automaton
  states, AHRT replays and perceptron / TAGE tables carry across feeds.

Bit-exactness holds for *any* chunking: ``feed(a); feed(b)`` produces the
same predictions and statistics as ``feed(a + b)``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.kernels import (
    AhrtReplay,
    _conditional_columns,
    _hrt_keys,
    _np,
    choose_backend,
)
from repro.sim.results import PredictionStats
from repro.sim.sweep import (
    _NS_SHIFT,
    TraceContext,
    _branch_history,
    _FusedScores,
    _hrt_token,
    _lookup,
    training_role,
)
from repro.trace.columnar import PackedTrace, pack_records
from repro.trace.record import BranchClass, BranchRecord

__all__ = [
    "ScalarStreamingScorer",
    "FusedPredictions",
    "MultiSessionScorer",
    "ScalarMultiSessionScorer",
    "VectorMultiSessionScorer",
    "make_multi_scorer",
    "needs_training",
]

SpecLike = Union[str, PredictorSpec]


def needs_training(spec: PredictorSpec) -> bool:
    """Whether a session for ``spec`` must be given training records."""
    return training_role(spec) is not None


def _as_spec(spec: SpecLike) -> PredictorSpec:
    return spec if isinstance(spec, PredictorSpec) else parse_spec(spec)


def _require_training_records(spec: PredictorSpec, training_records: Any) -> None:
    if needs_training(spec) and training_records is None:
        raise ConfigError(
            f"{spec.canonical()}: session needs training records before scoring"
        )


class ScalarStreamingScorer:
    """An incremental scoring session over the scalar engine's fused
    ``observe`` hook — the reference every vector session matches.

    ``feed`` takes records in trace order and returns one entry per input
    record: the predicted direction (``bool``) for conditional records,
    ``None`` for records the direction predictor does not score (calls,
    returns, unconditional jumps).  ``stats`` accumulates across calls.
    """

    backend = "scalar"

    def __init__(
        self,
        spec: PredictorSpec,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ):
        _require_training_records(spec, training_records)
        self.spec = spec
        self.stats = PredictionStats()
        self._predictor = spec.build(training_records=training_records)

    def feed(self, records: Sequence[BranchRecord]) -> List[Optional[bool]]:
        observe = self._predictor.observe
        stats = self.stats
        out: List[Optional[bool]] = []
        append = out.append
        CONDITIONAL = BranchClass.CONDITIONAL
        for record in records:
            if record.cls is CONDITIONAL:
                prediction = observe(record.pc, record.target, record.taken)
                stats.conditional_total += 1
                if prediction == record.taken:
                    stats.conditional_correct += 1
                append(prediction)
            else:
                append(None)
        return out


class FusedPredictions(NamedTuple):
    """Columnar prediction result for one :class:`PackedTrace` batch.

    ``length`` records were submitted; the conditionals among them sit at
    positions ``index`` (ascending) and carry a predicted-direction column
    and the echoed actual-outcome column.  Equivalent to the list form —
    position ``index[j]`` holds ``bool(predicted[j])``, every other
    position ``None`` — without boxing a Python object per record.
    """

    length: int
    index: Any  # intp array: positions of the conditional records
    predicted: Any  # bool array, one entry per conditional
    taken: Any  # int8 array: actual outcomes, aligned with ``predicted``

    def to_list(self) -> "List[Optional[bool]]":
        out: "List[Optional[bool]]" = [None] * self.length
        for position, prediction in zip(self.index.tolist(), self.predicted.tolist()):
            out[position] = prediction
        return out


class MultiSessionScorer:
    """Many concurrent scoring sessions of *one* spec, fed as fused batches.

    The serve tier's cross-session fusion primitive: every open session
    shares this object with all other sessions of the same spec+backend,
    and a single :meth:`feed_many` call scores queued record batches from
    *all* of them at once.  Per-session state is namespaced so sessions
    never read each other's predictor state — the predictions (and the
    per-session :class:`~repro.sim.results.PredictionStats`) are bit-exact
    with running each session through its own
    :class:`ScalarStreamingScorer`, under any chunking and any interleaving
    of sessions within and across ``feed_many`` calls.
    """

    backend = "scalar"

    def __init__(self, spec: SpecLike):
        self.spec = _as_spec(spec)

    # -- session lifecycle ---------------------------------------------
    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        """Start a new logical session under the caller-chosen ``key``."""
        raise NotImplementedError

    def close_session(self, key: int) -> PredictionStats:
        """End session ``key``, free its state, return its final stats."""
        raise NotImplementedError

    def session_stats(self, key: int) -> PredictionStats:
        raise NotImplementedError

    @property
    def active(self) -> int:
        raise NotImplementedError

    def feed_many(self, batches: "Sequence[tuple]") -> "List[Any]":
        """Score ``[(session key, records), ...]`` as one fused batch.

        Batches appear in arrival order; several batches may name the same
        session (pipelined frames) and are scored in list order.  Returns
        one result per input batch, aligned with its records: a prediction
        list for record-list batches, and (on the vector engine) a
        :class:`FusedPredictions` for :class:`PackedTrace` batches — the
        columnar path never boxes per-record Python objects end to end.
        """
        raise NotImplementedError


class ScalarMultiSessionScorer(MultiSessionScorer):
    """Fusion-shaped facade over independent scalar sessions.

    The scalar engine has no batch dispatch to amortise, so "fusion" here
    is simply feeding each batch to its session's
    :class:`ScalarStreamingScorer` — same interface, same per-session
    results, used when NumPy is absent or the backend resolves scalar.
    """

    backend = "scalar"

    def __init__(self, spec: SpecLike):
        super().__init__(spec)
        self._sessions: Dict[int, ScalarStreamingScorer] = {}

    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        if key in self._sessions:
            raise ConfigError(f"session {key} is already open")
        self._sessions[key] = ScalarStreamingScorer(self.spec, training_records)

    def close_session(self, key: int) -> PredictionStats:
        return self._sessions.pop(key).stats

    def session_stats(self, key: int) -> PredictionStats:
        return self._sessions[key].stats

    @property
    def active(self) -> int:
        return len(self._sessions)

    def feed_many(
        self, batches: "Sequence[tuple]"
    ) -> "List[List[Optional[bool]]]":
        out = []
        for key, records in batches:
            scorer = self._sessions.get(key)
            if scorer is None:
                raise ConfigError(f"session {key} is not open")
            out.append(scorer.feed(records))
        return out


# ----------------------------------------------------------------------
# carried state and the session context
# ----------------------------------------------------------------------
class KeyedState:
    """Carried per-key integers — history registers, automaton states —
    as a sorted key column with vectorised gather (:meth:`get`) and
    scatter (:meth:`put`).  Keys hold their session slot in the bits
    above :data:`_NS_SHIFT`, so :meth:`drop` forgets one session."""

    def __init__(self, np: Any):
        self.np = np
        self.keys = np.zeros(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=np.int64)

    def get(self, keys: Any, default: int) -> Any:
        return _lookup(self.np, self.keys, self.values, keys, default)

    def put(self, keys: Any, values: Any) -> None:
        """Store ``values`` under the sorted, distinct ``keys``."""
        np = self.np
        at = np.searchsorted(self.keys, keys)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == keys[known]
        self.values[at[known]] = values[known]
        if not known.all():
            fresh = ~known
            self.keys = np.insert(self.keys, at[fresh], keys[fresh])
            self.values = np.insert(self.values, at[fresh], values[fresh])

    def drop(self, slot: int) -> None:
        keep = (self.keys >> _NS_SHIFT) != slot
        self.keys, self.values = self.keys[keep], self.values[keep]


class _PerSlot(dict):
    """Carried per-session objects (AHRT replays, perceptron weight
    tables, TAGE states) keyed by slot."""

    def drop(self, slot: int) -> None:
        self.pop(slot, None)


class SessionContext(TraceContext):
    """The fused sweep's context for one ``feed_many`` call.

    The columns concatenate every queued batch; ``slots`` names each
    record's session.  Per-branch keys and bucket columns become
    ``(slot << 32) | key``, so the segment sorts that make per-bucket
    replay exact also isolate sessions while keeping each session's own
    stream order; a session's global history is the per-branch window
    keyed by its slot.  Registers, automaton states and per-session
    objects come from — and go back to — ``carried``, the scorer's
    state stores.
    """

    def __init__(
        self, np: Any, pc: Any, target: Any, taken: Any, slots: Any, carried: Dict[Any, Any]
    ):
        self._setup(np, pc, target, taken)
        self.slots = slots
        self.carried = carried

    def _store(self, token: Any, factory: Any) -> Any:
        store = self.carried.get(token)
        if store is None:
            store = self.carried[token] = factory()
        return store

    def namespace(self, column: Any, shift: int = _NS_SHIFT) -> Any:
        return (self.slots << shift) | column

    def sessions(self, token: Any, factory: Any) -> List[Any]:
        objects = self._store(token, _PerSlot)
        out = []
        for slot in self.np.unique(self.slots).tolist():
            state = objects.get(slot)
            if state is None:
                state = objects[slot] = factory()
            out.append((self.np.flatnonzero(self.slots == slot), state))
        return out

    def scan_state(self, handle: Any) -> Any:
        return self._store(("scan",) + handle, lambda: KeyedState(self.np))

    def _keys_for(self, spec: PredictorSpec) -> Any:
        np = self.np
        if spec.hrt_kind != "AHRT":
            return self.namespace(_hrt_keys(np, spec, self.pc))
        keys = np.empty(len(self), dtype=np.int64)
        for rows, replay in self.sessions(
            ("ahrt",) + _hrt_token(spec),
            lambda: AhrtReplay(spec.hrt_entries, spec.hrt_associativity),
        ):
            keys[rows] = replay.assign(np, self.pc[rows])
        return self.namespace(keys)

    def _window(self, token: Any, keys: Any, k: int, init_bit: int) -> Any:
        state = self._store(("history",) + token, lambda: KeyedState(self.np))
        if keys is None:  # a session's global register is keyed by its slot
            keys = self.slots << _NS_SHIFT
        return _branch_history(self.np, keys, self.taken, k, init_bit, state)


class _SessionTraining:
    """The profiled schemes' training summaries for every open session,
    namespaced like the session keys: Profile's bias table keyed by
    ``(slot << 32) | pc``, Static Training's preset bits laid out
    slot-major at ``(slot << k) | pattern``."""

    def __init__(self, np: Any, contexts: Dict[int, TraceContext]):
        self.np = np
        self.contexts = dict(sorted(contexts.items()))
        self._bias: Any = None
        self._preset: Dict[int, Any] = {}

    def reserve(self, specs: Sequence[PredictorSpec]) -> None:
        for ctx in self.contexts.values():
            ctx.reserve(specs)

    def profile_bias(self) -> Any:
        if self._bias is None:
            np = self.np
            keys, bias = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=bool)]
            for slot, ctx in self.contexts.items():
                unique_pc, slot_bias = ctx.profile_bias()
                keys.append((slot << _NS_SHIFT) | unique_pc)
                bias.append(slot_bias)
            self._bias = (np.concatenate(keys), np.concatenate(bias))
        return self._bias

    def preset_bits(self, history_length: int) -> Any:
        table = self._preset.get(history_length)
        if table is None:
            rows = (max(self.contexts, default=-1) + 1) << history_length
            table = self._preset[history_length] = self.np.zeros(rows, dtype=bool)
            for slot, ctx in self.contexts.items():
                start = slot << history_length
                table[start:start + (1 << history_length)] = ctx.preset_bits(history_length)
        return table


class VectorMultiSessionScorer(MultiSessionScorer):
    """Cross-session fusion on the fused sweep's recipes.

    Each open session owns a *slot* — a compact namespace index — and each
    ``feed_many`` call scores all queued batches as one
    :class:`SessionContext` over the spec's recipe, with the state that
    must outlive the call (history registers, automaton states, AHRT LRU
    replays, perceptron weights, TAGE tables) kept in per-key or per-slot
    stores.  Slots are recycled: closing a session drops its entries from
    every store, so long-running servers hold state proportional to *open*
    sessions only.
    """

    backend = "vector"

    def __init__(self, spec: SpecLike):
        super().__init__(spec)
        np = _np()
        # reject an impossible HRT geometry now, not at the first feed
        _hrt_keys(np, self.spec, np.zeros(0, dtype=np.int64))
        self._slots: Dict[int, int] = {}
        self._free: List[int] = []
        self._stats: Dict[int, PredictionStats] = {}
        self._carried: Dict[Any, Any] = {}
        self._training: Dict[int, TraceContext] = {}
        self._trainings: Optional[Dict[str, _SessionTraining]] = None

    # -- session lifecycle ---------------------------------------------
    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        if key in self._slots:
            raise ConfigError(f"session {key} is already open")
        _require_training_records(self.spec, training_records)
        slot = self._free.pop() if self._free else len(self._slots)
        if needs_training(self.spec):
            assert training_records is not None
            self._training[slot] = TraceContext(pack_records(training_records))
            self._trainings = None
        self._slots[key] = slot
        self._stats[key] = PredictionStats()

    def close_session(self, key: int) -> PredictionStats:
        if key not in self._slots:
            raise ConfigError(f"session {key} is not open")
        slot = self._slots.pop(key)
        for store in self._carried.values():
            store.drop(slot)
        if self._training.pop(slot, None) is not None:
            self._trainings = None
        self._free.append(slot)
        return self._stats.pop(key)

    def session_stats(self, key: int) -> PredictionStats:
        return self._stats[key]

    @property
    def active(self) -> int:
        return len(self._slots)

    # -- fused scoring --------------------------------------------------
    def feed_many(self, batches: "Sequence[tuple]") -> "List[Any]":
        np = _np()
        if not batches:
            return []
        # every batch becomes conditional-only columns; record lists are
        # packed first, PackedTrace batches stay columnar end to end
        slot_of, lengths, parts = [], [], []
        for key, records in batches:
            slot = self._slots.get(key)
            if slot is None:
                raise ConfigError(f"session {key} is not open")
            packed = records if isinstance(records, PackedTrace) else pack_records(records)
            slot_of.append(slot)
            lengths.append(len(packed))
            parts.append(_conditional_columns(np, packed))
        indexes, pcs, targets, takens = zip(*parts)
        slots = np.repeat(
            np.asarray(slot_of, dtype=np.int64), [len(index) for index in indexes]
        )
        ctx = SessionContext(
            np, np.concatenate(pcs), np.concatenate(targets), np.concatenate(takens),
            slots, self._carried,
        )
        if self._trainings is None:
            view = _SessionTraining(np, self._training)
            self._trainings = {"test": view, "train": view}
        correct = _FusedScores([self.spec], ctx, self._trainings).correct(0)
        predicted = correct == ctx.taken_bool
        outs: "List[Any]" = []
        start = 0
        for (key, records), length, index, taken in zip(batches, lengths, indexes, takens):
            stop = start + len(index)
            stats = self._stats[key]
            stats.conditional_total += len(index)
            stats.conditional_correct += int(correct[start:stop].sum())
            result = FusedPredictions(length, index, predicted[start:stop], taken)
            outs.append(result if isinstance(records, PackedTrace) else result.to_list())
            start = stop
        return outs


def make_multi_scorer(
    spec: SpecLike, backend: Optional[str] = None
) -> MultiSessionScorer:
    """Build the fused multi-session scorer for ``spec`` on ``backend``.

    ``backend`` accepts the usual ``auto`` / ``scalar`` / ``vector`` (or
    ``None`` for the process default); the resolution rules are those of
    the offline dispatch (:func:`repro.sim.kernels.choose_backend`), and
    the predictions are identical whichever backend runs.
    """
    parsed = _as_spec(spec)
    if choose_backend(parsed, backend) == "vector":
        return VectorMultiSessionScorer(parsed)
    return ScalarMultiSessionScorer(parsed)
