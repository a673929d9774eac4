"""The vector scoring core: family recipes over shared trace intermediates.

Every vector path — a figure sweep, one spec scored offline, the serve
tier's fused sessions — scores through this module.  A figure is a *sweep*
(dozens of :class:`PredictorSpec`s against the same trace), and most of its
trace-wide intermediates are identical across specs: the conditional
columns, the HRT key remap, the k-bit history windows and the per-bucket
segment sorts.  The fused scorer pays for each of them exactly once:

* A :class:`TraceContext` memoises, per trace, the conditional columns,
  each HRT front-end's key column (one AHRT replay serves every spec with
  that geometry), and each key space's sliding history window.  Histories
  nest — a k-bit window is the K-bit window masked to its low k bits for
  any ``k <= K`` — so the context keeps only the *widest* window per key
  space and serves shorter ones as a mask (``fig7``'s whole ladder runs on
  one window).
* Each scheme's semantics is one *recipe* written against a context:
  :func:`_direct_mask` for the scan-free families, :func:`_scan_request`
  for the automaton families.  The multi-session streaming scorer
  (:mod:`repro.sim.streaming`) runs the same recipes against a context
  whose keys are namespaced by session slot and whose registers and
  automaton states carry across feeds; the primitives below take that
  carried state as an optional argument, so fresh-state calls never pay
  for it.
* Per distinct *bucket column* (pattern values, LS keys, global-history
  indices) the fused scorer builds the segment sort once and replays every
  automaton that scores against it; ``fig5``'s four automata share one
  sort, one position column and one outcome gather.
* The automaton replay is a two-level scan: an 8-outcome window LUT
  (automaton steps compose into one byte, so an eight-step composition is
  one 2048-entry table lookup over a sliding outcome window) yields every
  within-chunk prefix directly, and only the per-chunk totals — one eighth
  of the records — enter a segmented doubling scan.  The totals of *every*
  request in the batch are concatenated into a single scan (disjoint row
  ranges keep segments from different requests apart).
* Stats and per-site tallies are computed in bucket-sorted order
  (``bincount`` over the sorted site index), so no scatter back to trace
  order is needed on the fused path.

Everything here is **bit-exact** against the scalar engine, which is the
reference: the property tests replay random spec subsets over all workload
variants and require equality with ``score_spec(..., backend="scalar")``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import KernelError
from repro.predictors.automata import A2, Automaton
from repro.predictors.spec import PredictorSpec
from repro.predictors.modern import DEFAULT_ENTRY_BITS, TageState
from repro.sim.kernels import (
    _conditional_columns,
    _history_global,
    _hrt_keys,
    _np,
    _perceptron_predictions,
    _perceptron_table,
    _tage_predictions,
    vectorizable,
)
from repro.sim.results import PredictionStats
from repro.trace.columnar import PackedTrace

__all__ = [
    "TraceContext",
    "SweepPlan",
    "training_role",
    "fused_stats",
    "fused_per_site",
]

#: within-chunk window width of the two-level scan; eight outcomes pack
#: into the 2048-entry window LUT (8 widths x 256 bit patterns).
_CHUNK = 8

#: byte code of the identity state mapping (state s -> s, two bits each).
_IDENTITY_CODE = 0b11100100

#: per-session namespace shift of the streaming context: packed records
#: carry 32-bit pcs, so ``(slot << 32) | key`` is collision-free for every
#: key space (addresses, HHRT slots, AHRT register ids, history patterns).
_NS_SHIFT = 32


def training_role(spec: PredictorSpec) -> Optional[str]:
    """Which trace a spec profiles: ``None`` (adaptive — no profiling pass),
    ``"test"`` (Profile and ST-Same profile the execution data set) or
    ``"train"`` (ST-Diff profiles the Table 3 training data set)."""
    if spec.scheme == "Profile":
        return "test"
    if spec.scheme == "ST":
        return "train" if (spec.data_mode or "Same") == "Diff" else "test"
    return None


# ----------------------------------------------------------------------
# primitives: segment sort, history window
# ----------------------------------------------------------------------
def _hrt_token(spec: PredictorSpec) -> Tuple[Any, ...]:
    """Hashable identity of a spec's HRT front-end key space."""
    if spec.hrt_kind == "AHRT":
        return ("AHRT", spec.hrt_entries, spec.hrt_associativity)
    if spec.hrt_kind == "HHRT":
        return ("HHRT", spec.hrt_entries)
    return ("IHRT",)


def _compact_sort_keys(np: Any, keys: Any) -> Any:
    """The narrowest integer view of a non-negative key column.

    NumPy's stable sort is a radix sort for one- and two-byte integers and
    a comparison sort above that; history patterns and hashed slots almost
    always fit in sixteen bits, which makes the per-bucket segment sort a
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


def _segments(np: Any, keys: Any) -> Tuple[Any, Any, Any, Any]:
    """Stable sort by bucket key: ``(order, sorted keys, segment-start
    mask, position within segment)``.

    The stable sort preserves trace order inside every bucket, which is what
    makes per-bucket replay equivalent to the scalar engine's interleaved
    updates: entries of different buckets never read each other's state.
    """
    n = len(keys)
    order = np.argsort(_compact_sort_keys(np, keys), kind="stable")
    values = keys[order]
    start = np.empty(n, dtype=bool)
    if n:
        start[0] = True
        np.not_equal(values[1:], values[:-1], out=start[1:])
    indices = np.arange(n, dtype=np.int64)
    first = np.where(start, indices, 0)
    np.maximum.accumulate(first, out=first)
    return order, values, start, indices - first


def _segment_bounds(np: Any, start: Any) -> Tuple[Any, Any, Any]:
    """``(first index, last index, segment id per record)`` of a sorted
    column's segments."""
    starts = np.flatnonzero(start)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1:] = len(start) - 1
    return starts, ends, np.cumsum(start) - 1


def _branch_history(
    np: Any,
    keys: Any,
    taken: Any,
    history_length: int,
    init_bit: int,
    state: Any = None,
) -> Any:
    """Per-record k-bit history register *before* each record, one
    register per key (branch address, AHRT register, HHRT slot, or session).

    Equivalent to replaying ``new = ((old << 1) | taken) & mask`` per key:
    ``k`` shift-or passes over the key-sorted outcome column build the raw
    window (with garbage bits across segment boundaries), then one
    per-record validity mask swaps the out-of-segment bits for the bits of
    the register the segment started from.  Fresh registers hold all
    ``init_bit`` bits; with ``state`` (a carried key store) each segment
    starts from its stored register instead and stores its final one back.
    """
    n = len(keys)
    mask = (1 << history_length) - 1
    order, values, start, pos = _segments(np, keys)
    taken_sorted = taken[order].astype(np.int64)
    raw = np.zeros(n, dtype=np.int64)
    for j in range(1, history_length + 1):
        raw[j:] |= taken_sorted[:-j] << (j - 1)
    shift = np.minimum(pos, history_length)
    history = raw & ((np.int64(1) << shift) - 1)
    if state is None:
        if init_bit:
            history |= (mask << shift) & mask
    else:
        starts, ends, segment = _segment_bounds(np, start)
        carried = state.get(values[starts], mask if init_bit else 0)
        history |= (carried[segment] << shift) & mask
        state.put(values[starts], ((history[ends] << 1) | taken_sorted[ends]) & mask)
    out = np.empty(n, dtype=np.int64)
    out[order] = history
    return out


# ----------------------------------------------------------------------
# shared per-trace intermediates
# ----------------------------------------------------------------------
class TraceContext:
    """Memoised shared intermediates for scoring many specs on one trace.

    One context per :class:`PackedTrace`; the recipes ask it for the
    conditional columns, HRT key columns (by front-end geometry), history
    windows (by key space, widest-k wins) and profiling summaries, each
    computed at most once.  A context over a *training* trace additionally
    serves the profiled schemes' bias table and preset pattern bits; when
    a spec trains on the test trace itself (Profile, ST-Same) the very
    same context instance is used for both roles, so even the profiling
    pass shares the key sort with the test pass.

    The fresh-state hooks (:meth:`namespace`, :meth:`sessions`,
    :meth:`scan_state`, :meth:`_window`, :meth:`_keys_for`) are where the
    streaming session context substitutes slot namespacing and carried
    state.
    """

    def __init__(self, packed: PackedTrace):
        np = _np()
        _index, pc, target, taken = _conditional_columns(np, packed)
        self._setup(np, pc, target, taken)

    def _setup(self, np: Any, pc: Any, target: Any, taken: Any) -> None:
        self.np = np
        self.pc, self.target, self.taken = pc, target, taken
        self.taken_bool = taken.astype(bool)
        self._keys: Dict[Tuple[Any, ...], Any] = {}
        #: key-space token -> (window length, window column)
        self._windows: Dict[Tuple[Any, ...], Tuple[int, Any]] = {}
        self._reserve: Dict[Tuple[Any, ...], int] = {}
        self._bias: Optional[Tuple[Any, Any]] = None
        self._preset: Dict[int, Any] = {}
        self._site: Optional[Tuple[Any, Any]] = None

    def __len__(self) -> int:
        return len(self.pc)

    # -- planning ------------------------------------------------------
    def reserve(self, specs: Sequence[PredictorSpec]) -> None:
        """Record every history width the spec list will ask for, so each
        key space computes its window once at the widest length instead of
        growing through re-computation."""
        for spec in specs:
            k = spec.history_length
            if k is None:
                continue
            if spec.scheme in ("AT", "ST"):
                # the profiling pass is always IHRT-keyed, whatever the test
                # HRT — reserve that window on the training side too
                tokens = [_hrt_token(spec)]
                if spec.scheme == "ST":
                    tokens.append(("IHRT",))
            else:
                # GAg's window starts all-ones; gshare, perceptron and TAGE
                # share the init-0 one (TAGE's history_length is its
                # longest geometric table)
                tokens = [("global", 1 if spec.scheme == "GAg" else 0)]
            for token in tokens:
                self._reserve[token] = max(self._reserve.get(token, 0), k)

    # -- fresh-state hooks ---------------------------------------------
    def namespace(self, column: Any, shift: int = _NS_SHIFT) -> Any:
        """A bucket column made unique per session (identity here)."""
        return column

    def sessions(self, token: Tuple[Any, ...], factory: Any) -> List[Tuple[Any, Any]]:
        """``(records, state)`` per session for the sequential families:
        here one session over every record, from fresh state."""
        return [(slice(None), factory())]

    def scan_state(self, handle: Tuple[Any, ...]) -> Any:
        """The carried automaton states of one scan request (none here)."""
        return None

    def _keys_for(self, spec: PredictorSpec) -> Any:
        return _hrt_keys(self.np, spec, self.pc)

    def _window(self, token: Tuple[Any, ...], keys: Any, k: int, init_bit: int) -> Any:
        if keys is None:
            return _history_global(self.np, self.taken, k, init_bit)
        return _branch_history(self.np, keys, self.taken, k, init_bit)

    # -- shared columns ------------------------------------------------
    def hrt_keys(self, spec: PredictorSpec) -> Any:
        """The spec's HRT bucket-key column (one AHRT replay / hash pass
        per distinct geometry)."""
        token = _hrt_token(spec)
        keys = self._keys.get(token)
        if keys is None:
            keys = self._keys[token] = self._keys_for(spec)
        return keys

    def _history(
        self, token: Tuple[Any, ...], spec: Optional[PredictorSpec], k: int, init_bit: int
    ) -> Any:
        """Served from the widest window computed for the key space:
        ``window_k = window_K & ((1 << k) - 1)`` for any ``k <= K`` because
        both replay the same shift register from the same init."""
        cached = self._windows.get(token)
        if cached is None or cached[0] < k:
            width = max(k, self._reserve.get(token, 0))
            keys = None if spec is None else self.hrt_keys(spec)
            cached = self._windows[token] = (width, self._window(token, keys, width, init_bit))
        width, window = cached
        return window if width == k else window & ((1 << k) - 1)

    def history(self, spec: PredictorSpec) -> Any:
        """The per-record k-bit history pattern column for an AT/ST spec."""
        assert spec.history_length is not None
        return self._history(_hrt_token(spec), spec, spec.history_length, 1)

    def global_history(self, k: int, init_bit: int) -> Any:
        """The single global history register column (GAg, gshare,
        perceptron, TAGE)."""
        return self._history(("global", init_bit), None, k, init_bit)

    # -- profiling summaries (training-trace role) ---------------------
    def profile_bias(self) -> Tuple[Any, Any]:
        """Sorted unique pcs and their majority direction (ties taken)."""
        if self._bias is None:
            np = self.np
            unique_pc, inverse = np.unique(self.pc, return_inverse=True)
            net = np.bincount(
                inverse, weights=2 * self.taken.astype(np.int64) - 1, minlength=len(unique_pc)
            )
            self._bias = (unique_pc, net >= 0)
        return self._bias

    def preset_bits(self, history_length: int) -> Any:
        """Static Training's profiled pattern table over this trace: the
        majority outcome per history pattern (ties and unseen predict
        taken), exactly :func:`repro.predictors.static_training.profile_pattern_table`.

        Profiling always runs through an ideal HRT (software accounting),
        so the window column is the IHRT one — shared with any AT/ST spec
        testing on this same trace through an IHRT.
        """
        bits = self._preset.get(history_length)
        if bits is None:
            ihrt = PredictorSpec(scheme="ST", hrt_kind="IHRT", history_length=history_length)
            net = self.np.bincount(
                self.history(ihrt),
                weights=(2 * self.taken.astype(self.np.int64) - 1),
                minlength=1 << history_length,
            )
            bits = self._preset[history_length] = net >= 0
        return bits

    # -- per-site tallies ----------------------------------------------
    def site_index(self) -> Tuple[Any, Any]:
        """``(unique_pc, inverse)`` for per-site bincounts, computed once."""
        if self._site is None:
            self._site = self.np.unique(self.pc, return_inverse=True)
        return self._site


def _lookup(np: Any, keys: Any, values: Any, queries: Any, default: Any) -> Any:
    """``values`` at each query's position in the sorted ``keys`` column,
    ``default`` where the query is absent."""
    if len(keys) == 0:
        return np.full(len(queries), default, dtype=values.dtype)
    index = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[index] == queries, values[index], default)


# ----------------------------------------------------------------------
# the two-level automaton scan
# ----------------------------------------------------------------------
_COMPOSE_TABLE: Any = None
_DECODE_TABLE: Any = None
_AUTOMATON_TABLES: Dict[Tuple[Any, ...], Tuple[Any, Any, Any, Any]] = {}


def _composition_tables(np: Any) -> Tuple[Any, Any]:
    """The (compose, decode) lookup tables for byte-coded state mappings.

    Any function ``{0..3} -> {0..3}`` packs into one byte (two bits per
    input state), so composing two mappings is a single gather in a
    precomputed 256x256 table — automaton-independent, built once.
    ``decode[code, s]`` evaluates the coded mapping at state ``s``;
    ``compose[a, b]`` codes ``a after b`` (``b`` applied first).
    """
    global _COMPOSE_TABLE, _DECODE_TABLE
    if _COMPOSE_TABLE is None:
        codes = np.arange(256, dtype=np.intp)
        decode = (codes[:, None] >> (2 * np.arange(4))) & 3  # (256, 4)
        chained = decode[codes[:, None, None], decode[None, :, :]]  # (256, 256, 4)
        _COMPOSE_TABLE = (chained << (2 * np.arange(4))).sum(axis=-1).astype(np.uint8)
        _DECODE_TABLE = decode
    return _COMPOSE_TABLE, _DECODE_TABLE


def _automaton_key(automaton: Automaton) -> Tuple[Any, ...]:
    return (
        automaton.name,
        tuple(automaton.predictions),
        tuple(tuple(row) for row in automaton.transitions),
        automaton.init_state,
    )


def _automaton_tables(np: Any, automaton: Automaton) -> Tuple[Any, Any, Any, Any]:
    """``(step codes, window LUT, prediction-by-code LUT, prediction-by-state
    LUT)`` for one automaton.

    ``wlut[w - 1, bits]`` is the byte-coded composition of ``w`` automaton
    steps whose outcomes are ``bits`` (bit ``j`` = the outcome ``j`` steps
    back, newest in bit 0); ``pred256[code]`` is the prediction of the
    state reached by applying ``code`` to the init state.  Cached per
    automaton for the life of the process — 2.3 KB each.
    """
    key = _automaton_key(automaton)
    cached = _AUTOMATON_TABLES.get(key)
    if cached is not None:
        return cached
    compose, decode = _composition_tables(np)
    transitions = np.asarray(automaton.transitions, dtype=np.intp)
    step_codes = np.zeros(2, dtype=np.intp)
    for state in range(automaton.num_states):
        step_codes |= transitions[state] << (2 * state)
    step_u8 = step_codes.astype(np.uint8)
    wlut = np.empty((_CHUNK, 1 << _CHUNK), dtype=np.uint8)
    bits = np.arange(1 << _CHUNK)
    acc = step_u8[bits & 1]
    wlut[0] = acc
    for width in range(2, _CHUNK + 1):
        # one more (older) step composes on the right
        acc = compose[acc, step_u8[(bits >> (width - 1)) & 1]]
        wlut[width - 1] = acc
    # pad to four states: codes reachable from real step sequences only ever
    # decode to states < num_states, but the LUT covers all 256 codes
    predictions = np.zeros(4, dtype=bool)
    predictions[: automaton.num_states] = automaton.predictions
    pred256 = predictions[decode[:, automaton.init_state]]
    tables = (step_u8, wlut, pred256, predictions)
    _AUTOMATON_TABLES[key] = tables
    return tables


class _Group:
    """Per-bucket-column scan state shared by every automaton replaying it.

    One stable segment sort (radix-width keys), one outcome gather, one
    sliding outcome window, one position column — ``fig5``'s four automata
    replay against a single instance.  Note the sort *must* be per bucket
    column: automaton replay depends on within-bucket trace order, so
    orderings cannot be shared across different history lengths even
    though their buckets nest.
    """

    def __init__(self, np: Any, column: Any, taken: Any):
        self.order, self.values, self.start_mask, pos = _segments(np, column)
        self.taken_bool_sorted = taken[self.order].astype(bool)
        # the shared sliding outcome window feeding every automaton's wlut
        packed = self.taken_bool_sorted.astype(np.int16)
        window = packed.copy()
        for j in range(1, _CHUNK):
            window[j:] |= packed[:-j] << j
        self.window = window
        self.width = (pos & (_CHUNK - 1)).astype(np.intp)
        self.max_pos = int(pos.max()) if len(pos) else 0
        if self.max_pos >= _CHUNK:
            is_end = self.width == (_CHUNK - 1)
            self.rows = np.nonzero(is_end)[0]
            self.row_pos = pos[self.rows] >> 3
            ends_before = np.cumsum(is_end)
            ends_before -= is_end
            chunk = pos >> 3
            start = np.arange(len(pos), dtype=np.int64) - pos
            # index into the identity-prefixed scanned-totals array: chunk
            # c > 0 reads its segment's (c-1)-th scanned total (shifted up
            # one by the identity row), chunk 0 reads the identity
            self.row_index = np.where(chunk > 0, ends_before[start] + chunk, 0)
        else:
            self.rows = None


class _ScanBatch:
    """Deferred automaton-replay requests over shared bucket columns.

    ``add`` registers one (bucket column, automaton) request; ``run``
    replays them all: within-chunk prefixes come straight from each
    automaton's window LUT over the group's shared outcome window, and the
    per-chunk totals of *every* request are concatenated into one
    segmented doubling scan (disjoint row ranges keep segments from
    different requests apart).  A request may carry a key store of
    initial automaton states per bucket; it is read for each segment's
    starting state and left holding each segment's final state.  Results
    are per-record correctness columns in each group's sorted order.
    """

    def __init__(self, np: Any, taken: Any):
        self.np = np
        self.taken = taken
        self.groups: Dict[Tuple[Any, ...], _Group] = {}
        self.columns: Dict[Tuple[Any, ...], Any] = {}
        #: handle -> (group token, automaton, carried states or None)
        self.requests: Dict[Tuple[Any, ...], Tuple[Tuple[Any, ...], Automaton, Any]] = {}
        self.results: Dict[Tuple[Any, ...], Any] = {}

    @staticmethod
    def handle(token: Tuple[Any, ...], automaton: Automaton) -> Tuple[Any, ...]:
        return (token, _automaton_key(automaton))

    def add(
        self, token: Tuple[Any, ...], column: Any, automaton: Automaton, state: Any = None
    ) -> Tuple[Any, ...]:
        """Register a replay request; returns the handle ``run`` resolves."""
        handle = self.handle(token, automaton)
        if handle not in self.requests:
            self.requests[handle] = (token, automaton, state)
            self.columns.setdefault(token, column)
        return handle

    def group(self, token: Tuple[Any, ...]) -> _Group:
        group = self.groups.get(token)
        if group is None:
            group = self.groups[token] = _Group(self.np, self.columns[token], self.taken)
        return group

    def run(self) -> None:
        np = self.np
        compose, decode = _composition_tables(np)
        partial: Dict[Tuple[Any, ...], Any] = {}
        totals_parts: List[Any] = []
        pos_parts: List[Any] = []
        spans: List[Tuple[Tuple[Any, ...], int, int]] = []
        offset = 0
        for handle, (token, automaton, _state) in self.requests.items():
            group = self.group(token)
            _step, wlut, _pred, _lut = _automaton_tables(np, automaton)
            codes = wlut[group.width, group.window]
            partial[handle] = codes
            if group.rows is not None:
                totals_parts.append(codes[group.rows])
                pos_parts.append(group.row_pos)
                spans.append((handle, offset, offset + len(group.rows)))
                offset += len(group.rows)
        if totals_parts:
            totals = np.concatenate(totals_parts)
            row_pos = np.concatenate(pos_parts)
            distance = 1
            top = int(row_pos.max()) if len(row_pos) else 0
            while distance <= top:
                valid = row_pos[distance:] >= distance
                np.copyto(
                    totals[distance:],
                    compose[totals[distance:], totals[:-distance]],
                    where=valid,
                )
                distance <<= 1
            for handle, start, stop in spans:
                group = self.group(self.requests[handle][0])
                # identity-prefixed gather: every record composes with its
                # preceding chunks' scanned total (the identity for records
                # still inside their segment's first chunk) — a straight
                # full-column gather instead of a subset scatter
                scanned = np.empty(stop - start + 1, dtype=np.uint8)
                scanned[0] = _IDENTITY_CODE
                scanned[1:] = totals[start:stop]
                partial[handle] = compose[partial[handle], scanned[group.row_index]]
        for handle, (token, automaton, state) in self.requests.items():
            group = self.group(token)
            _step, _wlut, pred256, lut = _automaton_tables(np, automaton)
            codes = partial[handle]
            # a record's state is its predecessor's composed prefix applied
            # to its segment's initial state; segment heads see the identity
            previous = np.empty_like(codes)
            if len(codes):
                previous[0] = _IDENTITY_CODE
                previous[1:] = codes[:-1]
                np.copyto(previous, np.uint8(_IDENTITY_CODE), where=group.start_mask)
            if state is None:
                predicted = pred256[previous]
            else:
                starts, ends, segment = _segment_bounds(np, group.start_mask)
                initial = state.get(group.values[starts], automaton.init_state)
                predicted = lut[decode[previous, initial[segment]]]
                state.put(group.values[starts], decode[codes[ends], initial])
            self.results[handle] = predicted == group.taken_bool_sorted

    def correct_sorted(self, handle: Tuple[Any, ...]) -> Tuple[Any, _Group]:
        """A resolved request's per-record correctness (sorted order) and
        its group (whose ``order`` maps back to trace order)."""
        return self.results[handle], self.group(self.requests[handle][0])


# ----------------------------------------------------------------------
# spec recipes
# ----------------------------------------------------------------------
def _require_training(spec: PredictorSpec, trainings: Mapping[str, Any]) -> Any:
    role = training_role(spec)
    assert role is not None
    ctx = trainings.get(role)
    if ctx is None:
        raise KernelError(f"{spec.canonical()}: scoring needs a {role!r} training trace")
    return ctx


def _direct_mask(
    spec: PredictorSpec, ctx: TraceContext, trainings: Mapping[str, Any]
) -> Optional[Any]:
    """Trace-order correctness for the scan-free schemes (None otherwise)."""
    np = ctx.np
    if spec.scheme == "AlwaysTaken":
        return ctx.taken_bool.copy()
    if spec.scheme == "AlwaysNotTaken":
        return ~ctx.taken_bool
    if spec.scheme == "BTFN":
        return (ctx.target < ctx.pc) == ctx.taken_bool
    if spec.scheme == "Profile":
        unique_pc, bias = _require_training(spec, trainings).profile_bias()
        prediction = _lookup(np, unique_pc, bias, ctx.namespace(ctx.pc), True)
        return prediction == ctx.taken_bool
    if spec.scheme == "ST":
        k = spec.history_length
        assert k is not None
        preset = _require_training(spec, trainings).preset_bits(k)
        return preset[ctx.namespace(ctx.history(spec), k)] == ctx.taken_bool
    if spec.scheme == "Perceptron":
        assert spec.history_length is not None and spec.rows is not None
        histories = ctx.global_history(spec.history_length, 0)
        rows_index = (ctx.pc >> 2) % spec.rows
        prediction = np.empty(len(ctx), dtype=bool)
        for rows, weights in ctx.sessions(("weights",), lambda: _perceptron_table(np, spec)):
            prediction[rows] = _perceptron_predictions(
                np, rows_index[rows], histories[rows], ctx.taken[rows],
                spec.history_length, weights,
            )
        return prediction == ctx.taken_bool
    if spec.scheme == "TAGE":
        assert spec.tage_tables is not None and spec.history_length is not None
        histories = ctx.global_history(spec.history_length, 0)
        prediction = np.empty(len(ctx), dtype=bool)
        for rows, state in ctx.sessions(
            ("tage",),
            lambda: TageState(spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS),
        ):
            prediction[rows] = _tage_predictions(
                np, ctx.pc[rows], histories[rows], ctx.taken[rows], state
            )
        return prediction == ctx.taken_bool
    return None


def _scan_request(
    spec: PredictorSpec, ctx: TraceContext
) -> Tuple[Tuple[Any, ...], Any, Automaton]:
    """The (token, bucket column, automaton) replay behind an FSM scheme.

    Tokens name bucket columns: requests sharing a token share the
    column's segment sort, and requests differing only in automaton share
    everything but the window-LUT gather.  Distinct history lengths are
    distinct columns — replay depends on within-bucket trace order, so
    orderings cannot be shared across lengths even though buckets nest
    (the *windows* behind the columns still come from one shared
    :meth:`TraceContext.history` computation).
    """
    if spec.scheme == "LS":
        assert spec.hrt_automaton is not None
        return ("keys",) + _hrt_token(spec), ctx.hrt_keys(spec), spec.hrt_automaton
    k = spec.history_length
    assert k is not None
    if spec.scheme == "AT":
        assert spec.pt_automaton is not None
        token = ("pattern",) + _hrt_token(spec) + (k,)
        return token, ctx.namespace(ctx.history(spec)), spec.pt_automaton
    if spec.scheme == "GAg":
        return ("ghist", k), ctx.namespace(ctx.global_history(k, 1)), spec.pt_automaton or A2
    if spec.scheme == "gshare":
        index = ((ctx.pc >> 2) ^ ctx.global_history(k, 0)) & ((1 << k) - 1)
        return ("gidx", k), ctx.namespace(index), spec.pt_automaton or A2
    raise KernelError(f"no fused kernel for spec {spec.canonical()!r}")


class _FusedScores:
    """The fused scoring pipeline over one test context.

    Phase one compiles each spec to either a direct trace-order mask or a
    deferred scan request; phase two runs the whole scan batch; phase
    three reads stats, per-site tallies or trace-order correctness per
    spec.
    """

    def __init__(
        self,
        specs: Sequence[PredictorSpec],
        ctx: TraceContext,
        trainings: Mapping[str, Any],
    ):
        for spec in specs:
            if not vectorizable(spec):
                raise KernelError(f"no fused kernel for spec {spec.canonical()!r}")
        self.ctx = ctx
        ctx.reserve(specs)
        for training in trainings.values():
            training.reserve(specs)
        self.batch = _ScanBatch(ctx.np, ctx.taken)
        self._masks: Dict[int, Any] = {}
        self._handles: Dict[int, Tuple[Any, ...]] = {}
        for index, spec in enumerate(specs):
            mask = _direct_mask(spec, ctx, trainings)
            if mask is not None:
                self._masks[index] = mask
                continue
            token, column, automaton = _scan_request(spec, ctx)
            state = ctx.scan_state(_ScanBatch.handle(token, automaton))
            self._handles[index] = self.batch.add(token, column, automaton, state)
        self.batch.run()

    def correct(self, index: int) -> Any:
        """Spec ``index``'s per-record correctness in trace order."""
        mask = self._masks.get(index)
        if mask is None:
            sorted_mask, group = self.batch.correct_sorted(self._handles[index])
            mask = self.ctx.np.empty_like(sorted_mask)
            mask[group.order] = sorted_mask
        return mask

    def stats(self, index: int) -> PredictionStats:
        mask = self._masks.get(index)
        if mask is None:
            mask, _group = self.batch.correct_sorted(self._handles[index])
        return PredictionStats(
            conditional_total=int(len(mask)),
            conditional_correct=int(mask.sum()),
        )

    def per_site(self, index: int) -> Dict[int, Tuple[int, int]]:
        np = self.ctx.np
        unique_pc, inverse = self.ctx.site_index()
        mask = self._masks.get(index)
        if mask is None:
            mask, group = self.batch.correct_sorted(self._handles[index])
            site = inverse[group.order]
        else:
            site = inverse
        totals = np.bincount(inverse, minlength=len(unique_pc))
        corrects = np.bincount(site, weights=mask, minlength=len(unique_pc))
        return {
            int(pc): (int(correct), int(total))
            for pc, correct, total in zip(unique_pc, corrects, totals)
        }


def fused_stats(
    specs: Sequence[PredictorSpec],
    packed: PackedTrace,
    trainings: Optional[Mapping[str, PackedTrace]] = None,
    context: Optional[TraceContext] = None,
    training_contexts: Optional[Mapping[str, TraceContext]] = None,
) -> List[PredictionStats]:
    """Score every (vectorizable) spec over ``packed`` in one fused pass.

    ``trainings`` maps the roles :func:`training_role` reports (``"test"``
    / ``"train"``) to the traces the profiled schemes profile; passing the
    test trace itself under ``"test"`` shares one context for both roles.
    Bit-exact against the scalar engine.  Callers scoring several spec
    groups can pass prebuilt contexts.
    """
    ctx, training_ctxs = _contexts(packed, trainings, context, training_contexts)
    scores = _FusedScores(specs, ctx, training_ctxs)
    return [scores.stats(index) for index in range(len(specs))]


def fused_per_site(
    specs: Sequence[PredictorSpec],
    packed: PackedTrace,
    trainings: Optional[Mapping[str, PackedTrace]] = None,
    context: Optional[TraceContext] = None,
    training_contexts: Optional[Mapping[str, TraceContext]] = None,
) -> List[Dict[int, Tuple[int, int]]]:
    """Per-static-site ``(correct, total)`` maps for every spec, fused.

    The multi-predictor twin of
    :func:`repro.sim.analysis.per_site_accuracy`: one trace pass, shared
    intermediates, identical tallies.
    """
    ctx, training_ctxs = _contexts(packed, trainings, context, training_contexts)
    scores = _FusedScores(specs, ctx, training_ctxs)
    return [scores.per_site(index) for index in range(len(specs))]


def _contexts(
    packed: PackedTrace,
    trainings: Optional[Mapping[str, PackedTrace]],
    context: Optional[TraceContext],
    training_contexts: Optional[Mapping[str, TraceContext]],
) -> Tuple[TraceContext, Mapping[str, TraceContext]]:
    ctx = context if context is not None else TraceContext(packed)
    if training_contexts is not None:
        return ctx, training_contexts
    built: Dict[str, TraceContext] = {}
    for role, trace in (trainings or {}).items():
        built[role] = ctx if trace is packed else TraceContext(trace)
    return ctx, built


# ----------------------------------------------------------------------
# sweep planning
# ----------------------------------------------------------------------
class SweepPlan:
    """How a spec list splits into fused groups and per-spec fallbacks.

    The fused kernel handles every vectorizable spec; the rest (schemes
    without a vector kernel) stay on the per-spec scalar path.  Specs are
    additionally partitioned by :func:`training_role`, which is what the
    parallel layer needs to know per benchmark: ``"train"``-role cells
    (ST-Diff) do not exist on benchmarks without a Table 3 training set.
    """

    def __init__(self, specs: Sequence[PredictorSpec], backend: str):
        self.specs = list(specs)
        self.backend = backend
        self.fused: List[int] = []
        self.scalar: List[int] = []
        for index, spec in enumerate(self.specs):
            if backend == "vector" and vectorizable(spec):
                self.fused.append(index)
            else:
                self.scalar.append(index)

    @property
    def roles(self) -> List[Optional[str]]:
        """Per-spec training role (aligned with ``specs``)."""
        return [training_role(spec) for spec in self.specs]

    def needs_training(self, role: str) -> bool:
        return any(r == role for r in self.roles)
