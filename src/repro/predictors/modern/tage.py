"""A small deterministic TAGE-style predictor (Seznec & Michaud, JILP 2006).

A base bimodal table backs up to four *tagged* tables indexed by
geometrically-growing global-history lengths (4, 8, 16, 32).  Prediction
comes from the matching table with the longest history (the *provider*);
the next-longest match (or the base table) is the *altpred*.  On a
misprediction a fresh entry is allocated in a longer-history table whose
``useful`` counter has decayed to zero.

The design is stripped to its deterministic core so that scalar engine,
vector kernel and streaming scorer can be proved bit-exact against each
other: no ``USE_ALT_ON_NA`` heuristic, no randomised allocation (the first
``u == 0`` table above the provider wins; if none, every candidate's ``u``
is decremented), no periodic ``u`` reset.  The hash functions are plain
XOR folds defined by :func:`fold_history`, :func:`tage_index` and
:func:`tage_tag`.  The columnar kernel runs the same fixed-chunk fold over
whole history columns; the scalar predictor instead advances one folded
register per (table, width) by one bit per outcome, which equals the
definition after every outcome (the property tests check both).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor

#: tag width of the tagged tables.
TAG_BITS = 8
#: signed 3-bit prediction counter range (predict taken when ``>= 0``).
CTR_MIN = -4
CTR_MAX = 3
#: 2-bit useful-counter ceiling.
U_MAX = 3
#: the base bimodal table has ``2 ** (entry_bits + BASE_EXTRA_BITS)``
#: 2-bit counters (it is cheap, so it gets 4x the tagged-table entries).
BASE_EXTRA_BITS = 2

#: default per-tagged-table size exponent (512-entry tables).
DEFAULT_ENTRY_BITS = 9
#: the longest geometric history must fit the int64 history columns.
MAX_TABLES = 4


def tage_geometries(tables: int) -> List[int]:
    """Geometric history lengths ``4, 8, 16, 32`` for ``tables`` tables."""
    return [4 << i for i in range(tables)]


def fold_history(history: int, length: int, bits: int) -> int:
    """XOR-fold the low ``length`` bits of ``history`` into ``bits`` bits.

    Written with a fixed chunk count (not ``while value``) so the columnar
    kernels can run the identical loop over whole NumPy columns.
    """
    folded = 0
    value = history & ((1 << length) - 1)
    mask = (1 << bits) - 1
    for _ in range((length + bits - 1) // bits):
        folded ^= value & mask
        value >>= bits
    return folded


def tage_index(pc: int, history: int, length: int, entry_bits: int) -> int:
    """Tagged-table index: folded history XOR branch address."""
    return ((pc >> 2) ^ fold_history(history, length, entry_bits)) & (
        (1 << entry_bits) - 1
    )


def tage_tag(pc: int, history: int, length: int) -> int:
    """Tagged-table tag: two differently-folded history hashes XOR pc."""
    return (
        (pc >> 2)
        ^ fold_history(history, length, TAG_BITS)
        ^ (fold_history(history, length, TAG_BITS - 1) << 1)
    ) & ((1 << TAG_BITS) - 1)


class TageState:
    """The mutable tables of one TAGE instance, hash-agnostic.

    Callers hand :meth:`peek` / :meth:`step` the *precomputed* base index
    and per-table (index, tag) pairs; the scalar predictor computes them
    per record, the vector kernel computes them columnar.  Keeping the
    selection/update logic here — and only here — is what makes the two
    paths bit-exact by construction.
    """

    def __init__(self, tables: int, entry_bits: int):
        if not 1 <= tables <= MAX_TABLES:
            raise ConfigError(
                f"tage tables must be in 1..{MAX_TABLES}, got {tables}"
            )
        if not 1 <= entry_bits <= 16:
            raise ConfigError(
                f"tage entry bits must be in 1..16, got {entry_bits}"
            )
        self.tables = tables
        self.entry_bits = entry_bits
        self.lengths = tage_geometries(tables)
        size = 1 << entry_bits
        self.base = [2] * (1 << (entry_bits + BASE_EXTRA_BITS))
        #: an entry never allocated holds tag -1, which no hashed tag equals
        self.tag = [[-1] * size for _ in range(tables)]
        self.ctr = [[0] * size for _ in range(tables)]
        self.useful = [[0] * size for _ in range(tables)]

    # ------------------------------------------------------------------
    def _select(
        self, base_index: int, indices: Sequence[int], tags: Sequence[int]
    ) -> Tuple[int, bool, bool]:
        """(provider table or -1, prediction, altpred)."""
        provider = -1
        alternate = -1
        tag = self.tag
        for i in range(self.tables - 1, -1, -1):
            if tag[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alternate = i
                    break
        base_prediction = self.base[base_index] >= 2
        if provider < 0:
            return provider, base_prediction, base_prediction
        ctr = self.ctr
        prediction = ctr[provider][indices[provider]] >= 0
        if alternate >= 0:
            alt_prediction = ctr[alternate][indices[alternate]] >= 0
        else:
            alt_prediction = base_prediction
        return provider, prediction, alt_prediction

    def peek(
        self, base_index: int, indices: Sequence[int], tags: Sequence[int]
    ) -> bool:
        """Prediction only — no state change."""
        return self._select(base_index, indices, tags)[1]

    def step(
        self,
        base_index: int,
        indices: Sequence[int],
        tags: Sequence[int],
        taken: bool,
    ) -> bool:
        """Predict-and-update one branch; returns the prediction."""
        provider, prediction, alt_prediction = self._select(
            base_index, indices, tags
        )
        useful = self.useful
        if provider >= 0:
            index = indices[provider]
            if prediction != alt_prediction:
                u = useful[provider][index]
                useful[provider][index] = (
                    min(U_MAX, u + 1) if prediction == taken else max(0, u - 1)
                )
            ctr = self.ctr[provider]
            counter = ctr[index]
            ctr[index] = (
                min(CTR_MAX, counter + 1) if taken else max(CTR_MIN, counter - 1)
            )
        else:
            counter = self.base[base_index]
            self.base[base_index] = (
                min(3, counter + 1) if taken else max(0, counter - 1)
            )
        if prediction != taken and provider < self.tables - 1:
            candidates = range(provider + 1, self.tables)
            for j in candidates:
                if useful[j][indices[j]] == 0:
                    self.tag[j][indices[j]] = tags[j]
                    self.ctr[j][indices[j]] = 0 if taken else -1
                    break
            else:
                for j in candidates:
                    if useful[j][indices[j]] > 0:
                        useful[j][indices[j]] -= 1
        return prediction


class TagePredictor(ConditionalBranchPredictor):
    """TAGE over a single global history register (init all-zeros).

    Instead of re-folding the whole history for every lookup, the
    predictor carries one folded register per (table, width) — the index
    fold and the two tag folds — and advances each by one bit per outcome
    with the standard circular-fold update.  After every outcome each
    register equals :func:`fold_history` of the current history, so the
    indices and tags are exactly :func:`tage_index` and :func:`tage_tag`.
    """

    def __init__(self, tables: int, entry_bits: int = DEFAULT_ENTRY_BITS):
        self.state = TageState(tables, entry_bits)
        self.tables = tables
        self.entry_bits = entry_bits
        self.max_history = self.state.lengths[-1]
        self._mask = (1 << self.max_history) - 1
        self._index_mask = (1 << entry_bits) - 1
        self._tag_mask = (1 << TAG_BITS) - 1
        self._base_mask = (1 << (entry_bits + BASE_EXTRA_BITS)) - 1
        #: per folded register, index folds first, then tag, then tag-1:
        #: (history bit leaving the window, its fold position, top bit, mask)
        self._geometry = [
            (length - 1, length % bits, bits - 1, (1 << bits) - 1)
            for bits in (entry_bits, TAG_BITS, TAG_BITS - 1)
            for length in self.state.lengths
        ]
        self._history = 0
        self._folds = [0] * len(self._geometry)

    def _hashes(self, pc: int) -> Tuple[int, List[int], List[int]]:
        word = pc >> 2
        folds = self._folds
        tables = self.tables
        index_mask, tag_mask = self._index_mask, self._tag_mask
        indices = [(word ^ fold) & index_mask for fold in folds[:tables]]
        tags = [
            (word ^ tag ^ (tag1 << 1)) & tag_mask
            for tag, tag1 in zip(folds[tables : 2 * tables], folds[2 * tables :])
        ]
        return word & self._base_mask, indices, tags

    def _push(self, taken: bool) -> None:
        """Shift one outcome into the history and every folded register.

        This is the standard TAGE circular-fold update ``f = (f << 1) |
        bit; f ^= h[L-1] << (L % b); f ^= f >> b; f &= mask`` written as
        one expression: rotate ``f`` left within its ``b`` bits, XOR the
        entering bit in at 0 and the leaving bit ``h[L-1]`` at ``L % b``.
        """
        bit = 1 if taken else 0
        history = self._history
        self._folds = [
            (((fold << 1) & mask) | (fold >> top)) ^ bit ^ (((history >> leaving) & 1) << drop)
            for fold, (leaving, drop, top, mask) in zip(self._folds, self._geometry)
        ]
        self._history = ((history << 1) | bit) & self._mask

    def predict(self, pc: int, target: int) -> bool:
        return self.state.peek(*self._hashes(pc))

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.observe(pc, target, taken)

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        prediction = self.state.step(*self._hashes(pc), taken)
        self._push(taken)
        return prediction

    def reset(self) -> None:
        self.state = TageState(self.tables, self.entry_bits)
        self._history = 0
        self._folds = [0] * len(self._geometry)

    @property
    def name(self) -> str:
        return f"tage({self.tables},{self.entry_bits})"
