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
XOR folds of :func:`fold_history`: a tagged table's index is the branch's
word address XOR the history folded to ``entry_bits``, and its tag the
word address XOR two folds of the history (to ``TAG_BITS`` and, shifted
left one, to ``TAG_BITS - 1``), masked to ``TAG_BITS``.  The columnar
kernel runs the same fixed-chunk fold over whole history columns.

The scalar predictor folds nothing per outcome.  A fold masks, shifts and
XORs, so it is linear over XOR, and the fold of a history is exactly the
XOR of the folds of its bytes.  Each of the four history bytes has a
256-entry table, built by :func:`fold_history` itself, whose entries are
*lane-packed* integers: table ``i``'s index fold sits in the 16-bit lane
at bit ``16 * i`` and its tag hash in the 8-bit lane at bit
``16 * tables + 8 * i``.  An index fold has at most 16 bits and a tag
``TAG_BITS == 8``, so XORing entries never carries between lanes.  The
branch's word address joins every lane with two multiplies,
``(word & index_mask) * index_rep`` and ``(word & 0xFF) * tag_rep``, where
``index_rep`` and ``tag_rep`` hold a 1 at the bottom of each index lane and
of each tag lane.  One
``struct`` unpack of the resulting ``3 * tables`` little-endian bytes then
yields every index and every tag.  The property tests hold the result
equal to the direct folds after every outcome.
"""

from __future__ import annotations

import struct
from functools import lru_cache
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


class TageState:
    """The mutable tables of one TAGE instance, hash-agnostic.

    Callers hand :meth:`peek` / :meth:`step` the *precomputed* base index
    and per-table (index, tag) pairs, which the scalar predictor computes
    per record.  :meth:`step` is the reference selection and update rule;
    the vector walk (:class:`repro.sim.kernels.TageWalk`) inlines the same
    rule over flat tables and is property-tested equal to it.
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
    def peek(
        self, base_index: int, indices: Sequence[int], tags: Sequence[int]
    ) -> bool:
        """Prediction only — no state change.  The provider is the
        matching table with the longest history; without one, the base
        table predicts."""
        tag = self.tag
        for i in range(self.tables - 1, -1, -1):
            if tag[i][indices[i]] == tags[i]:
                return self.ctr[i][indices[i]] >= 0
        return self.base[base_index] >= 2

    def step(
        self,
        base_index: int,
        indices: Sequence[int],
        tags: Sequence[int],
        taken: bool,
    ) -> bool:
        """Predict-and-update one branch; returns the prediction.

        Selection (provider and altpred) and update run in one pass, each
        counter read once: the provider's prediction counter moves toward
        the outcome (or the base counter, without a provider), its useful
        counter moves when provider and altpred disagree, and a
        misprediction allocates in the first longer table whose useful
        counter is zero (else every candidate's useful counter decays).
        """
        tables = self.tables
        tag = self.tag
        provider = alternate = -1
        for i in range(tables - 1, -1, -1):
            if tag[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alternate = i
                    break
        base = self.base
        if provider < 0:
            counter = base[base_index]
            prediction = counter >= 2
            if taken:
                base[base_index] = counter + 1 if counter < 3 else 3
            else:
                base[base_index] = counter - 1 if counter > 0 else 0
        else:
            index = indices[provider]
            ctr = self.ctr[provider]
            counter = ctr[index]
            prediction = counter >= 0
            if alternate >= 0:
                alt_prediction = self.ctr[alternate][indices[alternate]] >= 0
            else:
                alt_prediction = base[base_index] >= 2
            if prediction != alt_prediction:
                useful_row = self.useful[provider]
                u = useful_row[index]
                if prediction == taken:
                    useful_row[index] = u + 1 if u < U_MAX else U_MAX
                else:
                    useful_row[index] = u - 1 if u > 0 else 0
            if taken:
                ctr[index] = counter + 1 if counter < CTR_MAX else CTR_MAX
            else:
                ctr[index] = counter - 1 if counter > CTR_MIN else CTR_MIN
        if prediction != taken and provider < tables - 1:
            useful = self.useful
            candidates = range(provider + 1, tables)
            for j in candidates:
                if useful[j][indices[j]] == 0:
                    tag[j][indices[j]] = tags[j]
                    self.ctr[j][indices[j]] = 0 if taken else -1
                    break
            else:
                for j in candidates:
                    if useful[j][indices[j]] > 0:
                        useful[j][indices[j]] -= 1
        return prediction


#: width of a lane-packed entry's index lanes (an index fold has at most
#: 16 bits; its tag lanes are TAG_BITS wide)
INDEX_LANE_BITS = 16
#: history bytes a lane table covers: the longest history is 32 bits
HISTORY_BYTES = 4


@lru_cache(maxsize=None)
def _lane_tables(tables: int, entry_bits: int) -> Tuple[Tuple[int, ...], ...]:
    """Per history byte, the lane-packed hash contribution of each value.

    Entry ``v`` of byte ``k`` packs, for every tagged table ``i``, the
    index fold of ``v << 8k`` in the index lane at bit ``16 * i`` and its
    tag hash ``fold8 ^ (fold7 << 1)`` in the tag lane at bit
    ``16 * tables + 8 * i``.  Bytes beyond the longest history fold to
    zero.  Cached: every predictor of one geometry, a serve session's
    included, shares the tables.
    """
    lengths = tage_geometries(tables)
    tag_base = INDEX_LANE_BITS * tables
    built = []
    for position in range(HISTORY_BYTES):
        entries = []
        for value in range(256):
            history = value << (8 * position)
            packed = 0
            for i, length in enumerate(lengths):
                tag = fold_history(history, length, TAG_BITS) ^ (
                    fold_history(history, length, TAG_BITS - 1) << 1
                )
                packed |= fold_history(history, length, entry_bits) << (
                    INDEX_LANE_BITS * i
                )
                packed |= tag << (tag_base + TAG_BITS * i)
            entries.append(packed)
        built.append(tuple(entries))
    return tuple(built)


class TagePredictor(ConditionalBranchPredictor):
    """TAGE over a single global history register (init all-zeros).

    The indices and tags are exactly the folded hashes of the module
    docstring, but no fold runs per outcome: the XOR of four
    lane-packed byte-table lookups (:func:`_lane_tables`) and the pc's
    two lane multiplies holds every table's index and tag, one unpack
    splits them out, and an outcome only shifts the history.
    """

    def __init__(self, tables: int, entry_bits: int = DEFAULT_ENTRY_BITS):
        self.state = TageState(tables, entry_bits)
        self.tables = tables
        self.entry_bits = entry_bits
        self.max_history = self.state.lengths[-1]
        self._mask = (1 << self.max_history) - 1
        self._index_mask = (1 << entry_bits) - 1
        self._base_mask = (1 << (entry_bits + BASE_EXTRA_BITS)) - 1
        self._lanes = _lane_tables(tables, entry_bits)
        #: a 1 at the bottom of every index lane, and of every tag lane
        self._index_rep = sum(1 << (INDEX_LANE_BITS * i) for i in range(tables))
        self._tag_rep = sum(
            1 << (INDEX_LANE_BITS * tables + TAG_BITS * i) for i in range(tables)
        )
        #: bytes of a lane-packed value: two per index lane, one per tag lane
        self._width = 3 * tables
        self._unpack = struct.Struct(f"<{tables}H{tables}B").unpack
        self._history = 0

    def _hashes(self, pc: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """(base index, indices, tags) of ``pc`` under the current history."""
        low, second, third, high = self._history.to_bytes(HISTORY_BYTES, "little")
        byte0, byte1, byte2, byte3 = self._lanes
        word = pc >> 2
        hashes = self._unpack(
            (
                byte0[low] ^ byte1[second] ^ byte2[third] ^ byte3[high]
                ^ (word & self._index_mask) * self._index_rep
                ^ (word & 0xFF) * self._tag_rep
            ).to_bytes(self._width, "little")
        )
        tables = self.tables
        return word & self._base_mask, hashes[:tables], hashes[tables:]

    def predict(self, pc: int, target: int) -> bool:
        return self.state.peek(*self._hashes(pc))

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.observe(pc, target, taken)

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        prediction = self.state.step(*self._hashes(pc), taken)
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask
        return prediction

    def reset(self) -> None:
        self.state = TageState(self.tables, self.entry_bits)
        self._history = 0

    @property
    def name(self) -> str:
        return f"tage({self.tables},{self.entry_bits})"
