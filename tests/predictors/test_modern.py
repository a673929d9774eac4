"""Modern-predictor subsystem: perceptron and TAGE scalar reference models.

These are the authoritative scalar semantics the vector kernels and
streaming scorers must reproduce bit-exactly (see tests/sim); here we pin
the update rules themselves — threshold training and weight clamping for
the perceptron, provider/altpred selection, useful bits and allocation for
TAGE — against hand-walked micro-traces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.predictors.modern import (
    CTR_MAX,
    CTR_MIN,
    MAX_HISTORY,
    MAX_TABLES,
    TAG_BITS,
    U_MAX,
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
    TagePredictor,
    TageState,
    fold_history,
    perceptron_threshold,
    tage_geometries,
    tage_index,
    tage_tag,
)
TARGET = 0x40


def _run(predictor, outcomes, pc=0x1000):
    predictions = []
    for taken in outcomes:
        predictions.append(predictor.predict(pc, TARGET))
        predictor.update(pc, TARGET, taken)
    return predictions


class TestPerceptron:
    def test_threshold_formula(self):
        # Jimenez & Lin: theta = floor(1.93 h + 14)
        assert perceptron_threshold(12) == 37
        assert perceptron_threshold(1) == 15

    def test_initial_prediction_is_taken(self):
        # zero weights give y = 0, and the decision rule is y >= 0
        predictor = PerceptronPredictor(4, rows=8)
        assert predictor.predict(0x1000, TARGET) is True

    def test_learns_alternating_pattern(self):
        predictor = PerceptronPredictor(8, rows=4)
        pattern = [True, False] * 80
        predictions = _run(predictor, pattern)
        assert predictions[-20:] == pattern[-20:]

    def test_learns_history_copy(self):
        # taken = outcome two branches ago — a pure function of one history
        # bit, linearly separable, the case the paper's counters struggle
        # with unless the pattern table sees the right history window
        predictor = PerceptronPredictor(6, rows=4)
        stream = [True, True]
        for i in range(150):
            stream.append(stream[-2])
            stream[-1] = bool((i * 7 + 3) % 5 % 2) if i < 2 else stream[-2]
        predictions = _run(predictor, stream)
        tail = [p == t for p, t in zip(predictions[-30:], stream[-30:])]
        assert sum(tail) >= 28

    def test_weights_clamp(self):
        predictor = PerceptronPredictor(2, rows=1)
        for _ in range(600):
            predictor.predict(0x1000, TARGET)
            predictor.update(0x1000, TARGET, True)
        assert all(
            WEIGHT_MIN <= w <= WEIGHT_MAX
            for row in predictor._weights
            for w in row
        )

    def test_row_aliasing(self):
        # (pc >> 2) % rows: with one row, distinct pcs share weights
        one_row = PerceptronPredictor(4, rows=1)
        for _ in range(50):
            one_row.predict(0x1000, TARGET)
            one_row.update(0x1000, TARGET, True)
        assert one_row.predict(0x2004, TARGET) is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerceptronPredictor(0)
        with pytest.raises(ConfigError):
            PerceptronPredictor(MAX_HISTORY + 1)
        with pytest.raises(ConfigError):
            PerceptronPredictor(8, rows=0)

    def test_reset_restores_initial_state(self):
        predictor = PerceptronPredictor(4, rows=2)
        _run(predictor, [True, False, False, True] * 10)
        predictor.reset()
        fresh = PerceptronPredictor(4, rows=2)
        assert _run(predictor, [False, True] * 10) == _run(
            fresh, [False, True] * 10
        )

    def test_name(self):
        assert PerceptronPredictor(12, rows=512).name == "perceptron(12,512)"


class TestTageHashing:
    def test_geometries_double(self):
        assert tage_geometries(4) == [4, 8, 16, 32]
        assert tage_geometries(1) == [4]

    def test_fold_is_xor_of_chunks(self):
        # history 0b1101_0110 folded to 4 bits: 0b1101 ^ 0b0110
        assert fold_history(0b11010110, 8, 4) == 0b1101 ^ 0b0110
        # fixed chunk count: high zero chunks do not change the fold
        assert fold_history(0b0110, 8, 4) == fold_history(0b0110, 4, 4)

    def test_index_and_tag_in_range(self):
        for length in tage_geometries(4):
            index = tage_index(0x1F40, 0xDEADBEEF, length, 9)
            assert 0 <= index < 512
            tag = tage_tag(0x1F40, 0xDEADBEEF, length)
            assert 0 <= tag < 256

    def test_different_lengths_decorrelate(self):
        hist = 0b101101110101
        indices = {
            tage_index(0x1000, hist, length, 9)
            for length in tage_geometries(4)
        }
        assert len(indices) > 1


class TestTageFoldedRegisters:
    """The scalar predictor reads its folded history values from one
    lane-packed table per history byte (XORing the lookups); after every
    outcome they must equal the re-folded definition, and the hashes the
    definition's indices and tags."""

    @pytest.mark.parametrize("entry_bits", [1, 3, 9, 16])
    @pytest.mark.parametrize("tables", range(1, MAX_TABLES + 1))
    def test_incremental_folds_equal_fold_history(self, tables, entry_bits):
        # widths: the index fold (entry_bits) and both tag folds (8 and 7);
        # lengths 4..32 give length < bits and length % bits == 0 cases
        rng = random.Random(tables * 100 + entry_bits)
        predictor = TagePredictor(tables, entry_bits)
        lengths = tage_geometries(tables)
        history = 0
        for step in range(300):
            if step == 150:
                predictor.reset()
                history = 0
            pc = 0x1000 + 4 * rng.randrange(64)
            taken = rng.random() < (0.9 if step % 50 < 25 else 0.4)
            predictor.observe(pc, TARGET, taken)
            history = ((history << 1) | taken) & ((1 << lengths[-1]) - 1)
            assert predictor._history == history
            folds = 0
            for position, table in enumerate(predictor._lanes):
                folds ^= table[(history >> (8 * position)) & 0xFF]
            for i, length in enumerate(lengths):
                assert (folds >> (16 * i)) & 0xFFFF == fold_history(
                    history, length, entry_bits
                )
                assert (folds >> (16 * tables + TAG_BITS * i)) & 0xFF == (
                    fold_history(history, length, TAG_BITS)
                    ^ (fold_history(history, length, TAG_BITS - 1) << 1)
                )
            base, indices, tags = predictor._hashes(pc)
            assert base == (pc >> 2) & ((1 << (entry_bits + 2)) - 1)
            assert list(indices) == [
                tage_index(pc, history, length, entry_bits) for length in lengths
            ]
            assert list(tags) == [tage_tag(pc, history, length) for length in lengths]

    @settings(max_examples=200, deadline=None)
    @given(
        tables=st.integers(1, MAX_TABLES),
        entry_bits=st.sampled_from([1, 8, 9, 16]),
        history=st.integers(0, (1 << 32) - 1),
        pc=st.integers(0, (1 << 32) - 1),
    )
    def test_lane_hashes_equal_the_definition(self, tables, entry_bits, history, pc):
        # the widest index lane (16 bits) and tag lane (8 bits) must not
        # carry into their neighbours under any history or pc
        predictor = TagePredictor(tables, entry_bits)
        lengths = tage_geometries(tables)
        history &= (1 << lengths[-1]) - 1
        predictor._history = history
        base, indices, tags = predictor._hashes(pc)
        assert base == (pc >> 2) & ((1 << (entry_bits + 2)) - 1)
        assert indices == tuple(
            tage_index(pc, history, length, entry_bits) for length in lengths
        )
        assert tags == tuple(tage_tag(pc, history, length) for length in lengths)

    def test_fold_is_xor_linear(self):
        # the property the byte tables rest on
        rng = random.Random(5)
        for _ in range(200):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            for length in tage_geometries(MAX_TABLES):
                for bits in (1, 3, 7, 8, 9, 16):
                    assert fold_history(a ^ b, length, bits) == (
                        fold_history(a, length, bits) ^ fold_history(b, length, bits)
                    )


class _ReferenceTageState(TageState):
    """Selection (a ``_select`` returning provider, prediction and
    altpred) and update as two methods: the reference the one-pass
    :meth:`TageState.step` must match."""

    def _select(self, base_index, indices, tags):
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

    def peek(self, base_index, indices, tags):
        return self._select(base_index, indices, tags)[1]

    def step(self, base_index, indices, tags, taken):
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


class TestTageStateStep:
    """The one-pass :meth:`TageState.step` against the two-method
    reference: same predictions and the same tables after every step."""

    @pytest.mark.parametrize("tables,entry_bits", [(1, 3), (4, 9)])
    def test_step_matches_reference(self, tables, entry_bits):
        rng = random.Random(tables * 10 + entry_bits)
        state = TageState(tables, entry_bits)
        reference = _ReferenceTageState(tables, entry_bits)
        lengths = tage_geometries(tables)
        pool = [0x1000 + 4 * i for i in range(5)]
        history = 0
        allocations = 0
        for step in range(4000):
            pc = rng.choice(pool)
            # noisy phases keep mispredicting, so allocation and useful
            # decay run often; biased phases let providers settle
            taken = rng.random() < (0.5 if step % 400 < 200 else 0.9)
            base = (pc >> 2) & ((1 << (entry_bits + 2)) - 1)
            indices = [tage_index(pc, history, n, entry_bits) for n in lengths]
            tags = [tage_tag(pc, history, n) for n in lengths]
            assert state.peek(base, indices, tags) == reference.peek(
                base, indices, tags
            )
            before = [list(row) for row in reference.tag]
            assert state.step(base, indices, tags, taken) == reference.step(
                base, indices, tags, taken
            )
            allocations += reference.tag != before
            assert state.base == reference.base
            assert state.tag == reference.tag
            assert state.ctr == reference.ctr
            assert state.useful == reference.useful
            history = ((history << 1) | taken) & ((1 << lengths[-1]) - 1)
        assert allocations > 100


class TestTagePredictor:
    def test_base_predicts_taken_initially(self):
        predictor = TagePredictor(4, entry_bits=9)
        assert predictor.predict(0x1000, TARGET) is True

    def test_learns_bias(self):
        predictor = TagePredictor(2, entry_bits=5)
        predictions = _run(predictor, [False] * 30)
        assert predictions[-10:] == [False] * 10

    def test_learns_alternating_pattern(self):
        predictor = TagePredictor(4, entry_bits=9)
        pattern = [True, False] * 100
        predictions = _run(predictor, pattern)
        assert sum(
            1 for p, t in zip(predictions[-40:], pattern[-40:]) if p == t
        ) >= 36

    def test_counters_stay_in_range(self):
        predictor = TagePredictor(2, entry_bits=4)
        outcomes = [bool((i // 3) % 2) for i in range(400)]
        for i, taken in enumerate(outcomes):
            pc = 0x1000 + (i % 5) * 4
            predictor.predict(pc, TARGET)
            predictor.update(pc, TARGET, taken)
        for table in range(predictor.state.tables):
            for ctr in predictor.state.ctr[table]:
                assert CTR_MIN <= ctr <= CTR_MAX
            for u in predictor.state.useful[table]:
                assert 0 <= u <= U_MAX

    def test_validation(self):
        with pytest.raises(ConfigError):
            TagePredictor(0)
        with pytest.raises(ConfigError):
            TagePredictor(MAX_TABLES + 1)
        with pytest.raises(ConfigError):
            TagePredictor(4, entry_bits=0)

    def test_reset_restores_initial_state(self):
        predictor = TagePredictor(2, entry_bits=5)
        _run(predictor, [True, True, False] * 30)
        predictor.reset()
        fresh = TagePredictor(2, entry_bits=5)
        stream = [False, True, True] * 20
        assert _run(predictor, stream) == _run(fresh, stream)

    def test_name(self):
        assert TagePredictor(4, entry_bits=9).name == "tage(4,9)"

    def test_deterministic(self):
        stream = [bool((i * 5 + 1) % 7 % 2) for i in range(200)]
        a = _run(TagePredictor(3, entry_bits=6), stream)
        b = _run(TagePredictor(3, entry_bits=6), stream)
        assert a == b
