"""Jiménez & Lin perceptron branch predictor.

Each table row holds a signed weight vector ``w[0..h]``; the prediction
for a branch is the sign of the dot product of that vector with the
bipolar global history (``+1`` for taken, ``-1`` for not taken, ``w[0]``
against a constant ``+1`` bias input)::

    y = w[0] + sum_i w[i] * x_i        predict taken iff y >= 0

Training runs on a misprediction *or* whenever ``|y|`` is at or below the
threshold ``theta = floor(1.93 * h + 14)`` (the paper's empirically-best
margin): every weight moves one step toward agreement with the outcome,
saturating at the 8-bit range ``[-128, 127]``.

The structure is deliberately the classic 2001 HPCA design — one global
history register, rows selected by branch address modulo table size — so
its per-site behaviour is comparable against the 1991 two-level schemes
the repo reproduces: it learns *linearly separable* functions of the last
``h`` outcomes, which covers the static analyzer's ``correlated(d)``
class whenever the correlated sources fall inside the history window.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import List

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor

#: 8-bit saturating weight range.
WEIGHT_MIN = -128
WEIGHT_MAX = 127

#: default number of weight-vector rows (4 KB-class table at h=12).
DEFAULT_ROWS = 512

#: widest supported history.  The vector walk reads each record's history
#: window from an int64 column, which bounds it below 64 bits.
MAX_HISTORY = 62


def perceptron_threshold(history_length: int) -> int:
    """Jiménez & Lin's training threshold ``floor(1.93 * h + 14)``."""
    return int(1.93 * history_length + 14)


class PerceptronPredictor(ConditionalBranchPredictor):
    """Global-history perceptron predictor (Jiménez & Lin, HPCA 2001).

    ``history_length`` is the global-history window ``h``; ``rows`` the
    number of weight vectors (selected by ``(pc >> 2) % rows``).  The
    history is kept as the bipolar input vector itself: ``x_j`` is the
    outcome ``j`` branches ago, and every ``x_j`` starts at ``-1``
    (not taken), matching the repo's other global-history predictors
    (gshare init-0).
    """

    def __init__(self, history_length: int, rows: int = DEFAULT_ROWS):
        if not 1 <= history_length <= MAX_HISTORY:
            raise ConfigError(
                f"perceptron history length must be in 1..{MAX_HISTORY},"
                f" got {history_length}"
            )
        if rows < 1:
            raise ConfigError(f"perceptron rows must be >= 1, got {rows}")
        self.history_length = history_length
        self.rows = rows
        self.theta = perceptron_threshold(history_length)
        self.reset()

    # ------------------------------------------------------------------
    def predict(self, pc: int, target: int) -> bool:
        row = self._weights[(pc >> 2) % self.rows]
        return sum(map(mul, row, self._inputs)) >= 0

    def update(self, pc: int, target: int, taken: bool) -> None:
        self.observe(pc, target, taken)

    def observe(self, pc: int, target: int, taken: bool) -> bool:
        index = (pc >> 2) % self.rows
        row = self._weights[index]
        inputs = self._inputs
        y = sum(map(mul, row, inputs))
        if (y >= 0) != taken or abs(y) <= self.theta:
            row = list(map(add if taken else sub, row, inputs))
            # one step moves a weight by one, so only these two can overflow
            if WEIGHT_MAX + 1 in row or WEIGHT_MIN - 1 in row:
                row = [min(WEIGHT_MAX, max(WEIGHT_MIN, w)) for w in row]
            self._weights[index] = row
        inputs.insert(1, 1 if taken else -1)
        inputs.pop()
        return y >= 0

    def reset(self) -> None:
        self._weights: List[List[int]] = [
            [0] * (self.history_length + 1) for _ in range(self.rows)
        ]
        #: the bipolar input vector ``[1, x_1..x_h]``: the bias input, then
        #: ``+1``/``-1`` for each of the last ``h`` outcomes (init-0: all -1)
        self._inputs = [1] + [-1] * self.history_length

    @property
    def name(self) -> str:
        return f"perceptron({self.history_length},{self.rows})"
