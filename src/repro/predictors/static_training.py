"""Lee & Smith's Static Training scheme (section 5.2 comparator).

Static Training uses the same two-level structure as the paper's scheme —
per-branch history registers indexing a pattern table — but the pattern
table holds *preset prediction bits* computed from a profiling run instead
of live automata.  At run time only the history registers change; a given
history pattern therefore always yields the same prediction.

The profiling pass here is genuine: :func:`profile_pattern_table` replays a
training trace through an IHRT front-end (profiling is software accounting,
so every static branch can be tracked), tallies taken/not-taken per pattern,
and freezes the majority direction into the table.  Patterns never seen in
training default to *taken*, matching the initialisation bias of section 4.2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.hrt import HistoryRegisterTable, IHRT
from repro.trace.columnar import conditional_branches
from repro.trace.record import BranchRecord


def profile_pattern_table(
    history_length: int,
    training_records: Iterable[BranchRecord],
) -> List[bool]:
    """Profile a training trace into a preset pattern table.

    Returns a list of ``2 ** history_length`` booleans: the majority outcome
    observed for each history pattern (ties and unseen patterns predict
    taken).
    """
    if history_length < 1:
        raise ConfigError(f"history length must be >= 1, got {history_length}")
    mask = (1 << history_length) - 1
    # net[pattern] = (#taken - #not_taken) seen when the pattern was current.
    net = [0] * (mask + 1)
    histories: Dict[int, int] = {}

    for pc, _target, taken in conditional_branches(training_records):
        history = histories.get(pc, mask)  # registers init to all 1s
        net[history] += 1 if taken else -1
        histories[pc] = ((history << 1) | (1 if taken else 0)) & mask

    return [balance >= 0 for balance in net]


class StaticTrainingPredictor(ConditionalBranchPredictor):
    """ST(HRT, PT(preset), data) — profiled two-level prediction.

    Args:
        hrt: history-register front-end for the *test* run (IHRT / AHRT /
            HHRT); reset with all-ones initial histories like the adaptive
            scheme.
        history_length: k, the history register width.
        preset: ``2 ** k`` preset prediction bits, normally from
            :func:`profile_pattern_table`.
        data_mode: ``"Same"`` or ``"Diff"`` — purely a label recording
            whether training and testing used the same data set (Table 2).
    """

    def __init__(
        self,
        hrt: HistoryRegisterTable,
        history_length: int,
        preset: Sequence[bool],
        data_mode: str = "Same",
    ):
        if len(preset) != 1 << history_length:
            raise ConfigError(
                f"preset table has {len(preset)} entries; expected {1 << history_length}"
            )
        if data_mode not in ("Same", "Diff"):
            raise ConfigError(f"data_mode must be 'Same' or 'Diff', got {data_mode!r}")
        self.hrt = hrt
        self.history_length = history_length
        self._mask = (1 << history_length) - 1
        self.preset = list(preset)
        self.data_mode = data_mode
        hrt.init_payload = self._mask
        hrt.reset()

    @classmethod
    def trained(
        cls,
        hrt: HistoryRegisterTable,
        history_length: int,
        training_records: Iterable[BranchRecord],
        data_mode: str = "Same",
    ) -> "StaticTrainingPredictor":
        """Build the predictor by profiling ``training_records`` directly."""
        preset = profile_pattern_table(history_length, training_records)
        return cls(hrt, history_length, preset, data_mode)

    def predict(self, pc: int, target: int) -> bool:
        return self.preset[self.hrt.get(pc)]

    def update(self, pc: int, target: int, taken: bool) -> None:
        history = self.hrt.get(pc)
        self.hrt.put(pc, ((history << 1) | (1 if taken else 0)) & self._mask)

    def reset(self) -> None:
        """Reset run-time state; the preset (profiled) table is retained."""
        self.hrt.reset()

    @property
    def name(self) -> str:
        k = self.history_length
        return f"ST({self.hrt.spec_name}{k}SR),PT(2^{k},PB),{self.data_mode})"
