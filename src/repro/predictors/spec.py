"""The paper's predictor naming convention (Table 2).

The paper names every simulated configuration as::

    Scheme(History(Size, Entry_Content), Pattern(Size, Entry_Content), Data)

for example ``AT(AHRT(512,12SR),PT(2^12,A2),)`` — Two-Level Adaptive
Training with a 512-entry 4-way associative HRT of 12-bit shift registers
and a 4096-entry pattern table of A2 automata — or ``LS(AHRT(512,A2),,)``
for a Lee & Smith design (no pattern level), or
``ST(IHRT(,12SR),PT(2^12,PB),Diff)`` for Static Training tested on a
different data set than it was trained on.

:func:`parse_spec` turns such a string into a :class:`PredictorSpec`;
:meth:`PredictorSpec.build` instantiates the predictor (Static Training
additionally needs the training trace).  The simple schemes are accepted by
bare name: ``AlwaysTaken``, ``AlwaysNotTaken``, ``BTFN``, ``Profile``,
``GAg(k)``, ``gshare(k)``, ``PAp(k)``, ``PAs(k,sets)``.  The modern
subsystem (:mod:`repro.predictors.modern`) registers as ``perceptron(h[,rows])``
and ``tage(tables[,entry_bits])``.  Each scheme's grammar, bounds,
canonical form and builder live in its family
(:mod:`repro.predictors.families`); this module only dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import SpecParseError
from repro.predictors.automata import Automaton
from repro.predictors.base import ConditionalBranchPredictor
from repro.trace.record import BranchRecord


@dataclass
class PredictorSpec:
    """A parsed Table 2 configuration.

    Exactly one of ``history_length`` / ``hrt_automaton`` is set, according
    to whether the HRT entries hold shift registers (AT/ST) or automata (LS).
    """

    scheme: str  # "AT" | "ST" | "LS" | simple-scheme name
    hrt_kind: Optional[str] = None  # "IHRT" | "AHRT" | "HHRT"
    hrt_entries: Optional[int] = None  # None for IHRT
    history_length: Optional[int] = None
    hrt_automaton: Optional[Automaton] = None
    pt_entries: Optional[int] = None
    pt_automaton: Optional[Automaton] = None  # None for ST's preset bits
    data_mode: Optional[str] = None  # "Same" | "Diff" for ST
    hrt_associativity: int = 4
    # modern subsystem (Perceptron / TAGE); ``history_length`` doubles as
    # the perceptron window h and as TAGE's longest geometric history
    rows: Optional[int] = None  # perceptron weight-vector rows
    tage_tables: Optional[int] = None
    tage_entry_bits: Optional[int] = None
    sets: Optional[int] = None  # PAs pattern tables

    def build(
        self, training_records: Optional[Iterable[BranchRecord]] = None
    ) -> ConditionalBranchPredictor:
        """Instantiate the configured predictor.

        Static Training and Profile require ``training_records`` (their
        profiling pass); every other scheme ignores the argument.
        """
        from repro.predictors.families import family_of

        return family_of(self).build(self, training_records)

    def canonical(self) -> str:
        """Render back to the paper's naming convention."""
        from repro.predictors.families import family_of

        return family_of(self).canonical(self)


def parse_spec(text: str) -> PredictorSpec:
    """Parse one Table 2 configuration string into a :class:`PredictorSpec`.

    Raises :class:`~repro.errors.SpecParseError` with a description of the
    problem for malformed input.
    """
    from repro.predictors.families import FAMILIES

    stripped = text.strip()
    for family in FAMILIES.values():
        spec = family.parse(stripped)
        if spec is not None:
            return spec
    raise SpecParseError(f"unknown scheme in {text!r}")
