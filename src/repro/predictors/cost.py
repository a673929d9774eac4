"""Hardware storage cost model for predictor configurations.

The paper chooses Figure 10's configurations "on the basis of similar
costs"; this module makes that comparison explicit by counting the storage
bits each Table 2 configuration requires:

* history register table: ``entries x (history bits + tag bits)``
  (IHRT has no physical cost — it is an idealisation; AHRT pays a tag per
  entry, HHRT does not);
* pattern table: ``2^k x state bits`` (2 bits for the four-state automata,
  1 for Last-Time, or 1 preset bit for Static Training);
* LS designs: automaton state (plus tag) per entry, no pattern table.

Tag width is parameterised by the address space being distinguished; the
default models 30 usable PC bits as the paper's M88100 would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.spec import PredictorSpec, parse_spec

#: storage bits per pattern-table entry, by content
_STATE_BITS = {"LT": 1, "A1": 2, "A2": 2, "A3": 2, "A4": 2}

PC_BITS = 30  # word-aligned 32-bit addresses


@dataclass(frozen=True)
class StorageCost:
    """Bit-level storage breakdown of one configuration."""

    hrt_bits: int
    tag_bits: int
    pattern_bits: int

    @property
    def total_bits(self) -> int:
        return self.hrt_bits + self.tag_bits + self.pattern_bits

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


def _tag_width(entries: int, associativity: int) -> int:
    """Tag bits per entry: PC bits minus the set-index bits."""
    num_sets = max(1, entries // associativity)
    index_bits = max(0, num_sets.bit_length() - 1)
    return max(0, PC_BITS - index_bits)


def storage_cost(spec: "PredictorSpec | str") -> StorageCost:
    """Storage cost of a parsed or textual Table 2 configuration.

    Idealised structures (IHRT) and profile-time-only structures are
    costed at zero: they are analytical devices, not hardware.  The static
    schemes (Always Taken, BTFN, Profile) cost nothing at run time.  Each
    scheme's figure is its family's :meth:`~repro.predictors.families.Family.cost`.
    """
    from repro.predictors.families import family_of

    parsed = parse_spec(spec) if isinstance(spec, str) else spec
    return family_of(parsed).cost(parsed)
