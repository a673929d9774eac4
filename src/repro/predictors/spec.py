"""Parser for the paper's predictor naming convention (Table 2).

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
``GAg(k)``, ``gshare(k)``.  The modern subsystem
(:mod:`repro.predictors.modern`) registers as ``perceptron(h[,rows])``
and ``tage(tables[,entry_bits])``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import ConfigError, SpecParseError
from repro.predictors.automata import Automaton, automaton_by_name
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.extensions import GAgPredictor, GSharePredictor
from repro.predictors.hrt import AHRT, HHRT, IHRT, HistoryRegisterTable
from repro.predictors.modern import (
    DEFAULT_ENTRY_BITS,
    DEFAULT_ROWS,
    PerceptronPredictor,
    TagePredictor,
    tage_geometries,
)
from repro.predictors.pattern_table import MAX_HISTORY_LENGTH, PatternTable
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BTFNPredictor,
    ProfilePredictor,
)
from repro.predictors.static_training import StaticTrainingPredictor
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.trace.record import BranchRecord

_SR_CONTENT = re.compile(r"^(\d+)\s*SR$", re.IGNORECASE)
_SIMPLE_GLOBAL = re.compile(r"^(gag|gshare)\s*\(\s*(\d+)\s*(?:,\s*(\w[\w-]*)\s*)?\)$", re.IGNORECASE)
_MODERN = re.compile(
    r"^(perceptron|tage)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)$", re.IGNORECASE
)


def _split_top_level(text: str) -> List[str]:
    """Split on commas that are not nested inside parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced ')' in {text!r}")
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SpecParseError(f"unbalanced '(' in {text!r}")
    parts.append("".join(current).strip())
    return parts


def _parse_size(token: str, context: str) -> int:
    token = token.strip()
    match = re.match(r"^2\s*\^\s*(\d+)$", token)
    if match:
        return 1 << int(match.group(1))
    if token.isdigit():
        return int(token)
    raise SpecParseError(f"bad size {token!r} in {context}")


def _call_body(text: str, context: str) -> "tuple[str, str]":
    """Split ``Name( body )`` into (name, body)."""
    text = text.strip()
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise SpecParseError(f"expected Name(...) in {context}: {text!r}")
    return text[:open_paren].strip(), text[open_paren + 1 : -1]


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

    # ------------------------------------------------------------------
    def make_hrt(self, init_payload: int = 0) -> HistoryRegisterTable:
        """Instantiate this spec's HRT front-end."""
        if self.hrt_kind == "IHRT":
            return IHRT(init_payload)
        if self.hrt_kind == "AHRT":
            assert self.hrt_entries is not None
            return AHRT(self.hrt_entries, init_payload, self.hrt_associativity)
        if self.hrt_kind == "HHRT":
            assert self.hrt_entries is not None
            return HHRT(self.hrt_entries, init_payload)
        raise SpecParseError(f"scheme {self.scheme} has no HRT")

    def build(
        self, training_records: Optional[Iterable[BranchRecord]] = None
    ) -> ConditionalBranchPredictor:
        """Instantiate the configured predictor.

        Static Training requires ``training_records`` (its profiling pass);
        every other scheme ignores the argument.
        """
        if self.scheme == "AT":
            assert self.history_length is not None and self.pt_automaton is not None
            return TwoLevelAdaptivePredictor(
                self.make_hrt(), PatternTable(self.history_length, self.pt_automaton)
            )
        if self.scheme == "ST":
            assert self.history_length is not None
            if training_records is None:
                raise SpecParseError(
                    f"{self.canonical()}: Static Training needs training_records to build"
                )
            return StaticTrainingPredictor.trained(
                self.make_hrt(),
                self.history_length,
                training_records,
                data_mode=self.data_mode or "Same",
            )
        if self.scheme == "LS":
            assert self.hrt_automaton is not None
            return LeeSmithPredictor(self.make_hrt(), self.hrt_automaton)
        if self.scheme == "AlwaysTaken":
            return AlwaysTaken()
        if self.scheme == "AlwaysNotTaken":
            return AlwaysNotTaken()
        if self.scheme == "BTFN":
            return BTFNPredictor()
        if self.scheme == "Profile":
            if training_records is None:
                raise SpecParseError("Profile needs training_records to build")
            return ProfilePredictor.from_trace(training_records)
        if self.scheme == "GAg":
            assert self.history_length is not None
            return GAgPredictor(self.history_length, self.pt_automaton or automaton_by_name("A2"))
        if self.scheme == "gshare":
            assert self.history_length is not None
            return GSharePredictor(self.history_length, self.pt_automaton or automaton_by_name("A2"))
        if self.scheme == "Perceptron":
            assert self.history_length is not None
            return PerceptronPredictor(self.history_length, self.rows or DEFAULT_ROWS)
        if self.scheme == "TAGE":
            assert self.tage_tables is not None
            return TagePredictor(
                self.tage_tables, self.tage_entry_bits or DEFAULT_ENTRY_BITS
            )
        raise SpecParseError(f"unknown scheme {self.scheme!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Render back to the paper's naming convention."""
        if self.scheme in ("AlwaysTaken", "AlwaysNotTaken", "BTFN", "Profile"):
            return self.scheme
        if self.scheme in ("GAg", "gshare"):
            automaton = self.pt_automaton or automaton_by_name("A2")
            return f"{self.scheme}({self.history_length},{automaton.name})"
        if self.scheme == "Perceptron":
            return f"perceptron({self.history_length},{self.rows or DEFAULT_ROWS})"
        if self.scheme == "TAGE":
            bits = self.tage_entry_bits or DEFAULT_ENTRY_BITS
            return f"tage({self.tage_tables},{bits})"
        size = "" if self.hrt_kind == "IHRT" else str(self.hrt_entries)
        if self.scheme == "LS":
            assert self.hrt_automaton is not None
            return f"LS({self.hrt_kind}({size},{self.hrt_automaton.name}),,)"
        content = f"{self.history_length}SR"
        k = self.history_length
        if self.scheme == "AT":
            assert self.pt_automaton is not None
            return f"AT({self.hrt_kind}({size},{content}),PT(2^{k},{self.pt_automaton.name}),)"
        return f"ST({self.hrt_kind}({size},{content}),PT(2^{k},PB),{self.data_mode or 'Same'})"


def parse_spec(text: str) -> PredictorSpec:
    """Parse one Table 2 configuration string into a :class:`PredictorSpec`.

    Raises :class:`~repro.errors.SpecParseError` with a description of the
    problem for malformed input.
    """
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("alwaystaken", "taken"):
        return PredictorSpec(scheme="AlwaysTaken")
    if lowered in ("alwaysnottaken", "nottaken"):
        return PredictorSpec(scheme="AlwaysNotTaken")
    if lowered == "btfn":
        return PredictorSpec(scheme="BTFN")
    if lowered in ("profile", "profiling"):
        return PredictorSpec(scheme="Profile")
    match = _SIMPLE_GLOBAL.match(stripped)
    if match:
        scheme = "GAg" if match.group(1).lower() == "gag" else "gshare"
        automaton = automaton_by_name(match.group(3)) if match.group(3) else None
        return PredictorSpec(
            scheme=scheme,
            history_length=_history_length(match.group(2), text),
            pt_automaton=automaton,
        )
    match = _MODERN.match(stripped)
    if match:
        return _parse_modern(match, text)

    scheme_name, body = _call_body(stripped, "spec")
    scheme = scheme_name.upper()
    if scheme not in ("AT", "ST", "LS"):
        raise SpecParseError(f"unknown scheme {scheme_name!r}")

    parts = _split_top_level(body)
    if len(parts) == 2:
        parts.append("")  # tolerate omitted trailing Data field
    if len(parts) != 3:
        raise SpecParseError(
            f"{scheme} spec needs History, Pattern, Data parts; got {len(parts)} in {text!r}"
        )
    hrt_part, pt_part, data_part = (part.strip() for part in parts)

    spec = PredictorSpec(scheme=scheme)
    _parse_hrt_part(spec, hrt_part, text)
    _parse_pt_part(spec, pt_part, text)
    _parse_data_part(spec, data_part, text)
    _validate(spec, text)
    return spec


def _parse_modern(match: "re.Match[str]", full: str) -> PredictorSpec:
    """``perceptron(h[,rows])`` / ``tage(tables[,entry_bits])``."""
    family = match.group(1).lower()
    first = int(match.group(2))
    second = int(match.group(3)) if match.group(3) else None
    if family == "perceptron":
        from repro.predictors.modern import MAX_HISTORY

        if not 1 <= first <= MAX_HISTORY:
            raise SpecParseError(
                f"perceptron history length must be in 1..{MAX_HISTORY} in {full!r}"
            )
        rows = second if second is not None else DEFAULT_ROWS
        if rows < 1:
            raise SpecParseError(f"perceptron rows must be >= 1 in {full!r}")
        return PredictorSpec(scheme="Perceptron", history_length=first, rows=rows)
    from repro.predictors.modern import MAX_TABLES

    if not 1 <= first <= MAX_TABLES:
        raise SpecParseError(
            f"tage tables must be in 1..{MAX_TABLES} in {full!r}"
        )
    bits = second if second is not None else DEFAULT_ENTRY_BITS
    if not 1 <= bits <= 16:
        raise SpecParseError(f"tage entry bits must be in 1..16 in {full!r}")
    return PredictorSpec(
        scheme="TAGE",
        history_length=tage_geometries(first)[-1],
        tage_tables=first,
        tage_entry_bits=bits,
    )


def _parse_hrt_part(spec: PredictorSpec, hrt_part: str, full: str) -> None:
    kind_name, body = _call_body(hrt_part, f"History part of {full!r}")
    kind = kind_name.upper()
    if kind not in ("IHRT", "AHRT", "HHRT"):
        raise SpecParseError(f"unknown HRT kind {kind_name!r} in {full!r}")
    spec.hrt_kind = kind
    fields = _split_top_level(body)
    if len(fields) != 2:
        raise SpecParseError(f"HRT part needs (Size, Content) in {full!r}")
    size_text, content = fields[0].strip(), fields[1].strip()
    if kind == "IHRT":
        if size_text:
            raise SpecParseError(f"IHRT takes no size (got {size_text!r}) in {full!r}")
    else:
        spec.hrt_entries = _parse_size(size_text, full)
    sr_match = _SR_CONTENT.match(content)
    if sr_match:
        spec.history_length = _history_length(sr_match.group(1), full)
    else:
        try:
            spec.hrt_automaton = automaton_by_name(content)
        except ConfigError as exc:
            raise SpecParseError(f"{exc} in {full!r}") from exc


def _history_length(digits: str, full: str) -> int:
    """A pattern-table history length, bounded like :class:`PatternTable`
    so no front end can request a zero-bit or ``2^k``-too-large table."""
    k = int(digits)
    if not 1 <= k <= MAX_HISTORY_LENGTH:
        raise SpecParseError(
            f"history length must be in 1..{MAX_HISTORY_LENGTH}, got {k} in {full!r}"
        )
    return k


def _parse_pt_part(spec: PredictorSpec, pt_part: str, full: str) -> None:
    if not pt_part:
        return
    name, body = _call_body(pt_part, f"Pattern part of {full!r}")
    if name.upper() != "PT":
        raise SpecParseError(f"expected PT(...), got {name!r} in {full!r}")
    fields = _split_top_level(body)
    if len(fields) != 2:
        raise SpecParseError(f"PT part needs (Size, Content) in {full!r}")
    spec.pt_entries = _parse_size(fields[0], full)
    content = fields[1].strip()
    if content.upper() != "PB":
        try:
            spec.pt_automaton = automaton_by_name(content)
        except ConfigError as exc:
            raise SpecParseError(f"{exc} in {full!r}") from exc


def _parse_data_part(spec: PredictorSpec, data_part: str, full: str) -> None:
    if not data_part:
        return
    mode = data_part.capitalize()
    if mode not in ("Same", "Diff"):
        raise SpecParseError(f"Data must be Same or Diff, got {data_part!r} in {full!r}")
    spec.data_mode = mode


def _validate(spec: PredictorSpec, full: str) -> None:
    if spec.scheme in ("AT", "ST"):
        if spec.history_length is None:
            raise SpecParseError(f"{spec.scheme} needs a kSR history content in {full!r}")
        if spec.pt_entries is None:
            raise SpecParseError(f"{spec.scheme} needs a PT part in {full!r}")
        expected = 1 << spec.history_length
        if spec.pt_entries != expected:
            raise SpecParseError(
                f"PT size {spec.pt_entries} does not match 2^{spec.history_length}"
                f" = {expected} in {full!r}"
            )
        if spec.scheme == "AT" and spec.pt_automaton is None:
            raise SpecParseError(f"AT pattern table needs an automaton in {full!r}")
        if spec.scheme == "ST" and spec.pt_automaton is not None:
            raise SpecParseError(f"ST pattern table holds preset bits (PB) in {full!r}")
    elif spec.scheme == "LS":
        if spec.hrt_automaton is None:
            raise SpecParseError(f"LS HRT entries must hold an automaton in {full!r}")
        if spec.pt_entries is not None:
            raise SpecParseError(f"LS has no pattern table in {full!r}")
        if spec.data_mode is not None:
            raise SpecParseError(f"LS takes no Data field in {full!r}")
