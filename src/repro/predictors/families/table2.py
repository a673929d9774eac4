"""The paper's three-part grammar (Table 2): AT, ST and LS.

Every configuration is ``Scheme(History(Size, Entry_Content),
Pattern(Size, Entry_Content), Data)``, for example
``AT(AHRT(512,12SR),PT(2^12,A2),)`` — a 512-entry 4-way associative HRT
of 12-bit shift registers over a 4096-entry pattern table of A2 automata.
The three schemes share the History, Pattern and Data parsing and the
HRT geometry rules:

* HRT entries are ``>= 1`` and an AHRT's entries are a multiple of its
  associativity (4); an IHRT takes no size;
* AT and ST hold ``kSR`` shift registers (``1 <= k <= 24``) over a
  ``PT(2^k, ...)`` pattern table — AT's of automata, ST's of preset bits
  (``PB``);
* only ST takes a Data field (``Same`` or ``Diff``: which data set it
  profiles); LS holds automata in the HRT itself and has no pattern table.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, SpecParseError
from repro.predictors.automata import Automaton, automaton_by_name
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.families import Family, history_length, register
from repro.predictors.hrt import AHRT, HHRT, IHRT, HistoryRegisterTable
from repro.predictors.pattern_table import PatternTable
from repro.predictors.spec import PredictorSpec
from repro.predictors.static_training import StaticTrainingPredictor
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.trace.record import BranchRecord

_SR_CONTENT = re.compile(r"^(\d+)\s*SR$", re.IGNORECASE)


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


def _call_body(text: str, context: str) -> Tuple[str, str]:
    """Split ``Name( body )`` into (name, body)."""
    text = text.strip()
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise SpecParseError(f"expected Name(...) in {context}: {text!r}")
    return text[:open_paren].strip(), text[open_paren + 1 : -1]


def _automaton(content: str, full: str) -> Automaton:
    try:
        return automaton_by_name(content)
    except ConfigError as exc:
        raise SpecParseError(f"{exc} in {full!r}") from exc


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
        entries = spec.hrt_entries = _parse_size(size_text, full)
        if entries < 1:
            raise SpecParseError(f"{kind} entries must be >= 1 in {full!r}")
        if kind == "AHRT" and entries % spec.hrt_associativity:
            raise SpecParseError(
                f"AHRT entries ({entries}) must be a multiple of its"
                f" associativity ({spec.hrt_associativity}) in {full!r}"
            )
    sr_match = _SR_CONTENT.match(content)
    if sr_match:
        spec.history_length = history_length(sr_match.group(1), full)
    else:
        spec.hrt_automaton = _automaton(content, full)


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
        spec.pt_automaton = _automaton(content, full)


def _parse_data_part(spec: PredictorSpec, data_part: str, full: str) -> None:
    if not data_part:
        return
    mode = data_part.capitalize()
    if mode not in ("Same", "Diff"):
        raise SpecParseError(f"Data must be Same or Diff, got {data_part!r} in {full!r}")
    spec.data_mode = mode


def _make_hrt(spec: PredictorSpec) -> HistoryRegisterTable:
    """Instantiate the spec's HRT front-end."""
    if spec.hrt_kind == "AHRT":
        assert spec.hrt_entries is not None
        return AHRT(spec.hrt_entries, 0, spec.hrt_associativity)
    if spec.hrt_kind == "HHRT":
        assert spec.hrt_entries is not None
        return HHRT(spec.hrt_entries, 0)
    return IHRT(0)


def _hrt_text(spec: PredictorSpec, content: str) -> str:
    size = "" if spec.hrt_kind == "IHRT" else str(spec.hrt_entries)
    return f"{spec.hrt_kind}({size},{content})"


class _Table2(Family):
    def parse(self, text: str) -> Optional[PredictorSpec]:
        open_paren = text.find("(")
        if open_paren < 0 or text[:open_paren].strip().upper() != self.scheme:
            return None
        _name, body = _call_body(text, "spec")
        parts = _split_top_level(body)
        if len(parts) == 2:
            parts.append("")  # tolerate omitted trailing Data field
        if len(parts) != 3:
            raise SpecParseError(
                f"{self.scheme} spec needs History, Pattern, Data parts;"
                f" got {len(parts)} in {text!r}"
            )
        hrt_part, pt_part, data_part = (part.strip() for part in parts)
        spec = PredictorSpec(scheme=self.scheme)
        _parse_hrt_part(spec, hrt_part, text)
        _parse_pt_part(spec, pt_part, text)
        _parse_data_part(spec, data_part, text)
        self.validate(spec, text)
        return spec

    def validate(self, spec: PredictorSpec, full: str) -> None:
        raise NotImplementedError


class _TwoLevel(_Table2):
    """AT and ST: k-bit history registers over a ``2^k`` pattern table."""

    def validate(self, spec: PredictorSpec, full: str) -> None:
        if spec.history_length is None:
            raise SpecParseError(f"{self.scheme} needs a kSR history content in {full!r}")
        if spec.pt_entries is None:
            raise SpecParseError(f"{self.scheme} needs a PT part in {full!r}")
        expected = 1 << spec.history_length
        if spec.pt_entries != expected:
            raise SpecParseError(
                f"PT size {spec.pt_entries} does not match 2^{spec.history_length}"
                f" = {expected} in {full!r}"
            )

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        ctx.reserve_history(spec)


class _AT(_TwoLevel):
    """Two-Level Adaptive Training: the pattern table's automata learn
    from the execution stream itself."""

    scheme = "AT"

    def validate(self, spec: PredictorSpec, full: str) -> None:
        super().validate(spec, full)
        if spec.pt_automaton is None:
            raise SpecParseError(f"AT pattern table needs an automaton in {full!r}")
        if spec.data_mode is not None:
            raise SpecParseError(f"AT takes no Data field (it never trains) in {full!r}")

    def canonical(self, spec: PredictorSpec) -> str:
        k = spec.history_length
        assert spec.pt_automaton is not None
        return f"AT({_hrt_text(spec, f'{k}SR')},PT(2^{k},{spec.pt_automaton.name}),)"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert spec.history_length is not None and spec.pt_automaton is not None
        return TwoLevelAdaptivePredictor(
            _make_hrt(spec), PatternTable(spec.history_length, spec.pt_automaton)
        )

    def scan_request(self, spec: PredictorSpec, ctx: Any) -> Tuple[Any, Any, Automaton]:
        from repro.sim.sweep import _hrt_token

        # one bucket column per history length: replay depends on the
        # within-bucket trace order, which nested buckets do not share
        token = ("pattern",) + _hrt_token(spec) + (spec.history_length,)
        return token, ctx.namespace(ctx.history(spec)), spec.pt_automaton


class _ST(_TwoLevel):
    """Lee & Smith Static Training: preset pattern bits profiled on the
    Same (execution) or a Diff (Table 3 training) data set."""

    scheme = "ST"

    def validate(self, spec: PredictorSpec, full: str) -> None:
        super().validate(spec, full)
        if spec.pt_automaton is not None:
            raise SpecParseError(f"ST pattern table holds preset bits (PB) in {full!r}")

    def canonical(self, spec: PredictorSpec) -> str:
        k = spec.history_length
        hrt = _hrt_text(spec, f"{k}SR")
        return f"ST({hrt},PT(2^{k},PB),{spec.data_mode or 'Same'})"

    def build(
        self, spec: PredictorSpec, training_records: Optional[Iterable[BranchRecord]] = None
    ) -> ConditionalBranchPredictor:
        assert spec.history_length is not None
        if training_records is None:
            raise SpecParseError(
                f"{spec.canonical()}: Static Training needs training_records to build"
            )
        return StaticTrainingPredictor.trained(
            _make_hrt(spec),
            spec.history_length,
            training_records,
            data_mode=spec.data_mode or "Same",
        )

    def training_role(self, spec: PredictorSpec) -> Optional[str]:
        return "train" if spec.data_mode == "Diff" else "test"

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        # the profiling pass is always IHRT-keyed, whatever the test HRT —
        # reserve that window too (on the training side it is the one read)
        super().reserve(spec, ctx)
        ctx.reserve_history(dataclasses.replace(spec, hrt_kind="IHRT", hrt_entries=None))

    def direct_mask(self, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]) -> Any:
        k = spec.history_length
        assert k is not None
        preset = self.training(spec, trainings).preset_bits(k)
        return preset[ctx.namespace(ctx.history(spec), k)] == ctx.taken_bool


class _LS(_Table2):
    """Lee & Smith BTB designs: one automaton per HRT entry, no pattern
    level."""

    scheme = "LS"

    def validate(self, spec: PredictorSpec, full: str) -> None:
        if spec.hrt_automaton is None:
            raise SpecParseError(f"LS HRT entries must hold an automaton in {full!r}")
        if spec.pt_entries is not None:
            raise SpecParseError(f"LS has no pattern table in {full!r}")
        if spec.data_mode is not None:
            raise SpecParseError(f"LS takes no Data field in {full!r}")

    def canonical(self, spec: PredictorSpec) -> str:
        assert spec.hrt_automaton is not None
        return f"LS({_hrt_text(spec, spec.hrt_automaton.name)},,)"

    def build(
        self, spec: PredictorSpec, training_records: Any = None
    ) -> ConditionalBranchPredictor:
        assert spec.hrt_automaton is not None
        return LeeSmithPredictor(_make_hrt(spec), spec.hrt_automaton)

    def scan_request(self, spec: PredictorSpec, ctx: Any) -> Tuple[Any, Any, Automaton]:
        from repro.sim.sweep import _hrt_token

        return ("keys",) + _hrt_token(spec), ctx.hrt_keys(spec), spec.hrt_automaton


for _family in (_AT(), _ST(), _LS()):
    register(_family)
