"""Property tests over the Table 2 spec grammar: every generatable valid
configuration parses, builds, and reaches a canonical fixed point."""

from hypothesis import given, settings, strategies as st

from repro.predictors.spec import parse_spec
from tests.synthetic import periodic_branch

_TRAIN = list(periodic_branch([True, False], 30))

_K = st.sampled_from([2, 4, 6, 8, 10, 12])
_ENTRIES = st.sampled_from([4, 16, 64, 256, 512])
_AUTOMATON = st.sampled_from(["A1", "A2", "A3", "A4", "LT"])


@st.composite
def _hrt_part(draw, content: str) -> str:
    kind = draw(st.sampled_from(["IHRT", "AHRT", "HHRT"]))
    if kind == "IHRT":
        return f"IHRT(,{content})"
    return f"{kind}({draw(_ENTRIES)},{content})"


@st.composite
def _at_spec(draw) -> str:
    k = draw(_K)
    hrt = draw(_hrt_part(f"{k}SR"))
    automaton = draw(_AUTOMATON)
    size = draw(st.sampled_from([f"2^{k}", str(1 << k)]))
    trailing = draw(st.sampled_from(["", ","]))
    return f"AT({hrt},PT({size},{automaton}){trailing})"


@st.composite
def _st_spec(draw) -> str:
    k = draw(_K)
    hrt = draw(_hrt_part(f"{k}SR"))
    mode = draw(st.sampled_from(["Same", "Diff"]))
    return f"ST({hrt},PT(2^{k},PB),{mode})"


@st.composite
def _ls_spec(draw) -> str:
    hrt = draw(_hrt_part(draw(_AUTOMATON)))
    return f"LS({hrt},,)"


_ANY_SPEC = st.one_of(_at_spec(), _st_spec(), _ls_spec())


class TestSpecGrammarProperties:
    @given(_ANY_SPEC)
    @settings(max_examples=80, deadline=None)
    def test_parse_build_canonical_fixpoint(self, text):
        spec = parse_spec(text)
        predictor = spec.build(training_records=_TRAIN)
        assert predictor is not None
        canonical = spec.canonical()
        assert parse_spec(canonical).canonical() == canonical

    @given(_ANY_SPEC)
    @settings(max_examples=40, deadline=None)
    def test_whitespace_insensitive(self, text):
        spaced = text.replace(",", " , ").replace("(", "( ")
        assert parse_spec(spaced).canonical() == parse_spec(text).canonical()

    @given(_at_spec())
    @settings(max_examples=40, deadline=None)
    def test_built_predictor_predicts_booleans(self, text):
        predictor = parse_spec(text).build()
        prediction = predictor.predict(0x1000, 0x2000)
        assert isinstance(prediction, bool)
        predictor.update(0x1000, 0x2000, True)
