"""Table 2 naming-convention parser: grammar, build, round-trip, errors."""

import pytest

from repro.errors import SpecParseError
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.extensions import GAgPredictor, GSharePredictor
from repro.predictors.hrt import AHRT, HHRT, IHRT
from repro.predictors.spec import parse_spec
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BTFNPredictor,
    ProfilePredictor,
)
from repro.predictors.static_training import StaticTrainingPredictor
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.trace.synthetic import periodic_branch

TRAIN = list(periodic_branch([True, False], 50))


class TestParseAT:
    def test_full_form(self):
        spec = parse_spec("AT(AHRT(512,12SR),PT(2^12,A2),)")
        assert spec.scheme == "AT"
        assert spec.hrt_kind == "AHRT"
        assert spec.hrt_entries == 512
        assert spec.history_length == 12
        assert spec.pt_entries == 4096
        assert spec.pt_automaton.name == "A2"

    def test_decimal_pt_size(self):
        assert parse_spec("AT(AHRT(512,12SR),PT(4096,A2))").pt_entries == 4096

    def test_ihrt_empty_size(self):
        spec = parse_spec("AT(IHRT(,12SR),PT(2^12,A2),)")
        assert spec.hrt_kind == "IHRT"
        assert spec.hrt_entries is None

    def test_whitespace_tolerant(self):
        spec = parse_spec("  AT( AHRT( 512 , 12SR ) , PT( 2^12 , A2 ) , ) ")
        assert spec.canonical() == "AT(AHRT(512,12SR),PT(2^12,A2),)"

    def test_build_types(self):
        at = parse_spec("AT(AHRT(512,12SR),PT(2^12,A2),)").build()
        assert isinstance(at, TwoLevelAdaptivePredictor)
        assert isinstance(at.hrt, AHRT)
        hh = parse_spec("AT(HHRT(256,8SR),PT(2^8,A3),)").build()
        assert isinstance(hh.hrt, HHRT)


class TestParseST:
    def test_same_and_diff(self):
        same = parse_spec("ST(IHRT(,12SR),PT(2^12,PB),Same)")
        diff = parse_spec("ST(AHRT(512,12SR),PT(2^12,PB),Diff)")
        assert same.data_mode == "Same"
        assert diff.data_mode == "Diff"

    def test_build_requires_training(self):
        spec = parse_spec("ST(IHRT(,6SR),PT(2^6,PB),Same)")
        with pytest.raises(SpecParseError, match="training"):
            spec.build()
        predictor = spec.build(training_records=TRAIN)
        assert isinstance(predictor, StaticTrainingPredictor)

    def test_st_rejects_automaton_pattern_table(self):
        with pytest.raises(SpecParseError):
            parse_spec("ST(IHRT(,12SR),PT(2^12,A2),Same)")


class TestParseLS:
    def test_forms(self):
        spec = parse_spec("LS(AHRT(512,A2),,)")
        assert spec.scheme == "LS"
        assert spec.hrt_automaton.name == "A2"
        assert spec.pt_entries is None
        predictor = spec.build()
        assert isinstance(predictor, LeeSmithPredictor)

    def test_last_time(self):
        assert parse_spec("LS(IHRT(,LT),,)").hrt_automaton.name == "LT"

    def test_ls_rejects_pattern_table(self):
        with pytest.raises(SpecParseError):
            parse_spec("LS(AHRT(512,A2),PT(2^12,A2),)")

    def test_ls_rejects_data_field(self):
        with pytest.raises(SpecParseError):
            parse_spec("LS(AHRT(512,A2),,Same)")


class TestSimpleSchemes:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("AlwaysTaken", AlwaysTaken),
            ("Taken", AlwaysTaken),
            ("AlwaysNotTaken", AlwaysNotTaken),
            ("BTFN", BTFNPredictor),
            ("btfn", BTFNPredictor),
        ],
    )
    def test_bare_names(self, text, cls):
        assert isinstance(parse_spec(text).build(), cls)

    def test_profile_needs_training(self):
        spec = parse_spec("Profile")
        with pytest.raises(SpecParseError):
            spec.build()
        assert isinstance(spec.build(training_records=TRAIN), ProfilePredictor)

    def test_extensions(self):
        gag = parse_spec("GAg(10)").build()
        assert isinstance(gag, GAgPredictor)
        gshare = parse_spec("gshare(12,A3)").build()
        assert isinstance(gshare, GSharePredictor)
        assert gshare.pattern_table.automaton.name == "A3"


class TestParseModern:
    def test_perceptron(self):
        from repro.predictors.modern import PerceptronPredictor

        spec = parse_spec("perceptron(12,512)")
        assert spec.scheme == "Perceptron"
        assert spec.history_length == 12
        assert spec.rows == 512
        assert isinstance(spec.build(), PerceptronPredictor)

    def test_perceptron_default_rows(self):
        from repro.predictors.modern import DEFAULT_ROWS

        spec = parse_spec("perceptron(8)")
        assert spec.rows == DEFAULT_ROWS
        assert spec.canonical() == f"perceptron(8,{DEFAULT_ROWS})"

    def test_tage(self):
        from repro.predictors.modern import TagePredictor, tage_geometries

        spec = parse_spec("tage(4,9)")
        assert spec.scheme == "TAGE"
        assert spec.tage_tables == 4
        assert spec.tage_entry_bits == 9
        # history_length doubles as the longest geometric table length
        assert spec.history_length == tage_geometries(4)[-1] == 32
        assert isinstance(spec.build(), TagePredictor)

    def test_tage_default_entry_bits(self):
        from repro.predictors.modern import DEFAULT_ENTRY_BITS

        spec = parse_spec("tage(2)")
        assert spec.canonical() == f"tage(2,{DEFAULT_ENTRY_BITS})"

    def test_case_and_whitespace_tolerant(self):
        assert parse_spec(" Perceptron( 12 , 512 ) ").canonical() == "perceptron(12,512)"
        assert parse_spec("TAGE(4,9)").canonical() == "tage(4,9)"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "XX(AHRT(512,12SR),PT(2^12,A2),)",
            "AT(ZHRT(512,12SR),PT(2^12,A2),)",
            "AT(AHRT(512,12SR))",
            "AT(AHRT(512,A2),PT(2^12,A2),)",  # AT needs kSR history
            "AT(AHRT(512,12SR),PT(2^10,A2),)",  # PT size mismatch
            "AT(AHRT(512,12SR),PT(2^12,A9),)",  # unknown automaton
            "AT(IHRT(99,12SR),PT(2^12,A2),)",  # IHRT takes no size
            "ST(IHRT(,12SR),PT(2^12,PB),Sometimes)",
            "AT(AHRT(abc,12SR),PT(2^12,A2),)",
            "AT(AHRT(512,12SR),PT(2^12,A2)",  # unbalanced paren
            "perceptron(0)",  # history length out of range
            "perceptron(63)",  # beyond MAX_HISTORY
            "perceptron(12,0)",  # rows must be >= 1
            "tage(0)",  # at least one tagged table
            "tage(5)",  # beyond MAX_TABLES
            "tage(4,0)",  # entry bits out of range
            "tage(4,17)",
            "GAg(0,A2)",  # history length out of range
            "gshare(25,A2)",
            "gshare(70,A2)",
            "AT(IHRT(,0SR),PT(2^0,A2),)",
            "AT(IHRT(,40SR),PT(2^40,A2),)",
            "ST(AHRT(512,25SR),PT(2^25,PB),Same)",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)


class TestCanonicalRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "AT(AHRT(512,12SR),PT(2^12,A2),)",
            "AT(HHRT(256,10SR),PT(2^10,A4),)",
            "AT(IHRT(,6SR),PT(2^6,LT),)",
            "ST(AHRT(512,12SR),PT(2^12,PB),Diff)",
            "LS(HHRT(512,LT),,)",
            "LS(IHRT(,A2),,)",
            "BTFN",
            "GAg(8,A2)",
            "perceptron(12,512)",
            "tage(4,9)",
        ],
    )
    def test_canonical_fixed_point(self, text):
        canonical = parse_spec(text).canonical()
        assert parse_spec(canonical).canonical() == canonical
