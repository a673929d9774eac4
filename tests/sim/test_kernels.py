"""Vectorized kernels: bit-exactness vs the scalar engine, backend dispatch.

The property tests replay randomly generated conditional traces through both
backends for every spec family; the integration tests cover all
fourteen workload variants (nine testing + five training data sets).  When
NumPy is absent the vector-side tests skip and the resolution tests assert
the documented degradation instead.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, KernelError, SpecParseError
from repro.predictors.spec import parse_spec
from repro.sim import analysis
from repro.sim.backend import (
    BACKEND_CHOICES,
    default_backend,
    has_numpy,
    resolve_backend,
)
from repro.sim.engine import simulate
from repro.sim.kernels import score_spec
from repro.sim.sweep import fused_per_site
from repro.sim.runner import SweepRunner
from repro.sim.streaming import make_multi_scorer
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord
from repro.workloads.base import get_workload, workload_names

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

#: every spec family (stateless, per-address FSM, two-level AT,
#: profiled ST, global-history extensions), plus assorted automata/lengths.
VECTOR_SPECS = [
    "AlwaysTaken",
    "AlwaysNotTaken",
    "BTFN",
    "Profile",
    "LS(IHRT(,LT),,)",
    "LS(IHRT(,A1),,)",
    "LS(IHRT(,A2),,)",
    "AT(IHRT(,2SR),PT(2^2,A2),)",
    "AT(IHRT(,6SR),PT(2^6,A3),)",
    "AT(IHRT(,8SR),PT(2^8,A4),)",
    "ST(IHRT(,4SR),PT(2^4,PB),Same)",
    "GAg(6,A2)",
    "gshare(8,A2)",
]

#: modern subsystem (repro.predictors.modern): the perceptron's recipe, which
#: drives one scalar predictor per session, and TAGE's columnar-hash +
#: sequential-state walk.  The degenerate geometries matter: perceptron(4,1)
#: forces every branch onto one weight vector (maximal aliasing), tage(1,3)
#: has a single tiny tagged table so allocation constantly evicts.
MODERN_SPECS = [
    "perceptron(12,512)",
    "perceptron(4,1)",
    "perceptron(20,64)",
    "tage(4,9)",
    "tage(2,5)",
    "tage(1,3)",
]
VECTOR_SPECS = VECTOR_SPECS + MODERN_SPECS

#: the per-address corners, which drive one scalar predictor per session
#: like the perceptron: private tables (PAp), and per-set tables where one
#: set puts every branch in one table (PAs(4,1,..), PAg by another name)
PER_ADDRESS_SPECS = [
    "PAp(6,A2)",
    "PAp(3,LT)",
    "PAs(6,4,A2)",
    "PAs(4,1,A3)",
]
VECTOR_SPECS = VECTOR_SPECS + PER_ADDRESS_SPECS

#: finite-HRT specs — vectorized by remapping each record to its *register*
#: key (LRU replay for AHRT, hash re-keying for HHRT) before the bucket
#: replay.  The tiny tables matter: with the six-pc record pool, AHRT(4,..)
#: is one four-way set so traces touching all six pcs must evict (payload
#: inheritance), and HHRT(4,..) folds six pcs onto four buckets (collision
#: interference).
FINITE_HRT_SPECS = [
    "AT(AHRT(512,6SR),PT(2^6,A2),)",
    "AT(AHRT(4,6SR),PT(2^6,A2),)",
    "AT(HHRT(512,6SR),PT(2^6,A2),)",
    "AT(HHRT(4,6SR),PT(2^6,A2),)",
    "LS(AHRT(256,A2),,)",
    "LS(AHRT(4,A2),,)",
    "LS(HHRT(256,A2),,)",
    "LS(HHRT(4,A2),,)",
    "ST(AHRT(512,8SR),PT(2^8,PB),Same)",
    "ST(AHRT(4,8SR),PT(2^8,PB),Same)",
    "ST(HHRT(512,8SR),PT(2^8,PB),Same)",
    "ST(HHRT(4,8SR),PT(2^8,PB),Same)",
]

ALL_SPECS = VECTOR_SPECS + FINITE_HRT_SPECS

#: small pc pool so random traces revisit branches (exercises bucket replay).
_COND_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.sampled_from([0x1000, 0x1004, 0x1008, 0x100C, 0x2000, 0x2004]),
        cls=st.just(BranchClass.CONDITIONAL),
        taken=st.booleans(),
        target=st.integers(0, 0xFFFFFFFF),
        is_call=st.just(False),
    ),
    max_size=120,
)


def _scalar_stats(spec, packed, training_records=None):
    predictor = spec.build(training_records=training_records)
    return simulate(predictor, packed)


@needs_numpy
class TestKernelProperty:
    """Kernel == scalar engine on arbitrary conditional traces."""

    @pytest.mark.parametrize("spec_text", ALL_SPECS)
    @given(records=_COND_RECORDS)
    @settings(deadline=None, max_examples=30)
    def test_stats_match_scalar(self, spec_text, records):
        spec = parse_spec(spec_text)
        packed = pack_records(records)
        expected = _scalar_stats(spec, packed, training_records=records)
        got = score_spec(spec, packed, "vector", training=packed)
        assert got == expected

    @given(records=_COND_RECORDS)
    @settings(deadline=None, max_examples=20)
    def test_per_site_accuracy_matches(self, records):
        spec = parse_spec("AT(IHRT(,4SR),PT(2^4,A2),)")
        packed = pack_records(records)
        expected = analysis.per_site_accuracy_many({"": spec.build()}, records)[""]
        assert fused_per_site([spec], packed)[0] == expected


@needs_numpy
class TestKernelWorkloads:
    """Bit-exactness on every workload variant the repo ships."""

    #: one spec per kernel shape: two-level FSM, per-address FSM, stateless,
    #: and the two modern decompositions (row-bucketed perceptron, TAGE).
    PROBE_SPECS = [
        "AT(IHRT(,6SR),PT(2^6,A2),)",
        "LS(IHRT(,LT),,)",
        "BTFN",
        "perceptron(12,512)",
        "tage(4,9)",
    ]

    def _variants(self):
        for name in workload_names():
            yield name, "test"
            if get_workload(name).has_training_set:
                yield name, "train"

    def test_all_fourteen_variants(self, trace_cache, small_scale):
        variants = list(self._variants())
        assert len(variants) == 14
        for name, role in variants:
            trace = trace_cache.get(get_workload(name), role, small_scale)
            packed = trace.packed()
            for spec_text in self.PROBE_SPECS:
                spec = parse_spec(spec_text)
                assert score_spec(spec, packed, "vector") == _scalar_stats(
                    spec, packed
                ), f"{spec_text} diverged on {name}/{role}"

    def test_full_spec_list_on_eqntott(self, eqntott_trace):
        packed = eqntott_trace.packed()
        records = eqntott_trace.records
        for spec_text in ALL_SPECS:
            spec = parse_spec(spec_text)
            expected = _scalar_stats(spec, packed, training_records=records)
            assert score_spec(spec, packed, "vector", training=packed) == expected, spec_text

    def test_runner_backends_agree(self, trace_cache, small_scale):
        scalar = SweepRunner(
            ["eqntott"], small_scale, trace_cache, backend="scalar"
        )
        vector = SweepRunner(
            ["eqntott"], small_scale, trace_cache, backend="vector"
        )
        for spec_text in ("AT(IHRT(,8SR),PT(2^8,A2),)", "Profile", "gshare(8,A2)"):
            assert (
                scalar.run_one(spec_text, "eqntott").stats
                == vector.run_one(spec_text, "eqntott").stats
            ), spec_text


class TestBackendDispatch:
    """Every registry family has a vector kernel; a scheme without one is
    an error on the vector backend, never a silent scalar fallback."""

    @needs_numpy
    @pytest.mark.parametrize("spec_text", ALL_SPECS)
    def test_vectorizable(self, spec_text):
        """The fused kernel compiles the spec and scores a fixed trace
        exactly as the scalar engine does."""
        spec = parse_spec(spec_text)
        pcs = [0x1000, 0x1004, 0x1008, 0x100C, 0x2000, 0x2004]
        records = [
            BranchRecord(
                pc=pcs[i % len(pcs)],
                cls=BranchClass.CONDITIONAL,
                taken=bool((i * 7) % 3),
                target=0x800 if i % 2 else 0x3000,
            )
            for i in range(60)
        ]
        packed = pack_records(records)
        assert score_spec(
            spec, packed, "vector", training=packed
        ) == _scalar_stats(spec, packed, training_records=records)

    @needs_numpy
    def test_unknown_scheme_raises(self, eqntott_trace):
        fake = parse_spec("BTFN")
        object.__setattr__(fake, "scheme", "FutureScheme")
        with pytest.raises(KernelError):
            score_spec(fake, eqntott_trace.packed(), backend="vector")

    @needs_numpy
    def test_finite_hrt_runner_backends_agree(self, trace_cache, small_scale):
        """Explicit scalar and vector requests on AHRT/HHRT specs now both
        execute (no silent fallback) and score bit-identically."""
        scalar = SweepRunner(
            ["eqntott"], small_scale, trace_cache, backend="scalar"
        )
        vector = SweepRunner(
            ["eqntott"], small_scale, trace_cache, backend="vector"
        )
        for spec_text in FINITE_HRT_SPECS[:2] + FINITE_HRT_SPECS[-2:]:
            assert (
                scalar.run_one(spec_text, "eqntott").stats
                == vector.run_one(spec_text, "eqntott").stats
            ), spec_text

    @pytest.mark.parametrize("backend", ["scalar", "vector"] if has_numpy() else ["scalar"])
    @pytest.mark.parametrize(
        "spec_text",
        ["GAg(0,A2)", "gshare(30,A2)", "gshare(70,A2)", "AT(IHRT(,40SR),PT(2^40,A2),)"],
    )
    def test_out_of_range_history_rejected(self, spec_text, backend, trace_cache):
        """k outside 1..24 fails at parse time, before either backend can
        score it differently or allocate a 2^k table."""
        runner = SweepRunner(["li"], 300, trace_cache, backend=backend)
        with pytest.raises(SpecParseError, match="history length"):
            runner.run_one(spec_text, "li")
        with pytest.raises(SpecParseError, match="history length"):
            make_multi_scorer(spec_text, backend)

    @needs_numpy
    def test_ahrt_geometry_validated(self, eqntott_trace):
        # associativity (default 4) must divide entries
        with pytest.raises(ConfigError):
            score_spec(
                parse_spec("AT(AHRT(6,4SR),PT(2^4,A2),)"), eqntott_trace.packed(), "vector"
            )


class TestBackendResolution:
    def test_choices(self):
        assert BACKEND_CHOICES == ("auto", "scalar", "vector")

    def test_scalar_always_resolves(self):
        assert resolve_backend("scalar") == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend("simd")

    def test_auto_matches_numpy_presence(self):
        assert resolve_backend("auto") == ("vector" if has_numpy() else "scalar")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert default_backend() == "scalar"
        assert resolve_backend(None) == "scalar"
        monkeypatch.setenv("REPRO_BACKEND", "nonsense")
        # fail fast on a typo'd environment rather than silently using auto
        with pytest.raises(ConfigError, match="REPRO_BACKEND"):
            default_backend()

    def test_without_numpy(self, monkeypatch):
        """Simulate a NumPy-less interpreter: auto degrades, explicit vector
        errors, and score_spec still produces scalar results."""
        from repro.sim import backend as backend_mod

        monkeypatch.setattr(backend_mod, "_NUMPY", None)
        monkeypatch.setattr(backend_mod, "_NUMPY_CHECKED", True)
        assert not has_numpy()
        assert resolve_backend("auto") == "scalar"
        with pytest.raises(ConfigError):
            resolve_backend("vector")
        spec = parse_spec("BTFN")
        records = [
            BranchRecord(
                pc=0x1000, cls=BranchClass.CONDITIONAL, taken=True, target=0x800
            )
        ] * 5
        packed = pack_records(records)
        stats = score_spec(spec, packed, backend="auto")
        assert stats == _scalar_stats(spec, packed)
