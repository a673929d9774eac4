"""Post-paper variants: the global-history extensions (GAg, gshare), the
per-address corners (PAp, PAs) and the tournament chooser."""

import pytest

from repro.errors import ConfigError
from repro.predictors.base import measure_accuracy
from repro.predictors.extensions import GAgPredictor, GSharePredictor
from repro.predictors.families.per_address import PerAddressPredictor
from repro.predictors.spec import parse_spec
from tests.synthetic import interleaved, periodic_branch


class TestGAg:
    def test_learns_single_branch_pattern(self):
        predictor = GAgPredictor(8)
        trace = list(periodic_branch([True, False, False], 400))
        measure_accuracy(predictor, trace[:600])
        assert measure_accuracy(predictor, trace[600:]) > 0.95

    def test_global_history_sees_cross_branch_correlation(self):
        # branch B's outcome equals branch A's previous outcome: global
        # history captures it even though B alone looks random-ish
        trace = list(interleaved([(0x10, [True, False]), (0x20, [True, False])], 500))
        predictor = GAgPredictor(8)
        measure_accuracy(predictor, trace[:600])
        assert measure_accuracy(predictor, trace[600:]) > 0.95

    def test_reset(self):
        predictor = GAgPredictor(6)
        trace = list(periodic_branch([False], 100))
        measure_accuracy(predictor, trace)
        predictor.reset()
        assert predictor.predict(0x10, 0x20) is True

    def test_name(self):
        assert GAgPredictor(10).name == "GAg(10,A2)"


class TestGShare:
    def test_learns_patterns(self):
        predictor = GSharePredictor(10)
        trace = list(periodic_branch([True, True, False], 500))
        measure_accuracy(predictor, trace[:800])
        assert measure_accuracy(predictor, trace[800:]) > 0.95

    def test_xor_separates_aliased_branches(self):
        """Two branches with opposite fixed behaviour: GAg aliases them into
        one history stream's table entries; gshare's address XOR separates
        the table indices."""
        trace = list(interleaved([(0x50, [True]), (0x98, [False])], 600))
        gshare = GSharePredictor(10)
        measure_accuracy(gshare, trace[:400])
        assert measure_accuracy(gshare, trace[400:]) > 0.95

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            GSharePredictor(0)

    def test_name(self):
        assert GSharePredictor(12).name == "gshare(12,A2)"


class TestPAp:
    def test_learns_per_branch_patterns_without_interference(self):
        predictor = parse_spec("PAp(8)").build()
        trace = list(interleaved([(0x10, [True, False]), (0x20, [False, True])], 400))
        measure_accuracy(predictor, trace[:400])
        assert measure_accuracy(predictor, trace[400:]) == 1.0

    def test_beats_or_matches_shared_table_on_aliasing_patterns(self):
        """Two branches whose histories collide in one shared PT but whose
        next outcomes differ: PAp separates them, PAg suffers."""
        from repro.predictors.automata import A2
        from repro.predictors.hrt import IHRT
        from repro.predictors.pattern_table import PatternTable
        from repro.predictors.two_level import TwoLevelAdaptivePredictor

        # with 3-bit histories, window TFT continues with F for the
        # alternating branch but with T for the period-3 branch — a genuine
        # shared-entry conflict that PAp's private tables avoid
        trace = list(
            interleaved([(0x10, [True, False]),
                         (0x20, [True, True, False])], 600)
        )
        pap = parse_spec("PAp(3)").build()
        pag = TwoLevelAdaptivePredictor(IHRT(), PatternTable(3, A2))
        measure_accuracy(pap, trace[:400])
        measure_accuracy(pag, trace[:400])
        pap_accuracy = measure_accuracy(pap, trace[400:])
        pag_accuracy = measure_accuracy(pag, trace[400:])
        assert pap_accuracy > pag_accuracy

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            PerAddressPredictor(0)
        with pytest.raises(ConfigError):
            parse_spec("PAp(0)")

    def test_reset_and_name(self):
        predictor = parse_spec("PAp(6)").build()
        predictor.update(0x10, 0x20, False)
        predictor.reset()
        assert predictor.predict(0x10, 0x20) is True
        assert predictor.name == "PAp(6,A2)"


class TestTournament:
    def _make(self):
        from repro.predictors.automata import A2
        from repro.predictors.extensions import TournamentPredictor
        from repro.predictors.hrt import IHRT
        from repro.predictors.pattern_table import PatternTable
        from repro.predictors.two_level import TwoLevelAdaptivePredictor
        from repro.predictors.btb import LeeSmithPredictor

        return TournamentPredictor(
            TwoLevelAdaptivePredictor(IHRT(), PatternTable(8, A2)),
            LeeSmithPredictor(IHRT(), A2),
        )

    def test_tracks_best_component_per_branch(self):
        """A branch that alternates (two-level wins) interleaved with a
        biased-random branch (counter as good): the tournament should land
        near the better component on each."""

        tournament = self._make()
        alternating = list(periodic_branch([True, False], 800, pc=0x100))
        accuracy = measure_accuracy(tournament, alternating[400:])
        assert accuracy > 0.95  # picked the two-level side

    def test_chooser_entries_validated(self):
        from repro.predictors.extensions import TournamentPredictor
        from repro.predictors.static_schemes import AlwaysTaken

        with pytest.raises(ConfigError):
            TournamentPredictor(AlwaysTaken(), AlwaysTaken(), chooser_entries=0)

    def test_reset_resets_components(self):
        tournament = self._make()
        for _ in range(20):
            tournament.update(0x10, 0x20, False)
        tournament.reset()
        assert tournament.predict(0x10, 0x20) is True

    def test_name(self):
        tournament = self._make()
        assert tournament.name.startswith("Tournament(")


class TestPAs:
    def test_sits_between_pag_and_pap_structurally(self):
        """PAp gives every branch its own table; PAs folds branches into
        ``sets`` tables by word address."""
        pcs = range(0x10, 0x50, 4)
        pas = parse_spec("PAs(6,4)").build()
        pap = parse_spec("PAp(6)").build()
        assert {pas.table(pc) for pc in pcs} == {0, 1, 2, 3}
        assert len({pap.table(pc) for pc in pcs}) == len(pcs)

    def test_learns_patterns(self):
        predictor = parse_spec("PAs(8,8)").build()
        trace = list(periodic_branch([True, False, False], 400))
        measure_accuracy(predictor, trace[:600])
        assert measure_accuracy(predictor, trace[600:]) > 0.99

    def test_sets_isolate_conflicting_branches(self):
        """The PAg-conflicting pair (TFT window) lands in different set
        tables when the set count separates their addresses."""
        from repro.predictors.automata import A2
        from repro.predictors.hrt import IHRT
        from repro.predictors.pattern_table import PatternTable
        from repro.predictors.two_level import TwoLevelAdaptivePredictor

        trace = list(
            interleaved([(0x10, [True, False]), (0x14, [True, True, False])], 600)
        )
        pas = parse_spec("PAs(3,2)").build()  # 0x10 -> set 0, 0x14 -> set 1
        pag = TwoLevelAdaptivePredictor(IHRT(), PatternTable(3, A2))
        measure_accuracy(pas, trace[:400])
        measure_accuracy(pag, trace[:400])
        assert measure_accuracy(pas, trace[400:]) > measure_accuracy(pag, trace[400:])

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerAddressPredictor(0, sets=4)
        with pytest.raises(ConfigError):
            PerAddressPredictor(4, sets=0)
        with pytest.raises(ConfigError):
            parse_spec("PAs(4,0)")

    def test_reset_and_name(self):
        predictor = parse_spec("PAs(5,4)").build()
        predictor.update(0x10, 0, False)
        predictor.reset()
        assert predictor.predict(0x10, 0) is True
        assert predictor.name == "PAs(5,4,A2)"

    def test_one_set_is_the_papers_global_table(self, program_trace):
        """PAs with one set is PAg: the paper's AT over an ideal HRT."""
        from repro.sim.engine import simulate

        pas = simulate(parse_spec("PAs(6,1,A3)").build(), program_trace)
        at = simulate(parse_spec("AT(IHRT(,6SR),PT(2^6,A3),)").build(), program_trace)
        assert pas == at


class TestPerAddressStorage:
    """Storage follows the patterns a trace reaches, not ``tables x 2^k``:
    a table per branch at k = 24 would be 2^24 entries for each of gcc's
    2,292 conditional sites."""

    @pytest.mark.parametrize("spec_text", ["PAp(24,A2)", "PAs(24,1000000,A2)"])
    def test_widest_tables_score_a_gcc_slice_in_little_memory(self, spec_text, trace_cache):
        import tracemalloc

        from repro.sim.backend import has_numpy
        from repro.sim.kernels import score_spec
        from repro.workloads.base import get_workload

        packed = trace_cache.get(get_workload("gcc"), "test", 2_000).packed()
        spec = parse_spec(spec_text)
        scores = []
        for backend in ["scalar", "vector"] if has_numpy() else ["scalar"]:
            score_spec(parse_spec("PAp(1)"), packed, backend=backend)  # imports
            tracemalloc.start()
            try:
                scores.append(score_spec(spec, packed, backend=backend))
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20, f"{backend}: peak {peak} bytes"
        assert scores[0].conditional_total == 2_000
        assert all(score == scores[0] for score in scores)

