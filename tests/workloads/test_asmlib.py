"""Assembly-generation helpers."""

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.workloads._asmlib import (
    aux_phase,
    join_sections,
    lcg_step,
    random_words,
    words_directive,
)


class TestWordsDirective:
    def test_wraps_long_tables(self):
        text = words_directive("t", list(range(30)), per_line=12)
        lines = text.splitlines()
        assert lines[0] == "t:"
        assert len(lines) == 4  # label + 3 data rows
        assert all(line.strip().startswith(".word") for line in lines[1:])

    def test_empty_table_emits_placeholder(self):
        assert words_directive("t", []) == "t: .word 0"

    def test_values_masked(self):
        text = words_directive("t", [-1])
        assert str(0xFFFFFFFF) in text

    def test_assembles(self):
        source = "halt\n.data\n" + words_directive("t", [1, 2, 3])
        program = assemble(source)
        assert dict(program.data)[program.symbols["t"]] == 1


class TestGenerators:
    def test_random_words_deterministic(self):
        assert random_words(5, 10) == random_words(5, 10)


class TestLcgStep:
    def test_implements_the_lcg(self):
        source = join_sections(
            "_start:",
            "    li r4, 12345",
            lcg_step("r4", "r5"),
            "    halt",
        )
        cpu = CPU(assemble(source))
        cpu.run()
        assert cpu.regs[4] == (12345 * 1103515245 + 12345) & 0x7FFFFFFF


class TestAuxPhase:
    def _build(self, n_sites=24, **kwargs):
        init, call, sub = aux_phase(n_sites, seed=3, label_prefix="t", **kwargs)
        source = join_sections(
            "_start:",
            init,
            "driver:",
            call,
            "    br driver",
            sub,
        )
        return assemble(source)

    def test_assembles_and_runs(self):
        program = self._build(call_period_log2=1, groups=4)
        cpu = CPU(program)
        result = cpu.run(max_instructions=50_000)
        assert result.mix.conditional > 100

    def test_all_sites_eventually_visited(self):
        program = self._build(n_sites=32, call_period_log2=0, groups=8)
        cpu = CPU(program)
        result = cpu.run(max_instructions=80_000)
        site_pcs = {
            program.symbols[f"t_s{i}"] - 4 for i in range(32)
        }  # branch sits just before its skip label... conservative: use census
        from repro.trace.stats import static_branch_census

        census = static_branch_census(result.branch_records)
        # every generated site contributes one conditional branch
        group_heads = {program.symbols[f"t_g{g}"] for g in range(8)}
        assert census.static_conditional >= 32

    def test_site_outcomes_deterministic(self):
        first = CPU(self._build()).run(max_instructions=30_000).branch_records
        second = CPU(self._build()).run(max_instructions=30_000).branch_records
        assert first == second

    def test_counter_register_configurable(self):
        init, call, sub = aux_phase(8, seed=1, label_prefix="w", counter_reg="r25")
        assert "r25" in init and "r25" in call
        assert "r28" not in call
