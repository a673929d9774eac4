"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "eqntott" in out
        assert "AT(AHRT(512,12SR),PT(2^12,A2),)" in out


class TestTrace:
    def test_summary(self, capsys):
        assert main(["trace", "eqntott", "--scale", "500"]) == 0
        out = capsys.readouterr().out
        assert "eqntott" in out
        assert "conditional:         500" in out

    def test_writes_trace_file(self, tmp_path, capsys):
        path = tmp_path / "out.trc"
        assert main(["trace", "li", "--scale", "200", "-o", str(path)]) == 0
        assert path.exists()
        from repro.trace.encoding import read_trace

        assert len(read_trace(path)) > 200  # includes unconditional records

    def test_train_dataset(self, capsys):
        assert main(["trace", "li", "--dataset", "train", "--scale", "200"]) == 0
        assert "towers-of-hanoi" in capsys.readouterr().out


class TestSweep:
    def test_sweep_prints_table(self, capsys):
        code = main(
            ["sweep", "BTFN", "AlwaysTaken", "--scale", "1000", "--benchmarks", "li"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BTFN" in out and "AlwaysTaken" in out
        assert "Tot" in out

    def test_bad_spec_reports_error(self, capsys):
        assert main(["sweep", "NOPE(1,2)", "--benchmarks", "li", "--scale", "100"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_with_jobs_matches_serial(self, tmp_path, capsys):
        args = [
            "sweep", "BTFN", "AlwaysTaken",
            "--scale", "1000", "--benchmarks", "li",
            "--cache-dir", str(tmp_path / "traces"),
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial_out
        assert list((tmp_path / "traces").glob("*.shard"))

    def test_sweep_no_cache(self, capsys):
        code = main(
            ["sweep", "BTFN", "--scale", "500", "--benchmarks", "li", "--no-cache"]
        )
        assert code == 0
        assert "BTFN" in capsys.readouterr().out


class TestRun:
    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "PASS" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_fig4_subset(self, capsys):
        assert (
            main(["run", "fig4", "--scale", "2000", "--benchmarks", "li,matrix300"])
            == 0
        )
        assert "fig4" in capsys.readouterr().out


class TestAsm:
    def test_assemble_run_and_trace(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "_start:\n    li r2, 3\nloop:\n    addi r2, r2, -1\n"
            "    bgt r2, r0, loop\n    halt\n"
        )
        trace_path = tmp_path / "out.txt"
        code = main(["asm", str(source), "--run", "--listing", "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "assembled 4 instructions" in out
        assert "halted" in out
        assert trace_path.read_text().startswith("# yptrace-text")

    def test_assembly_error_reported(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("bogus r1, r2\n")
        assert main(["asm", str(source)]) == 2
        assert "unknown mnemonic" in capsys.readouterr().err


class TestDisasm:
    def test_disassembles_workload(self, capsys):
        assert main(["disasm", "matrix300"]) == 0
        out = capsys.readouterr().out
        assert "0x00001000:" in out
        assert "blt" in out


class TestHotBranches:
    def test_hot_report(self, capsys):
        assert main(["trace", "eqntott", "--scale", "1000", "--hot", "3"]) == 0
        out = capsys.readouterr().out
        assert "hottest 3 conditional branch sites" in out
        assert "executions" in out


class TestSweepFormats:
    def test_csv(self, capsys):
        assert main(["sweep", "BTFN", "--scale", "500", "--benchmarks", "li",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme,li,")

    def test_markdown(self, capsys):
        assert main(["sweep", "BTFN", "--scale", "500", "--benchmarks", "li",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| scheme | li |")


class TestLint:
    DIRTY = "\n".join([
        "_start:",
        "    br out",
        "dead:",
        "    addi r2, r2, 1",
        "out:",
        "loop:",
        "    addi r3, r3, 1",
        "    br loop",
    ])

    def test_clean_workload_exits_zero(self, capsys):
        assert main(["lint", "matrix300"]) == 0
        out = capsys.readouterr().out
        assert "matrix300:test: clean" in out

    def test_all_workloads_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "14 program(s): 0 error(s), 0 warning(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        source = tmp_path / "dirty.s"
        source.write_text(self.DIRTY + "\n")
        assert main(["lint", str(source)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out  # dead: unreachable
        assert "R006" in out  # loop never exits
        assert "R008" in out  # no reachable halt

    def test_warnings_alone_exit_zero_unless_strict(self, tmp_path):
        source = tmp_path / "warn.s"
        source.write_text("\n".join([
            "_start:",
            "    br out",
            "dead:",
            "    addi r2, r2, 1",
            "out:",
            "    halt",
        ]) + "\n")
        assert main(["lint", str(source)]) == 0
        assert main(["lint", "--strict", str(source)]) == 1

    def test_explicit_absent_dataset_exits_two(self, capsys):
        # eqntott has no train set: naming it explicitly is a usage error,
        # while the lint-everything default silently skips absent roles.
        assert main(["lint", "eqntott", "--dataset", "train"]) == 2
        assert "has no 'train' dataset" in capsys.readouterr().err
        assert main(["lint", "--dataset", "train"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_assembly_error_exits_two(self, tmp_path, capsys):
        source = tmp_path / "broken.s"
        source.write_text("bogus r1, r2\n")
        assert main(["lint", str(source)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_schema(self, tmp_path, capsys):
        import json

        source = tmp_path / "dirty.s"
        source.write_text(self.DIRTY + "\n")
        assert main(["lint", "--json", str(source)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["exit"] == 1
        assert payload["summary"]["errors"] >= 1
        [entry] = payload["programs"]
        assert entry["program"] == str(source)
        rules = {d["rule"] for d in entry["diagnostics"]}
        assert {"R001", "R006", "R008"} <= rules
        for diagnostic in entry["diagnostics"]:
            assert set(diagnostic) == {
                "rule", "name", "severity", "address", "label", "message"
            }

    def test_json_clean_workload(self, capsys):
        import json

        assert main(["lint", "--json", "matrix300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {
            "programs": 1, "errors": 0, "warnings": 0, "exit": 0
        }
        [entry] = payload["programs"]
        assert entry["diagnostics"] == []

    def test_cross_validate_flag(self, capsys):
        assert main([
            "lint", "matrix300", "--cross-validate", "--scale", "1000"
        ]) == 0
        out = capsys.readouterr().out
        assert "cross-validation" in out


class TestCache:
    def _populate(self, tmp_path, capsys):
        assert main([
            "sweep", "BTFN", "--scale", "300", "--benchmarks", "li",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()

    def test_list_shows_shards_and_bound(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s)" in out
        assert "li-test-300-" in out
        assert "bound" in out

    def test_verify_clean(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out and "ok" in out

    def test_verify_corrupt_exits_one(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        shard = next(tmp_path.glob("*.shard"))
        shard.write_bytes(shard.read_bytes()[:25])
        assert main(["cache", "--cache-dir", str(tmp_path), "--verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_evict_and_clear(self, tmp_path, capsys):
        self._populate(tmp_path, capsys)
        stem = next(tmp_path.glob("*.shard")).name[: -len(".shard")]
        assert main(["cache", "--cache-dir", str(tmp_path), "--evict", stem]) == 0
        assert "evicted" in capsys.readouterr().out
        # evicting it again: no such shard -> exit 1
        assert main(["cache", "--cache-dir", str(tmp_path), "--evict", stem]) == 1
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.shard"))

    def test_disabled_cache_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert main(["cache"]) == 2
        assert "disabled" in capsys.readouterr().err


class TestScaleParsing:
    def test_paper_preset_accepted(self):
        import argparse

        from repro.cli import _scale_arg
        from repro.workloads.base import PAPER_CONDITIONAL_BRANCHES

        assert _scale_arg("paper") == PAPER_CONDITIONAL_BRANCHES
        assert _scale_arg("5000") == 5000
        import pytest

        with pytest.raises(argparse.ArgumentTypeError):
            _scale_arg("huge")
        with pytest.raises(argparse.ArgumentTypeError):
            _scale_arg("0")

    def test_bad_scale_is_usage_error(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "li", "--scale", "nonsense"])
        assert excinfo.value.code == 2
        assert "invalid scale" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "li", "--dataset", "test", "--scale", "-5"],
            ["analyze", "li", "--dataset", "test", "--cross-validate", "--scale", "0"],
            ["lint", "li", "--dataset", "test", "--cross-validate", "--scale", "0"],
        ],
        ids=["analyze", "analyze-cross-validate", "lint-cross-validate"],
    )
    def test_analysis_scale_below_one_is_usage_error(self, argv, capsys):
        """A walk or cross-validation of no branches checks nothing, so
        analyze and lint refuse it like run/sweep/h2p do."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "scale must be >= 1" in capsys.readouterr().err

    def test_analysis_scale_accepts_paper(self):
        from repro.workloads.base import PAPER_CONDITIONAL_BRANCHES

        args = build_parser().parse_args(["analyze", "li", "--scale", "paper"])
        assert args.scale == PAPER_CONDITIONAL_BRANCHES


class TestCountValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "BTFN", "--jobs", "-4"],
            ["trace", "eqntott", "--hot", "-2"],
            ["h2p", "--top", "-1"],
            ["bench-serve", "--sessions", "0"],
            ["bench-serve", "--chunk", "0"],
            ["bench-serve", "--window", "0"],
        ],
        ids=["jobs", "hot", "top", "sessions", "chunk", "window"],
    )
    def test_out_of_range_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_h2p_has_no_jobs(self, capsys):
        """h2p is one fused pass per benchmark: a --jobs it ignored was a
        dead knob, so the parser refuses it."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["h2p", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_boundary_counts_accepted(self):
        args = build_parser().parse_args(["sweep", "BTFN", "--jobs", "0"])
        assert args.jobs == 0
        assert build_parser().parse_args(["trace", "li", "--hot", "0"]).hot == 0
        assert build_parser().parse_args(["h2p", "--top", "1"]).top == 1


class TestH2p:
    @staticmethod
    def _strict_json(text):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        return json.loads(text, parse_constant=reject)

    def test_json_report(self, capsys):
        from repro.experiments.fig11_h2p import SPECS

        main(["h2p", "--benchmarks", "eqntott", "--scale", "4000", "--json", "--no-cache"])
        report = self._strict_json(capsys.readouterr().out)
        assert set(report) == {
            "version", "exp_id", "title", "schemes", "rows", "sites",
            "shape_checks", "notes",
        }
        assert report["exp_id"] == "fig11"
        assert report["schemes"] == list(SPECS)
        assert len(report["rows"]) == len(SPECS)
        assert len(report["sites"]) == 5  # the default --top

    def test_zero_mass_recovery_is_null(self, capsys):
        # matrix300 at this scale has no static H2P site, so AT carries no
        # misprediction mass on them and recovery is undefined
        main(["h2p", "--benchmarks", "matrix300", "--scale", "2000", "--json", "--no-cache"])
        report = self._strict_json(capsys.readouterr().out)
        assert report["rows"]
        assert all(row["recovered vs AT"] is None for row in report["rows"])
