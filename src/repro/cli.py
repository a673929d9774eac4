"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``repro run <exp-id> [--scale N] [--benchmarks a,b,...]`` — regenerate a
  paper table/figure and print it with its shape checks.
* ``repro run all`` — regenerate everything.
* ``repro sweep <spec> [<spec> ...]`` — simulate arbitrary Table 2
  configuration strings over the suite.
* ``repro trace <workload> [--dataset test|train] [--scale N] [-o FILE]`` —
  generate a workload trace (optionally writing the binary trace file).
* ``repro asm <file.s> [--run] [--trace FILE]`` — assemble (and optionally
  execute) an assembly source file on the bundled ISA.
* ``repro disasm <workload>`` — print a workload program's listing.
* ``repro lint [<workload>|<file.s> ...]`` — static analysis (CFG, dataflow,
  rules R001..R008) over workload programs or assembly files; optional
  static-vs-dynamic cross-validation.  See ``docs/analysis.md``.
* ``repro h2p [--top N] [--scale N] [--benchmarks a,b,...]`` — score the
  modern subsystem (perceptron, TAGE) against AT and gshare on the static
  H2P ranking, with per-site misprediction-mass recovery (fig11).
* ``repro serve [--host H] [--port P] [--backend B] ...`` — run the online
  prediction service (sessions over TCP; see ``docs/serving.md``).
* ``repro bench-serve [--sessions N] [--scale N] ...`` — load-test an
  in-process server and write ``BENCH_serve.json``.
* ``repro cache [--verify] [--evict STEM ...] [--clear]`` — inspect and
  manage the on-disk trace store (shards, sizes, hit counts).
* ``repro list`` — list experiments, workloads and example spec strings.

Every ``--scale`` flag accepts an integer conditional-branch cap or the
``paper`` preset (20,000,000 — the paper's per-benchmark simulation length).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, List, Optional

from repro.errors import ReproError
from repro.experiments import experiment_ids, get_experiment
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.disassembler import disassemble_program
from repro.sim.backend import BACKEND_CHOICES, validate_env_backend
from repro.sim.runner import run_sweep
from repro.trace.encoding import write_trace
from repro.trace.text_format import write_text_trace
from repro.trace.stats import conditional_pc_histogram, static_branch_census, taken_rate
from repro.workloads.base import (
    DEFAULT_CONDITIONAL_BRANCHES,
    TraceCache,
    default_cache,
    default_cache_dir,
    get_workload,
    parse_scale,
    workload_names,
)


def _parse_benchmarks(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def _scale_arg(text: str) -> int:
    """argparse type for ``--scale``: an integer or the ``paper`` preset."""
    try:
        return parse_scale(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count_arg(minimum: int) -> Callable[[str], int]:
    """argparse type for a count option: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _finite_or_null(row: dict) -> dict:
    """``row`` with its non-finite floats as ``None``, which JSON writes as null."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in row.items()
    }


def _human_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f}{unit}" if unit != "B" else f"{int(count)}B"
        count /= 1024
    return f"{count:.1f}GiB"  # pragma: no cover - loop always returns


def _build_cache(args: argparse.Namespace) -> TraceCache:
    """The trace cache the command should use.

    ``--no-cache`` forces memory-only, ``--cache-dir`` selects an explicit
    disk directory, otherwise the shared default cache (disk-backed under
    ``~/.cache/repro-traces`` unless ``REPRO_CACHE_DIR`` overrides it).
    """
    if getattr(args, "no_cache", False):
        return TraceCache(disk_dir=None)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return TraceCache(disk_dir=cache_dir)
    return default_cache()


def _cmd_run(args: argparse.Namespace) -> int:
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    benchmarks = _parse_benchmarks(args.benchmarks)
    cache = _build_cache(args)
    failures = 0
    for exp_id in ids:
        spec = get_experiment(exp_id)
        report = spec.run(
            max_conditional=args.scale,
            benchmarks=benchmarks,
            cache=cache,
            jobs=args.jobs,
            backend=args.backend,
        )
        print(report.render())
        print()
        failures += len(report.failures())
    if failures:
        print(f"{failures} shape check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep = run_sweep(
        args.specs,
        benchmarks=_parse_benchmarks(args.benchmarks),
        max_conditional=args.scale,
        cache=_build_cache(args),
        jobs=args.jobs,
        backend=args.backend,
    )
    if args.format != "table":
        from repro.sim.export import sweep_to_csv, sweep_to_markdown

        renderer = sweep_to_csv if args.format == "csv" else sweep_to_markdown
        print(renderer(sweep), end="" if args.format == "csv" else "\n")
        return 0
    benchmarks = sweep.benchmarks()
    header = f"{'scheme':42s}" + "".join(f"{name[:8]:>10s}" for name in benchmarks)
    header += f"{'Tot':>8s}{'Int':>8s}{'FP':>8s}"
    print(header)
    for scheme in sweep.schemes():
        accuracies = sweep.accuracies(scheme)
        cells = "".join(
            (f"{accuracies[name]:10.4f}" if name in accuracies else f"{'--':>10s}")
            for name in benchmarks
        )
        print(
            f"{scheme:42s}{cells}"
            f"{sweep.mean(scheme):8.4f}"
            f"{sweep.mean(scheme, 'integer'):8.4f}"
            f"{sweep.mean(scheme, 'fp'):8.4f}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    # through the cache, so the expensive generation lands in (or warm-loads
    # from) the shard store — `repro trace X --scale paper` is the documented
    # way to pre-pay a paper-scale trace once per machine
    trace = _build_cache(args).get(workload, args.dataset, args.scale)
    mix = trace.mix
    census = static_branch_census(trace.records)
    print(f"workload:            {workload.name} [{workload.category}]")
    print(f"data set:            {workload.dataset(args.dataset).name}")
    print(f"instructions:        {mix.total_instructions}")
    print(f"branches:            {mix.total_branches} ({100 * mix.branch_fraction:.1f}%)")
    print(f"conditional:         {mix.conditional}")
    print(f"taken rate:          {100 * taken_rate(trace.records):.1f}%")
    print(f"static conditional:  {census.static_conditional}")
    if args.hot:
        histogram = conditional_pc_histogram(trace.records)
        total = sum(histogram.values())
        print(f"\nhottest {args.hot} conditional branch sites:")
        for pc in sorted(histogram, key=histogram.__getitem__, reverse=True)[: args.hot]:
            share = histogram[pc] / total
            print(f"  {pc:#010x}  {histogram[pc]:>8d} executions  ({share:6.2%})")
    if args.output:
        writer = write_text_trace if args.output.endswith(".txt") else write_trace
        count = writer(trace.records, args.output)
        print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    with open(args.source) as handle:
        source = handle.read()
    program = assemble(source)
    print(f"assembled {len(program)} instructions, {len(program.data)} data words")
    if args.listing:
        print(disassemble_program(program))
    if args.run or args.trace:
        cpu = CPU(program)
        result = cpu.run(
            max_instructions=args.max_instructions,
            max_conditional_branches=args.scale,
        )
        mix = result.mix
        print(f"executed {result.instructions_executed} instructions"
              f" ({'halted' if result.halted else 'limit reached'})")
        print(f"branches: {mix.total_branches} ({mix.conditional} conditional)")
        records = result.branch_records
        print(f"taken rate: {100 * taken_rate(records):.1f}%")
        if args.trace:
            writer = write_text_trace if args.trace.endswith(".txt") else write_trace
            count = writer(records, args.trace)
            print(f"wrote {count} records to {args.trace}")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    program = assemble(workload.build_source(workload.dataset(args.dataset)))
    print(disassemble_program(program))
    return 0


def _lint_targets(args: argparse.Namespace) -> "List[tuple[str, str, object]]":
    """Resolve lint targets to ``(display_name, kind, payload)`` triples.

    ``kind`` is ``"workload"`` (payload: ``(workload, dataset)``) or
    ``"file"`` (payload: source text).  No targets means every workload.
    """
    from repro.errors import ReproError as _ReproError

    targets = args.targets or workload_names()
    resolved: "List[tuple[str, str, object]]" = []
    for target in targets:
        if target.endswith(".s") or "/" in target:
            try:
                with open(target) as handle:
                    resolved.append((target, "file", handle.read()))
            except OSError as exc:
                raise _ReproError(f"cannot read {target}: {exc}") from exc
            continue
        workload = get_workload(target)
        roles = sorted(workload.datasets) if args.dataset == "both" else [args.dataset]
        for role in roles:
            if role not in workload.datasets:
                # Listing every workload tolerates absent roles (e.g. most
                # have no train set); naming one explicitly does not.
                if args.targets:
                    raise _ReproError(
                        f"workload '{workload.name}' has no '{role}' dataset"
                        f" (available: {sorted(workload.datasets)})"
                    )
                continue
            resolved.append(
                (f"{workload.name}:{role}", "workload", (workload, workload.dataset(role)))
            )
    return resolved


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import cross_validate, lint_program, lint_source

    reports = []
    worst = 0
    for display, kind, payload in _lint_targets(args):
        if kind == "file":
            result = lint_source(payload, name=display)
            crossval = None
        else:
            workload, dataset = payload
            program = assemble(workload.build_source(dataset))
            result = lint_program(program, name=display)
            crossval = None
            if args.cross_validate:
                trace = workload.generate(dataset, args.scale)
                crossval = cross_validate(program, trace.records, name=display)
        entry = result.as_dict()
        if crossval is not None:
            entry["cross_validation"] = crossval.as_dict()
        reports.append(entry)

        failing = bool(result.errors) or (args.strict and result.diagnostics)
        if crossval is not None and not crossval.ok:
            failing = True
        worst = max(worst, 1 if failing else 0)

        if not args.json:
            if result.clean:
                status = f"clean ({len(result.cfg.blocks)} blocks, {len(result.cfg.edges)} edges)"
            else:
                status = f"{len(result.errors)} error(s), {len(result.warnings)} warning(s)"
            print(f"{display}: {status}")
            for diagnostic in result.diagnostics:
                print(f"  {diagnostic.render()}")
            if crossval is not None:
                verdict = "agrees" if crossval.ok else "DISAGREES"
                print(
                    f"  cross-validation: {verdict} "
                    f"({crossval.observed_static}/{crossval.static_total} static sites "
                    f"observed; BTFN {crossval.static_btfn_correct}"
                    f"/{crossval.btfn_total} analytic vs "
                    f"{crossval.simulated_btfn_correct} simulated)"
                )
                for mismatch in crossval.mismatches:
                    print(f"    {mismatch}")

    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "programs": reports,
                    "summary": {
                        "programs": len(reports),
                        "errors": sum(r["errors"] for r in reports),
                        "warnings": sum(r["warnings"] for r in reports),
                        "exit": worst,
                    },
                },
                indent=2,
            )
        )
    elif len(reports) > 1:
        errors = sum(r["errors"] for r in reports)
        warnings = sum(r["warnings"] for r in reports)
        print(f"{len(reports)} program(s): {errors} error(s), {warnings} warning(s)")
    return worst


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_program, validate_predictability

    reports = []
    worst = 0
    for display, kind, payload in _lint_targets(args):
        if kind == "file":
            program = assemble(payload)
            workload = dataset = None
        else:
            workload, dataset = payload
            program = assemble(workload.build_source(dataset))
        report = analyze_program(program, args.scale, name=display)
        validation = None
        if args.cross_validate and workload is not None:
            trace = workload.generate(dataset, args.scale)
            validation = validate_predictability(
                program,
                trace.records,
                args.scale,
                name=display,
                report=report,
            )
            if not validation.ok:
                worst = max(worst, 1)

        entry = report.as_dict()
        if validation is not None:
            entry["cross_validation"] = validation.as_dict()
        reports.append(entry)

        if not args.json:
            counts = report.class_counts
            walk = (
                "complete walk"
                if report.walk_complete
                else f"partial walk ({report.walk_stop_reason})"
            )
            print(
                f"{display}: {walk}, {report.known_conditionals} conditionals, "
                f"{len(report.sites)} sites — "
                + ", ".join(f"{n} {cls}" for cls, n in counts.items())
            )
            known_trips = [
                s for s in report.loops if s.trip_count is not None
            ]
            if known_trips:
                sample = ", ".join(
                    f"{s.header:#x}:{s.trip_count}" for s in known_trips[:4]
                )
                print(
                    f"  loops with known trip counts: {len(known_trips)}"
                    f" ({sample}{', ...' if len(known_trips) > 4 else ''})"
                )
            h2p = report.h2p_ranking()[:5]
            if h2p:
                print(
                    "  H2P top-5 ("
                    + report.reference_scheme
                    + " mass): "
                    + ", ".join(f"{pc:#x}({mass})" for pc, mass in h2p)
                )
            if validation is not None:
                verdict = "agrees" if validation.ok else "DISAGREES"
                print(
                    f"  cross-validation: {verdict} "
                    f"({validation.sites_checked} sites x "
                    f"{validation.schemes_checked} schemes)"
                )
                for mismatch in validation.mismatches[:20]:
                    print(f"    {mismatch}")

    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "programs": reports,
                    "summary": {
                        "programs": len(reports),
                        "cross_validated": sum(
                            1 for r in reports if "cross_validation" in r
                        ),
                        "exit": worst,
                    },
                },
                indent=2,
            )
        )
    elif len(reports) > 1:
        sites = sum(len(r["sites"]) for r in reports)
        print(f"{len(reports)} program(s), {sites} conditional site(s) analyzed")
    return worst


def _cmd_h2p(args: argparse.Namespace) -> int:
    from repro.experiments.fig11_h2p import SPECS, run as run_fig11, site_table

    benchmarks = _parse_benchmarks(args.benchmarks)
    cache = _build_cache(args)
    report = run_fig11(
        max_conditional=args.scale,
        benchmarks=benchmarks,
        cache=cache,
        backend=args.backend,
        top=args.top,
    )
    sites = site_table(
        max_conditional=args.scale,
        benchmarks=benchmarks,
        cache=cache,
        backend=args.backend,
        top=args.top,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "exp_id": report.exp_id,
                    "title": report.title,
                    "schemes": list(SPECS),
                    "rows": [_finite_or_null(row) for row in report.rows],
                    "sites": sites,
                    "shape_checks": [
                        {
                            "description": check.description,
                            "passed": check.passed,
                            "detail": check.detail,
                        }
                        for check in report.shape_checks
                    ],
                    "notes": report.notes,
                },
                indent=2,
                allow_nan=False,
            )
        )
    else:
        print(report.render())
        if sites:
            from repro.experiments.reporting import render_table

            print("\nPer-site mispredictions (static H2P ranking):")
            print(render_table(sites))
    if not report.all_passed:
        print(
            f"{len(report.failures())} shape check(s) FAILED", file=sys.stderr
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import PredictionServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_connections=args.max_connections,
        max_frame_bytes=args.max_frame_bytes,
        read_timeout=args.read_timeout,
        drain_timeout=args.drain_timeout,
    )

    if args.workers > 1:
        import signal as signal_module

        from repro.serve.supervisor import Supervisor

        supervisor = Supervisor(config, workers=args.workers)
        supervisor.start()
        print(
            f"repro serve: listening on {supervisor.host}:{supervisor.port}"
            f" across {args.workers} workers"
            f" ({'SO_REUSEPORT' if supervisor.reuseport else 'inherited socket'},"
            f" backend={args.backend or 'auto'},"
            f" stats endpoint on port {supervisor.control_port})"
        )
        print("protocol: docs/serving.md; stop with SIGTERM/Ctrl-C (graceful drain)")
        holder: dict = {}

        def _drain(_signum: int, _frame: object) -> None:
            holder["final"] = supervisor.stop(drain=True)

        signal_module.signal(signal_module.SIGTERM, _drain)
        signal_module.signal(signal_module.SIGINT, _drain)
        supervisor.join()
        final = (holder.get("final") or supervisor.stop())["aggregate"]
        print(
            f"drained: {final['sessions_total']} session(s),"
            f" {final['records_served']} records served"
            f" across {args.workers} worker(s)"
        )
        return 0

    async def _main() -> None:
        server = PredictionServer(config)
        await server.start()
        server.install_signal_handlers()
        print(
            f"repro serve: listening on {server.host}:{server.port}"
            f" (backend={args.backend or 'auto'},"
            f" max_connections={config.max_connections},"
            f" read_timeout={config.read_timeout:g}s)"
        )
        print("protocol: docs/serving.md; stop with SIGTERM/Ctrl-C (graceful drain)")
        await server.wait_closed()
        final = server.stats.as_dict()
        print(
            f"drained: {final['sessions_total']} session(s),"
            f" {final['records_served']} records served"
        )

    asyncio.run(_main())
    return 0


def _compact_bench_sessions(sessions: list) -> list:
    """Group identical per-session bench entries so BENCH_serve.json stays
    readable when thousands of sessions ran."""
    groups: dict = {}
    for session in sessions:
        key = (session["spec"], session["variant"], session["backend"])
        group = groups.setdefault(
            key,
            {
                "spec": session["spec"],
                "variant": session["variant"],
                "backend": session["backend"],
                "sessions": 0,
                "records": 0,
                "frames": 0,
                "accuracy": session["accuracy"],
                "p50_ms": [],
                "p99_ms": [],
            },
        )
        group["sessions"] += 1
        group["records"] += session["records"]
        group["frames"] += session["frames"]
        group["p50_ms"].append(session["latency"]["p50_ms"])
        group["p99_ms"].append(session["latency"]["p99_ms"])
    compacted = []
    for group in groups.values():
        p50s, p99s = sorted(group.pop("p50_ms")), sorted(group.pop("p99_ms"))
        group["latency"] = {
            "p50_ms_median": p50s[len(p50s) // 2],
            "p99_ms_median": p99s[len(p99s) // 2],
            "p99_ms_max": p99s[-1],
        }
        compacted.append(group)
    return compacted


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import (
        DEFAULT_BENCH_BENCHMARKS,
        DEFAULT_BENCH_SPECS,
        bench_serve,
    )

    specs = args.specs or list(DEFAULT_BENCH_SPECS)
    benchmarks = _parse_benchmarks(args.benchmarks) or list(DEFAULT_BENCH_BENCHMARKS)
    result = bench_serve(
        specs=specs,
        benchmarks=benchmarks,
        sessions=args.sessions,
        scale=args.scale,
        chunk=args.chunk,
        window=args.window,
        backend=args.backend if args.backend != "auto" else None,
        verify=not args.no_verify,
        cache=_build_cache(args),
        connections=args.connections,
        workers=args.workers,
    )

    import datetime

    entry = {"date": datetime.date.today().isoformat(), **result}
    if len(entry["sessions"]) > 16:
        entry["sessions"] = _compact_bench_sessions(entry["sessions"])
    entries: list = []
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict) and isinstance(existing.get("entries"), list):
            entries = existing["entries"]
    entries.append(entry)
    with open(args.output, "w") as handle:
        json.dump({"entries": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")

    totals = result["totals"]
    latency = totals["latency"]
    print(
        f"bench-serve: {args.sessions} session(s) over"
        f" {result['config']['connections']} connection(s),"
        f" {args.workers} worker(s): {totals['records']} records in"
        f" {totals['wall_seconds']:.3f}s = {totals['records_per_sec']:.0f} records/s"
    )
    print(
        f"latency per frame: p50 {latency['p50_ms']:.2f} ms,"
        f" p99 {latency['p99_ms']:.2f} ms over {latency['frames']} frames"
        f" (parity: {totals['parity']})"
    )
    shown = result["sessions"][:16]
    for session in shown:
        print(
            f"  {session['spec']:38s} {session['variant']:14s}"
            f" [{session['backend']}] acc={session['accuracy']:.4f}"
            f" {session['records_per_sec']:>9.0f} rec/s"
        )
    if len(result["sessions"]) > len(shown):
        print(f"  ... and {len(result['sessions']) - len(shown)} more session(s)")
    print(f"appended to {args.output} ({len(entries)} trend entries)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect / manage the shard store behind the disk trace cache.

    The sweep-result cache (:mod:`repro.sim.result_cache`) lives in
    ``results/`` under the same root and is managed here too: the default
    listing shows its rows, ``--evict`` accepts result digests alongside
    shard stems, and ``--clear`` wipes both.
    """
    from repro.sim.result_cache import ResultCache
    from repro.trace.store import TraceStore

    root = args.cache_dir or default_cache_dir()
    if root is None:
        print(
            "error: the disk trace cache is disabled"
            " (REPRO_CACHE_DIR is set but empty)",
            file=sys.stderr,
        )
        return 2
    store = TraceStore(root)
    results = ResultCache(store.root / "results")
    if args.clear:
        removed = store.clear()
        removed_rows = results.clear()
        print(
            f"cleared {removed} shard(s) and {removed_rows} cached"
            f" sweep result(s) from {store.root}"
        )
        return 0
    if args.evict:
        removed = store.evict(args.evict)
        for stem in removed:
            print(f"evicted {stem}")
        missing = []
        for stem in args.evict:
            if stem in removed:
                continue
            if results.evict(stem):
                print(f"evicted result {stem}")
            else:
                missing.append(stem)
        for stem in missing:
            print(f"no such shard or result: {stem}", file=sys.stderr)
        return 1 if missing else 0
    if args.verify:
        verified = store.verify()
        corrupt = 0
        for stem, error in verified:
            if error is None:
                print(f"ok       {stem}")
            else:
                corrupt += 1
                print(f"CORRUPT  {stem}: {error}")
        print(f"{len(verified)} shard(s), {corrupt} corrupt")
        return 1 if corrupt else 0
    infos = store.entries()
    total = sum(info.bytes for info in infos)
    print(f"trace store: {store.root}")
    print(
        f"{len(infos)} shard(s), {_human_bytes(total)} used"
        f" of {_human_bytes(store.max_bytes)} bound"
    )
    if infos:
        print(f"\n{'shard':52s}{'size':>10s}{'records':>12s}{'comp':>6s}{'hits':>6s}")
        for info in sorted(infos, key=lambda i: i.last_used, reverse=True):
            print(
                f"{info.stem:52s}{_human_bytes(info.bytes):>10s}"
                f"{info.records:>12d}{info.compression:>6s}{info.hits:>6d}"
            )
    rows = list(results.entries())
    if rows:
        row_bytes = sum(entry.size_bytes for entry in rows)
        print(
            f"\n{len(rows)} cached sweep result(s),"
            f" {_human_bytes(row_bytes)} (digest / spec @ test trace)"
        )
        for entry in rows:
            print(f"  {entry.digest}  [{entry.backend}] {entry.spec} @ {entry.test_stem}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    print("Experiments:")
    for exp_id in experiment_ids():
        spec = get_experiment(exp_id)
        print(f"  {exp_id:8s} {spec.paper_ref:22s} {spec.title}")
    print("\nWorkloads:")
    for name in workload_names():
        workload = get_workload(name)
        roles = ", ".join(sorted(workload.datasets))
        print(f"  {name:10s} [{workload.category:7s}] data sets: {roles}")
    print("\nExample predictor specs:")
    for example in (
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "ST(IHRT(,12SR),PT(2^12,PB),Diff)",
        "LS(AHRT(512,A2),,)",
        "BTFN",
        "gshare(12)",
        "perceptron(12,512)",
        "tage(4,9)",
    ):
        print(f"  {example}")
    print(
        "\nStatic analysis: repro lint [workload|file.s ...]"
        " (rules R001..R011; see docs/analysis.md)"
    )
    print(
        "Predictability: repro analyze [workload|file.s ...] (classes,"
        " per-scheme bounds, H2P ranking; --cross-validate checks them"
        " against the simulator)"
    )
    print(
        "Modern schemes: repro h2p (perceptron/TAGE vs AT on the static"
        " H2P sites; see docs/predictors.md)"
    )
    print(
        "Serving: repro serve (online prediction sessions over TCP) and"
        " repro bench-serve (load test + BENCH_serve.json); see docs/serving.md"
    )
    return 0


def _add_perf_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the sweep-running subcommands (run, sweep)."""
    parser.add_argument(
        "--jobs", type=_count_arg(0), default=1, metavar="N",
        help="worker processes for the sweep grid (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="simulation backend: vectorized NumPy kernels, the pure-Python"
             " scalar engine, or auto-detect (results are identical)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="disk trace-cache directory (default: ~/.cache/repro-traces,"
             " or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the disk trace cache (keep traces in memory only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Yeh & Patt's Two-Level Adaptive Training (MICRO 1991)",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="regenerate a paper table/figure")
    run_parser.add_argument("experiment", help="experiment id (fig3..fig10, table1, table2) or 'all'")
    run_parser.add_argument(
        "--scale",
        type=_scale_arg,
        default=DEFAULT_CONDITIONAL_BRANCHES,
        help="conditional branches simulated per benchmark, or 'paper'"
             " for the paper's 20,000,000",
    )
    run_parser.add_argument("--benchmarks", help="comma-separated workload subset")
    _add_perf_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="simulate arbitrary predictor specs")
    sweep_parser.add_argument("specs", nargs="+", help="Table 2 configuration strings")
    sweep_parser.add_argument(
        "--scale", type=_scale_arg, default=DEFAULT_CONDITIONAL_BRANCHES,
        help="conditional branches per benchmark, or 'paper' (20,000,000)",
    )
    sweep_parser.add_argument("--benchmarks", help="comma-separated workload subset")
    sweep_parser.add_argument(
        "--format", choices=("table", "csv", "markdown"), default="table",
        help="output format",
    )
    _add_perf_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    trace_parser = sub.add_parser("trace", help="generate a workload trace")
    trace_parser.add_argument("workload", choices=workload_names())
    trace_parser.add_argument("--dataset", default="test", choices=("test", "train"))
    trace_parser.add_argument("--scale", type=_scale_arg, default=DEFAULT_CONDITIONAL_BRANCHES)
    trace_parser.add_argument(
        "--hot", type=_count_arg(0), default=0, metavar="N",
        help="also print the N hottest conditional branch sites",
    )
    trace_parser.add_argument(
        "-o", "--output",
        help="write the trace to this path (binary; .txt selects the text format)",
    )
    trace_parser.add_argument("--cache-dir", metavar="PATH")
    trace_parser.add_argument("--no-cache", action="store_true")
    trace_parser.set_defaults(func=_cmd_trace)

    asm_parser = sub.add_parser("asm", help="assemble (and run) an assembly file")
    asm_parser.add_argument("source", help="assembly source file")
    asm_parser.add_argument("--run", action="store_true", help="execute after assembling")
    asm_parser.add_argument("--listing", action="store_true", help="print the disassembly")
    asm_parser.add_argument("--trace", help="run and write the branch trace here")
    asm_parser.add_argument("--scale", type=int, default=None,
                            help="stop after this many conditional branches")
    asm_parser.add_argument("--max-instructions", type=int, default=1_000_000)
    asm_parser.set_defaults(func=_cmd_asm)

    disasm_parser = sub.add_parser("disasm", help="disassemble a workload program")
    disasm_parser.add_argument("workload", choices=workload_names())
    disasm_parser.add_argument("--dataset", default="test", choices=("test", "train"))
    disasm_parser.set_defaults(func=_cmd_disasm)

    lint_parser = sub.add_parser(
        "lint", help="statically analyze workload programs or assembly files"
    )
    lint_parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="workload names and/or assembly file paths (default: all workloads)",
    )
    lint_parser.add_argument(
        "--dataset", default="both", choices=("both", "test", "train"),
        help="which data set(s) of each workload to lint",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit the JSON report (schema in docs/analysis.md)"
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    lint_parser.add_argument(
        "--cross-validate", action="store_true",
        help="also execute each workload and check the static tables against the trace",
    )
    lint_parser.add_argument(
        "--scale", type=int, default=20_000,
        help="conditional branches to simulate per program for --cross-validate",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    analyze_parser = sub.add_parser(
        "analyze",
        help="static branch-predictability analysis (classes, bounds, H2P)",
    )
    analyze_parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="workload names and/or assembly file paths (default: all workloads)",
    )
    analyze_parser.add_argument(
        "--dataset", default="both", choices=("both", "test", "train"),
        help="which data set(s) of each workload to analyze",
    )
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the JSON report (schema in docs/analysis.md)",
    )
    analyze_parser.add_argument(
        "--cross-validate", action="store_true",
        help="also simulate each workload and check every per-site per-scheme"
             " bound and the H2P ranking against the trace",
    )
    analyze_parser.add_argument(
        "--scale", type=int, default=20_000,
        help="conditional branches the analysis (and --cross-validate trace)"
             " covers per program",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    h2p_parser = sub.add_parser(
        "h2p",
        help="modern schemes (perceptron, TAGE) vs AT on the static H2P sites",
    )
    h2p_parser.add_argument("--benchmarks", help="comma-separated workload subset")
    h2p_parser.add_argument(
        "--scale", type=_scale_arg, default=DEFAULT_CONDITIONAL_BRANCHES,
        help="conditional branches per benchmark, or 'paper' (20,000,000)",
    )
    h2p_parser.add_argument(
        "--top", type=_count_arg(1), default=5,
        help="number of top static H2P sites to score per benchmark",
    )
    h2p_parser.add_argument(
        "--json", action="store_true",
        help="emit the full report (rows, per-site table, shape checks) as JSON",
    )
    _add_perf_options(h2p_parser)
    h2p_parser.set_defaults(func=_cmd_h2p)

    serve_parser = sub.add_parser(
        "serve", help="run the online prediction service (docs/serving.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=9797, help="TCP port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None,
        help="default backend for sessions that do not request one",
    )
    serve_parser.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="reject connections beyond this many concurrent sessions",
    )
    serve_parser.add_argument(
        "--max-frame-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="drop sessions that send a larger frame",
    )
    serve_parser.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="SECONDS",
        help="drop sessions idle longer than this mid-stream",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="grace period for in-flight sessions on SIGTERM",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pre-fork N worker processes sharing the port (SO_REUSEPORT)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    bench_serve_parser = sub.add_parser(
        "bench-serve",
        help="load-test an in-process prediction server, write BENCH_serve.json",
    )
    bench_serve_parser.add_argument(
        "--sessions", type=_count_arg(1), default=4, metavar="N",
        help="concurrent predictor sessions",
    )
    bench_serve_parser.add_argument(
        "--specs", nargs="*", metavar="SPEC",
        help="predictor specs cycled across sessions (default: AT + BTFN)",
    )
    bench_serve_parser.add_argument(
        "--benchmarks", help="comma-separated workload subset (default: eqntott,tomcatv)"
    )
    bench_serve_parser.add_argument(
        "--scale", type=_scale_arg, default=20_000,
        help="conditional branches per workload trace (or 'paper')",
    )
    bench_serve_parser.add_argument(
        "--chunk", type=_count_arg(1), default=512, metavar="RECORDS",
        help="records per RECORDS frame",
    )
    bench_serve_parser.add_argument(
        "--window", type=_count_arg(1), default=4, metavar="FRAMES",
        help="frames each session keeps in flight (pipelining)",
    )
    bench_serve_parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="backend requested by every session",
    )
    bench_serve_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the served-vs-offline parity check",
    )
    bench_serve_parser.add_argument(
        "--connections", type=int, default=None, metavar="N",
        help="multiplex all sessions over N connections"
        " (default: one connection per session)",
    )
    bench_serve_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve from a pre-fork pool of N worker processes",
    )
    bench_serve_parser.add_argument(
        "-o", "--output", default="BENCH_serve.json", help="result JSON path"
    )
    bench_serve_parser.add_argument("--cache-dir", metavar="PATH")
    bench_serve_parser.add_argument("--no-cache", action="store_true")
    bench_serve_parser.set_defaults(func=_cmd_bench_serve)

    cache_parser = sub.add_parser(
        "cache", help="inspect and manage the on-disk trace store"
    )
    cache_parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="store root (default: ~/.cache/repro-traces, or $REPRO_CACHE_DIR)",
    )
    cache_parser.add_argument(
        "--evict", nargs="+", metavar="STEM", help="delete the named shard(s)"
    )
    cache_parser.add_argument(
        "--clear", action="store_true", help="delete every shard"
    )
    cache_parser.add_argument(
        "--verify", action="store_true",
        help="fully read every shard, reporting corruption (typed errors)",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    list_parser = sub.add_parser("list", help="list experiments and workloads")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_env_backend()
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
