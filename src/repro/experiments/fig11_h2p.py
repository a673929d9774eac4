"""Figure 11 (repo extension): modern schemes on the hard-to-predict sites.

Lin & Tarsa's observation — a handful of static H2P branches carries most
of the remaining misprediction mass — and the Bullseye approach of
attacking exactly those sites motivate the first result in this repo the
1991 paper could not produce: take the *static* H2P ranking
(:func:`repro.analysis.predictability.analyze_program`, the PR-8
cross-validated pipeline), then score the paper's Two-Level Adaptive
Training against gshare and the modern subsystem (perceptron, TAGE) on
the top-N H2P sites and overall.  The reported ``recovered`` column is
per-site *misprediction-mass recovery*: the fraction of AT's mispredictions
on the H2P sites that a scheme eliminates (negative = it loses mass).

The analysis bounds only the reference scheme its ranking reads.  Every
per-site map, those bounds included, is scored on the requested backend
(:func:`repro.sim.analysis.per_site_scores`); a parity
shape-check additionally scores the modern schemes on the scalar engine
and asserts the totals agree, so `repro h2p` doubles as an end-to-end
vector/scalar parity gate in CI.

The report (:func:`run`) and the site table (:func:`site_table`) share one
pass per benchmark per :class:`TraceCache`: the static analysis and the
per-site maps are computed once and kept only as long as that cache lives.
The analysis reads its deterministic walk off the cached test trace
(:meth:`~repro.analysis.absint.WalkResult.of_trace`), so a benchmark runs
on the CPU once, or not at all when the trace store is warm.  ``repro
analyze`` and cross-validation walk on their own, which keeps the static
side independent where it is checked against the trace.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence

from repro.experiments.reporting import ExperimentReport, ShapeCheck
from repro.isa.assembler import assemble
from repro.predictors.spec import parse_spec
from repro.sim.results import geometric_mean
from repro.workloads.base import (
    DEFAULT_CONDITIONAL_BRANCHES,
    TraceCache,
    get_workload,
    workload_names,
)

#: the 1991 baseline (ideal-HRT AT, the repo's reference two-level spec),
#: the classic global-history comparator, and the modern subsystem.
AT_SPEC = "AT(IHRT(,12SR),PT(2^12,A2),)"
GSHARE_SPEC = "gshare(12)"
PERCEPTRON_SPEC = "perceptron(12,512)"
TAGE_SPEC = "tage(4,9)"
SPECS = (AT_SPEC, GSHARE_SPEC, PERCEPTRON_SPEC, TAGE_SPEC)
MODERN_SPECS = (PERCEPTRON_SPEC, TAGE_SPEC)

DEFAULT_TOP = 5


#: per-cache memo of :func:`_benchmark_pass`; an entry dies with its cache
_PASSES: "weakref.WeakKeyDictionary[TraceCache, dict]" = weakref.WeakKeyDictionary()


def _benchmark_pass(name: str, max_conditional: int, cache: TraceCache, backend: str):
    """(static report, test trace, per-site (correct, total) maps of SPECS)
    for one benchmark, computed once per cache on ``backend``."""
    memo = _PASSES.setdefault(cache, {})
    key = (name, max_conditional, backend)
    if key not in memo:
        import repro.sim.analysis as sim_analysis
        from repro.analysis import WalkResult, analyze_program
        from repro.analysis.predictability import ANALYSIS_SCHEMES, REFERENCE_SCHEME

        # the H2P ranking reads the reference scheme's bounds and nothing
        # else; SPECS are scored on the trace itself below
        reference = [s for s in ANALYSIS_SCHEMES if s.name == REFERENCE_SCHEME]
        workload = get_workload(name)
        program = assemble(workload.build_source(workload.dataset("test")))
        # the test trace is the walk of its budget: one CPU run serves both
        trace = cache.get(workload, "test", max_conditional)
        packed = trace.packed()
        static = analyze_program(
            program,
            max_conditional,
            name=name,
            schemes=reference,
            backend=backend,
            walk=WalkResult.of_trace(packed, trace.mix, max_conditional),
        )
        maps = sim_analysis.per_site_scores(SPECS, packed, backend)
        memo[key] = (static, trace, maps)
    return memo[key]


def run(
    max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
    benchmarks: Optional[Sequence[str]] = None,
    cache: Optional[TraceCache] = None,
    jobs: int = 1,
    backend: str = "auto",
    top: int = DEFAULT_TOP,
) -> ExperimentReport:
    from repro.sim.kernels import score_spec

    del jobs  # one fused pass per benchmark; nothing to farm out
    names = list(benchmarks) if benchmarks else workload_names()
    cache = cache or TraceCache()

    rows = []
    missing_h2p = []
    zero_mass = []
    parity_failures = []
    modern_wins = []
    overall: Dict[str, list] = {text: [] for text in SPECS}

    for name in names:
        static, trace, maps = _benchmark_pass(name, max_conditional, cache, backend)
        h2p_sites = static.h2p_top(top)
        if not h2p_sites:
            missing_h2p.append(name)

        # vector/scalar parity on the modern schemes: the per-site pipeline
        # must reproduce the scalar engine's totals exactly
        packed = trace.packed()
        for text in MODERN_SPECS:
            per_site = maps[text]
            total_correct = sum(correct for correct, _ in per_site.values())
            scalar = score_spec(parse_spec(text), packed, backend="scalar")
            if total_correct != scalar.conditional_correct:
                parity_failures.append(
                    f"{name}/{text}: per-site {total_correct}"
                    f" != scalar {scalar.conditional_correct}"
                )

        at_map = maps[AT_SPEC]
        at_mass = sum(
            at_map[pc][1] - at_map[pc][0] for pc in h2p_sites if pc in at_map
        )
        if h2p_sites and at_mass == 0:
            zero_mass.append(name)
        for text in SPECS:
            per_site = maps[text]
            correct = sum(c for c, _ in per_site.values())
            total = sum(n for _, n in per_site.values())
            mass = sum(
                per_site[pc][1] - per_site[pc][0]
                for pc in h2p_sites
                if pc in per_site
            )
            recovered = (
                (at_mass - mass) / at_mass if at_mass else float("nan")
            )
            if text in MODERN_SPECS and at_mass and mass < at_mass:
                modern_wins.append((name, text))
            overall[text].append(correct / total if total else 0.0)
            rows.append(
                {
                    "benchmark": name,
                    "scheme": text,
                    "accuracy": correct / total if total else 0.0,
                    "h2p sites": len(h2p_sites),
                    "h2p miss": mass,
                    "recovered vs AT": recovered,
                }
            )
    checks = [
        ShapeCheck(
            "every benchmark has static H2P sites",
            not missing_h2p,
            f"missing: {missing_h2p}" if missing_h2p else f"{len(names)} benchmarks",
        ),
        ShapeCheck(
            "the static top-N carries AT misprediction mass",
            not zero_mass,
            f"zero-mass: {zero_mass}" if zero_mass else "mass > 0 everywhere",
        ),
        ShapeCheck(
            "a modern scheme beats AT(IHRT) on H2P mass on >= 1 benchmark",
            bool(modern_wins),
            ", ".join(f"{b}:{s}" for b, s in modern_wins[:6]) or "none",
        ),
        ShapeCheck(
            "per-site pipeline matches the scalar engine (modern schemes)",
            not parity_failures,
            "; ".join(parity_failures[:4]) or "bit-exact",
        ),
    ]

    geo = {text: geometric_mean(values) for text, values in overall.items()}
    notes = "overall geometric means: " + "  ".join(
        f"{text}={geo[text]:.4f}" for text in SPECS
    )
    return ExperimentReport(
        exp_id="fig11",
        title=f"Modern schemes vs AT on the top-{top} static H2P sites",
        rows=rows,
        shape_checks=checks,
        notes=notes,
    )


def site_table(
    max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
    benchmarks: Optional[Sequence[str]] = None,
    cache: Optional[TraceCache] = None,
    backend: str = "auto",
    top: int = DEFAULT_TOP,
) -> list:
    """Per-H2P-site misprediction counts (the `repro h2p` detail table)."""
    names = list(benchmarks) if benchmarks else workload_names()
    cache = cache or TraceCache()
    rows = []
    for name in names:
        static, _trace, maps = _benchmark_pass(name, max_conditional, cache, backend)
        h2p_sites = static.h2p_top(top)
        for rank, pc in enumerate(h2p_sites, start=1):
            row = {"benchmark": name, "rank": rank, "pc": f"{pc:#x}"}
            for text in SPECS:
                correct, total = maps[text].get(pc, (0, 0))
                row[text] = total - correct
            rows.append(row)
    return rows
