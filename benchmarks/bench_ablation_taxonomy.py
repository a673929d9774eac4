"""Ablation (future work): the two-level predictor taxonomy.

Runs the organisational corners later literature named — PAp (private
pattern tables), PAs (per-set tables), the paper's PAg, gshare, GAg —
plus a McFarling tournament of the paper's scheme with a counter table,
over the full suite.

Expected shape: the per-address family beats the global family on this
suite (PAg > gshare >= GAg); PAp eliminates pattern interference but pays
per-branch warm-up that shared tables amortise, so at reduced trace scale
it lands at or slightly below PAg (their order crosses as traces lengthen),
with PAs's per-set tables in between; the tournament must not fall meaningfully below its best component.
"""

from repro.predictors.automata import A2
from repro.predictors.btb import LeeSmithPredictor
from repro.predictors.extensions import TournamentPredictor
from repro.predictors.hrt import AHRT
from repro.predictors.pattern_table import PatternTable
from repro.predictors.spec import parse_spec
from repro.predictors.two_level import TwoLevelAdaptivePredictor
from repro.sim.engine import simulate
from repro.sim.results import geometric_mean
from repro.workloads.base import get_workload, workload_names


def _suite_mean(cache, scale, factory) -> float:
    accuracies = []
    for name in workload_names():
        records = cache.get(get_workload(name), "test", scale).records
        accuracies.append(simulate(factory(), records).accuracy)
    return geometric_mean(accuracies)


def test_ablation_taxonomy(benchmark, bench_scale, bench_cache):
    scale = min(bench_scale, 30_000)
    factories = {
        "PAp(12,A2) [ideal]": lambda: parse_spec("PAp(12,A2)").build(),
        "PAs(12,16,A2)": lambda: parse_spec("PAs(12,16,A2)").build(),
        "PAg = AT(IHRT,12SR,A2)": lambda: parse_spec(
            "AT(IHRT(,12SR),PT(2^12,A2),)"
        ).build(),
        "gshare(12,A2)": lambda: parse_spec("gshare(12)").build(),
        "GAg(12,A2)": lambda: parse_spec("GAg(12)").build(),
        "Tournament(AT,LS)": lambda: TournamentPredictor(
            TwoLevelAdaptivePredictor(AHRT(512), PatternTable(12, A2)),
            LeeSmithPredictor(AHRT(512), A2),
        ),
        "AT(AHRT512) component": lambda: parse_spec(
            "AT(AHRT(512,12SR),PT(2^12,A2),)"
        ).build(),
    }

    def run():
        return {label: _suite_mean(bench_cache, scale, factory)
                for label, factory in factories.items()}

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label, mean in means.items():
        print(f"{label:28s} {mean:.4f}")

    assert means["PAp(12,A2) [ideal]"] >= means["PAg = AT(IHRT,12SR,A2)"] - 0.02
    assert means["PAg = AT(IHRT,12SR,A2)"] > means["GAg(12,A2)"]
    assert means["gshare(12,A2)"] >= means["GAg(12,A2)"] - 0.002
    assert means["Tournament(AT,LS)"] >= means["AT(AHRT512) component"] - 0.01
