"""The analysis report when the deterministic walk stops early.

Every bundled workload's walk is complete, so the golden reports never
reach the partial-walk bounds: each site's known stream replayed alone,
exact for self-contained schemes on exact streams and ``[0, n]`` with the
replay as its estimate otherwise.  This program's walk hits its step cap,
and its report digest was recorded from a known-good build.
"""

import hashlib
import json

from repro.analysis import ANALYSIS_SCHEMES, analyze_program
from repro.isa.assembler import assemble

#: a nested loop, then a spin with no conditional branch in it
PROGRAM = """
_start:
    li r2, 7
    li r4, 0
outer:
    li r3, 3
inner:
    subi r3, r3, 1
    bnez r3, inner
    andi r5, r2, 1
    beqz r5, even
    addi r4, r4, 1
even:
    subi r2, r2, 1
    bnez r2, outer
spin:
    br spin
"""
GOLDEN = "b230b8a87b6257c9fd265b8b04156e9abef6ac456d599cb801071137563ef810"


def _report():
    return analyze_program(assemble(PROGRAM), 100, name="spin")


def test_walk_stops_at_its_step_cap():
    report = _report()
    assert (report.walk_complete, report.walk_stop_reason) == (False, "step-cap")


def test_only_self_contained_schemes_are_exact():
    for site in _report().sites.values():
        assert site.stream_exact
        for scheme in ANALYSIS_SCHEMES:
            assert site.bounds[scheme.name].exact == scheme.self_contained


def test_report_matches_golden():
    payload = json.dumps(_report().as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN
