"""Static-vs-dynamic cross-validation.

The payoff of the static analyzer: every fact it computes without executing
an instruction must agree with what the CPU/trace pipeline observes when the
program *is* executed.  Any divergence is a decoder, CFG or simulator bug
caught by construction:

* every dynamically observed branch PC must exist in the static table, with
  the same class;
* for sites with an encoded target (conditional, ``br``/``bsr``), the
  dynamic taken-direction target and backward/forward direction must match
  the encoding exactly;
* the static per-site BTFN prediction must reproduce the dynamic
  :class:`~repro.predictors.static_schemes.BTFNPredictor` decision for
  every conditional record, and the accuracy computed analytically from the
  static table must equal :func:`repro.sim.engine.simulate`'s score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.isa.program import Program
from repro.predictors.spec import parse_spec
from repro.predictors.static_schemes import BTFNPredictor
from repro.sim.analysis import accuracy_within_bounds, per_site_scores, top_mispredicted
from repro.sim.engine import simulate
from repro.trace.record import BranchClass, BranchRecord

from repro.analysis.branches import BranchSite, static_branch_table
from repro.analysis.predictability import (
    ANALYSIS_SCHEMES,
    PROFILE_SCHEME,
    PredictabilityClass,
    PredictabilityReport,
    analyze_program,
)


@dataclass
class CrossValidationReport:
    """Outcome of comparing a static branch table against a dynamic trace."""

    name: str
    static_total: int
    dynamic_total: int
    observed_static: int
    mismatches: List[str] = field(default_factory=list)
    static_btfn_correct: int = 0
    simulated_btfn_correct: int = 0
    btfn_total: int = 0
    unexecuted_static_sites: int = 0
    observed_per_class: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when static and dynamic views agree on every checked fact."""
        return (
            not self.mismatches
            and self.static_btfn_correct == self.simulated_btfn_correct
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.name,
            "static_total": self.static_total,
            "dynamic_total": self.dynamic_total,
            "observed_static": self.observed_static,
            "unexecuted_static_sites": self.unexecuted_static_sites,
            "btfn_total": self.btfn_total,
            "static_btfn_correct": self.static_btfn_correct,
            "simulated_btfn_correct": self.simulated_btfn_correct,
            "observed_per_class": dict(self.observed_per_class),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


_CLASS_NAMES = {
    BranchClass.CONDITIONAL: "conditional",
    BranchClass.RETURN: "return",
    BranchClass.IMM_UNCONDITIONAL: "imm_unconditional",
    BranchClass.REG_UNCONDITIONAL: "reg_unconditional",
}


def cross_validate(
    program: Program,
    records: Iterable[BranchRecord],
    name: str = "<program>",
) -> CrossValidationReport:
    """Check a dynamic branch trace of ``program`` against its static table.

    ``records`` may be any iterable of
    :class:`~repro.trace.record.BranchRecord`; it is materialised so the
    BTFN simulation can make a second pass.
    """
    table = static_branch_table(program)
    by_pc: Dict[int, BranchSite] = {site.pc: site for site in table}
    trace = list(records)

    mismatches: List[str] = []
    seen: Set[int] = set()
    per_class: Dict[str, int] = {}
    static_btfn_correct = 0
    btfn_total = 0

    for record in trace:
        site: Optional[BranchSite] = by_pc.get(record.pc)
        if site is None:
            if record.pc not in seen:
                mismatches.append(
                    f"{record.pc:#010x}: dynamic branch has no static site"
                )
            seen.add(record.pc)
            continue
        first_time = record.pc not in seen
        seen.add(record.pc)
        if first_time:
            per_class[_CLASS_NAMES[site.cls]] = (
                per_class.get(_CLASS_NAMES[site.cls], 0) + 1
            )
        if record.cls is not site.cls:
            if first_time:
                mismatches.append(
                    f"{record.pc:#010x}: class mismatch "
                    f"(static {site.cls.name}, dynamic {record.cls.name})"
                )
            continue
        if site.target is not None:
            if record.target != site.target:
                mismatches.append(
                    f"{record.pc:#010x}: target mismatch "
                    f"(static {site.target:#x}, dynamic {record.target:#x})"
                )
            elif record.is_backward != site.is_backward:
                mismatches.append(
                    f"{record.pc:#010x}: direction mismatch "
                    f"(static backward={site.is_backward}, "
                    f"dynamic backward={record.is_backward})"
                )
        if record.cls is BranchClass.CONDITIONAL:
            btfn_total += 1
            prediction = site.btfn_taken
            if prediction is None:
                mismatches.append(
                    f"{record.pc:#010x}: conditional site has no static "
                    "BTFN prediction"
                )
                continue
            if prediction == record.taken:
                static_btfn_correct += 1

    stats = simulate(BTFNPredictor(), trace)
    if stats.conditional_total != btfn_total:
        mismatches.append(
            "conditional record count mismatch: static walk saw "
            f"{btfn_total}, simulator saw {stats.conditional_total}"
        )

    observed_static = len(seen & set(by_pc))
    return CrossValidationReport(
        name=name,
        static_total=len(table),
        dynamic_total=len(seen),
        observed_static=observed_static,
        mismatches=mismatches,
        static_btfn_correct=static_btfn_correct,
        simulated_btfn_correct=stats.conditional_correct,
        btfn_total=btfn_total,
        unexecuted_static_sites=len(table) - observed_static,
        observed_per_class=per_class,
    )


# ----------------------------------------------------------------------
# Predictability cross-validation: the static bounds against the simulator.
# ----------------------------------------------------------------------

#: Classes whose bounds the acceptance criteria require to be *exact*.
_TIGHT_CLASSES = frozenset(
    {PredictabilityClass.CONSTANT, PredictabilityClass.LOOP_PERIODIC}
)


@dataclass
class PredictabilityValidation:
    """Outcome of checking a predictability report against a dynamic trace.

    Three layers of agreement, each hard-failing on divergence:

    * every site × scheme: dynamic ``(correct, total)`` inside the static
      ``[lower, upper]`` interval with matching occurrence counts;
    * constant / loop-periodic sites: the interval must be a point
      (``exact``) — the tightness the acceptance criteria demand;
    * H2P: the static top-N by reference-scheme misprediction mass must
      name the same sites as the dynamic top-N.
    """

    name: str
    scale: int
    sites_checked: int
    schemes_checked: int
    static_h2p: List[int] = field(default_factory=list)
    dynamic_h2p: List[int] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.name,
            "scale": self.scale,
            "sites_checked": self.sites_checked,
            "schemes_checked": self.schemes_checked,
            "static_h2p": list(self.static_h2p),
            "dynamic_h2p": list(self.dynamic_h2p),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def validate_predictability(
    program: Program,
    records: Iterable[BranchRecord],
    scale: int,
    name: str = "<program>",
    report: Optional[PredictabilityReport] = None,
    h2p_n: int = 5,
    backend: Optional[str] = None,
) -> PredictabilityValidation:
    """Cross-validate static predictability bounds against a dynamic trace.

    ``records`` is the trace the simulator produced for ``program`` at
    ``scale`` conditional branches (the same scale the report was — or will
    be — computed at).  ``report`` may be passed in when the caller already
    ran :func:`~repro.analysis.predictability.analyze_program`.
    ``backend`` picks the per-site scoring engine, as for the analysis.
    """
    trace = [r for r in records if r.cls is BranchClass.CONDITIONAL]
    if report is None:
        report = analyze_program(program, scale, name=name, backend=backend)

    # Profile profiles the execution trace itself, as the analysis does
    specs = [scheme.spec for scheme in ANALYSIS_SCHEMES] + [PROFILE_SCHEME]
    per_spec = per_site_scores(specs, trace, backend)
    dynamic = {parse_spec(text).canonical(): per_spec[text] for text in specs}
    scheme_count = len(dynamic)

    mismatches: List[str] = []
    for scheme_name in sorted(dynamic):
        bounds = {
            pc: (bound.lower, bound.upper, bound.occurrences)
            for pc, site_report in report.sites.items()
            if (bound := site_report.bounds.get(scheme_name)) is not None
        }
        for violation in accuracy_within_bounds(dynamic[scheme_name], bounds):
            mismatches.append(f"{scheme_name}: {violation}")

    for pc, site_report in sorted(report.sites.items()):
        if site_report.predictability not in _TIGHT_CLASSES:
            continue
        for scheme_name, bound in sorted(site_report.bounds.items()):
            if not bound.exact:
                mismatches.append(
                    f"{scheme_name}: {pc:#010x} is "
                    f"{site_report.predictability.value} but its bound "
                    f"[{bound.lower}, {bound.upper}] is not exact"
                )

    static_h2p = report.h2p_top(h2p_n)
    dynamic_h2p = top_mispredicted(dynamic[report.reference_scheme], h2p_n)
    if set(static_h2p) != set(dynamic_h2p):
        mismatches.append(
            f"H2P top-{h2p_n} disagree: static "
            f"{[hex(pc) for pc in static_h2p]}, dynamic "
            f"{[hex(pc) for pc in dynamic_h2p]}"
        )

    return PredictabilityValidation(
        name=name,
        scale=scale,
        sites_checked=len(report.sites),
        schemes_checked=scheme_count,
        static_h2p=static_h2p,
        dynamic_h2p=dynamic_h2p,
        mismatches=mismatches,
    )
