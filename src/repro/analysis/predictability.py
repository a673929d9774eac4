"""Static branch-predictability classification and per-scheme bounds.

Built on :mod:`repro.analysis.absint`: the deterministic walk records
each conditional site's exact outcome stream, the range analysis proves
branches one-sided forever, and the loop analysis attaches closed-form
trip counts.  From those three inputs every static
conditional site is placed in one predictability class:

* ``constant`` — one outcome for every occurrence.  Proved analytically
  (decisive operand ranges — the outcome holds for *all* executions) or
  observed over the whole stream.
* ``loop-periodic(p)`` — the outcome stream is eventually periodic with
  minimal period ``p`` (the classic ``taken^(p-1)·not-taken`` loop-exit
  shape, but any repeating pattern qualifies).  Loop trip counts line up:
  a counted loop's backward latch has period ``trip_count + 1``.
* ``correlated(d)`` — the outcome is a function of the most recent
  outcomes of ``d`` listed *source* sites: some operand's reaching
  definitions form a φ whose selection is controlled by other conditional
  branches (a def-use/path-condition walk finds them).
* ``data-dependent`` — none of the above: the static H2P candidate set.

For every site × scheme the analysis derives a correct-prediction interval
(:class:`SchemeBound`).  When the walk is *complete* (it reproduced the
execution's conditional sequence exactly — true for every bundled
workload), bounds are tight for **all** schemes: the analysis replays the
actual predictor implementations over the walk's stream, so
``lower == upper`` equals what the simulator must measure.  When the walk
stops early (its step cap or a fault), self-contained schemes (whose
predictions for a site depend only on that site's own stream —
AlwaysTaken, AlwaysNotTaken, BTFN, Profile, LS over an ideal HRT, PAp)
still get exact replay of each site's stream, while shared-state schemes
(AT's global pattern table, GAg, gshare, and the modern subsystem) degrade
to ``[0, n]`` with a replay *estimate*.

The modern schemes (:mod:`repro.predictors.modern`) bound the same way —
replay over the reconstructed global stream — but their *rationale*
connects to the static classes differently from the 1991 designs:

* the **perceptron** learns any *linearly separable* function of the last
  ``h`` global outcomes, so a ``correlated(d)`` site is learnable exactly
  when its ``d`` source outcomes all fall inside the history window and
  combine linearly; its bound therefore tightens with ``depth <= h`` and
  the replay shows where nonlinear combinations (XOR-like correlations)
  cap it;
* **TAGE** is bounded by its *longest-history table* (``history_length``
  of the spec — 32 bits at four tables): periodic or correlated behaviour
  whose span exceeds that window cannot be captured by any tagged entry,
  which is exactly the slack the replay estimate exposes on long-period
  loop sites.

The closed-form steady-state results quoted in the paper's terms (LS
misses ~2 per period with LT, 1 with A2; two-level AT with ``k >= p``
perfect after warmup) are exposed via :func:`automaton_constant_misses`
and :func:`automaton_periodic_misses` and validated by unit tests; the
replay bounds are what cross-validation asserts against the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.absint import (
    LoopAnalysis,
    LoopSummary,
    Resolution,
    WalkResult,
    walk_program,
)
from repro.analysis.branches import BranchSite, conditional_sites
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow import UNINITIALIZED
from repro.isa.instructions import B_FORMAT, Opcode
from repro.isa.program import Program
from repro.predictors.automata import Automaton
from repro.predictors.spec import parse_spec
from repro.trace.columnar import pack_conditional_stream


class PredictabilityClass(enum.Enum):
    """The four-way static taxonomy (ISSUE/PAPER terminology)."""

    CONSTANT = "constant"
    LOOP_PERIODIC = "loop-periodic"
    CORRELATED = "correlated"
    DATA_DEPENDENT = "data-dependent"


# ----------------------------------------------------------------------
# Scheme registry.
# ----------------------------------------------------------------------

class AnalysisScheme(NamedTuple):
    """One prediction scheme the static analysis bounds: a registry spec
    string, scored per site through
    :func:`repro.sim.analysis.per_site_scores`.

    ``self_contained`` marks schemes whose predictions at a site are a
    function of that site's own outcome stream alone, so per-site replay is
    exact even without the global interleaving.  Shared-state schemes (the
    global pattern table, global history registers) need the complete
    global stream for tight bounds.
    """

    spec: str
    self_contained: bool

    @property
    def name(self) -> str:
        """The scheme's report key: its spec's canonical form."""
        return parse_spec(self.spec).canonical()


ANALYSIS_SCHEMES: Tuple[AnalysisScheme, ...] = (
    AnalysisScheme("AlwaysTaken", True),
    AnalysisScheme("AlwaysNotTaken", True),
    AnalysisScheme("BTFN", True),
    AnalysisScheme("LS(IHRT(,LT),,)", True),
    AnalysisScheme("LS(IHRT(,A2),,)", True),
    AnalysisScheme("PAp(8,A2)", True),
    AnalysisScheme("AT(IHRT(,12SR),PT(2^12,A2),)", False),
    AnalysisScheme("GAg(8,A2)", False),
    AnalysisScheme("gshare(8,A2)", False),
    # the modern subsystem: global-history state shared across sites, so
    # not self-contained; bounds are tight on complete walks (replay) and
    # degrade to [0, n] + estimate otherwise (see module docstring for the
    # correlated(d)-vs-h and longest-table rationale)
    AnalysisScheme("perceptron(12,512)", False),
    AnalysisScheme("tage(4,9)", False),
)

#: Scheme whose misprediction mass ranks the static H2P candidates; chosen
#: because it is the paper's per-address baseline (so "hard for LS" is
#: exactly the population the two-level schemes are meant to win on).
REFERENCE_SCHEME = "LS(IHRT(,A2),,)"

#: Profile is bounded in closed form (majority count), not by replay, so it
#: is not in the replay registry; cross-validation still checks it.
PROFILE_SCHEME = "Profile"


# ----------------------------------------------------------------------
# Closed-form automaton results (documentation + unit-test targets).
# ----------------------------------------------------------------------

def automaton_constant_misses(automaton: Automaton, outcome: bool) -> int:
    """Mispredictions of a per-site automaton on an all-``outcome`` stream
    before it locks in (the warmup term of the ``constant`` class)."""
    state = automaton.init_state
    misses = 0
    for _ in range(automaton.num_states + 1):
        if automaton.predictions[state] != outcome:
            misses += 1
        state = automaton.transitions[state][1 if outcome else 0]
        if automaton.predictions[state] == outcome and all(
            # A state that predicts the outcome and self-loops on it stays.
            automaton.transitions[state][1 if outcome else 0] == state
            for _ in (0,)
        ):
            break
    return misses


def automaton_periodic_misses(
    automaton: Automaton, pattern: Sequence[bool]
) -> Tuple[int, int]:
    """(transient misses, steady-state misses per period) of a per-site
    automaton run on a repeating ``pattern`` — e.g. ``(True,)*(p-1) +
    (False,)`` for a counted loop.  LT yields 2 per period, A2 yields 1,
    which is the paper's Lee & Smith loop-exit penalty."""
    state = automaton.init_state
    seen: Dict[int, Tuple[int, int]] = {}
    misses = 0
    steps = 0
    while True:
        key = state
        if key in seen:
            transient_steps, transient_misses = seen[key]
            period_misses = misses - transient_misses
            del transient_steps
            return transient_misses, period_misses
        seen[key] = (steps, misses)
        for outcome in pattern:
            if automaton.predictions[state] != outcome:
                misses += 1
            state = automaton.transitions[state][1 if outcome else 0]
            steps += 1


# ----------------------------------------------------------------------
# Stream shape.
# ----------------------------------------------------------------------

_MAX_PERIOD = 64


def _loop_stream_matches(
    stream: Sequence[bool], trip: int, continue_taken: bool
) -> bool:
    """True when ``stream`` is consistent with a counted-loop latch of the
    given trip count: runs of exactly ``trip`` continue-direction outcomes
    separated by single exit outcomes (the final run may be truncated by
    the analysis horizon)."""
    if trip <= 0:
        return False
    run = 0
    for taken in stream:
        if taken == continue_taken:
            run += 1
            if run > trip:
                return False
        else:
            if run != trip:
                return False
            run = 0
    return True


def eventual_period(stream: Sequence[bool]) -> Optional[Tuple[int, int]]:
    """Minimal ``(period, transient)`` of an eventually periodic stream.

    Requires at least three full repetitions inside the stream and a
    transient no longer than a quarter of it; returns None for aperiodic
    (or too-short) streams.  ``period == 1`` means eventually constant and
    is reported only when the transient is non-empty (a pure constant
    stream is the ``constant`` class, not a period).
    """
    n = len(stream)
    for period in range(1, min(_MAX_PERIOD, n // 3) + 1):
        start = n - period
        while start > 0 and stream[start - 1] == stream[start - 1 + period]:
            start -= 1
        if start == 0 and all(x == stream[0] for x in stream[:period]):
            continue  # fully constant: not periodic, the constant class
        if start <= n // 4 and n - start >= 3 * period:
            return period, start
    return None


# ----------------------------------------------------------------------
# Correlation sources: the def-use / path-condition walk.
# ----------------------------------------------------------------------

class _CorrelationFinder:
    """Finds, per conditional site, the conditional *source* sites whose
    outcomes select among the reaching definitions of its operands."""

    def __init__(self, resolution: Resolution) -> None:
        self.cfg = resolution.cfg
        self.resolution = resolution
        self.ipdom = self.cfg.intra_post_dominators
        self._control_deps = self._control_dependence()

    def _control_dependence(self) -> Dict[int, Set[int]]:
        """Control dependence in one pass (Ferrante–Ottenstein–Warren on
        the intraprocedural post-dominator tree): for every conditional
        branch edge ``S → succ``, every block on the post-dominator chain
        from ``succ`` up to (excluding) ``ipdom(S)`` is control-dependent
        on the branch terminating ``S``."""
        deps: Dict[int, Set[int]] = {start: set() for start in self.cfg.blocks}
        for start, successors in self.cfg.intra_successors.items():
            if len(successors) < 2:
                continue
            terminator = self.cfg.blocks[start].terminator
            if terminator.opcode not in B_FORMAT:
                continue
            branch_pc = self.cfg.blocks[start].end - 4
            stop = self.ipdom.get(start)
            for succ in successors:
                node: Optional[int] = succ
                while node is not None and node != stop:
                    deps.setdefault(node, set()).add(branch_pc)
                    node = self.ipdom.get(node)
        return deps

    def _controllers(self, block: int) -> Set[int]:
        """Conditional branch pcs block ``block`` is control-dependent on."""
        return self._control_deps.get(block, set())

    #: A use with more reaching definitions than this is not a φ the walk
    #: should chase: the context-insensitive RETURN edges merge every call
    #: site's state, and past this threshold the set is that pollution,
    #: not program structure.
    _MAX_PHI_WIDTH = 8

    def _real_definitions(self, register: int, use_pc: int) -> List[int]:
        """Non-virtual definition addresses of ``register`` reaching
        ``use_pc``."""
        return [
            def_address
            for def_address in self.resolution.reaching.of(register, use_pc)
            if def_address != UNINITIALIZED
        ]

    def sources(self, pc: int, depth: int = 4) -> Tuple[int, ...]:
        """Source sites correlated with the conditional at ``pc``.

        Walks the operands' reaching definitions transitively (bounded by
        ``depth``); wherever an operand value is a φ — two or more distinct
        definitions reach a use — the branches controlling the defining
        blocks are the sites whose outcomes the value (and therefore this
        site's outcome) is a function of.
        """
        resolution = self.resolution
        cfg = resolution.cfg
        sources: Set[int] = set()
        seen: Set[Tuple[int, int]] = set()
        instruction = cfg.program.instruction_at(pc)
        work: List[Tuple[int, int, int]] = [
            (register, pc, depth)
            for register in (instruction.rs1, instruction.rs2)
            if register
        ]
        while work:
            register, use_pc, budget = work.pop()
            if budget <= 0 or (register, use_pc) in seen:
                continue
            seen.add((register, use_pc))
            real = self._real_definitions(register, use_pc)
            if len(real) > self._MAX_PHI_WIDTH:
                continue
            if len(real) >= 2:
                for def_address in real:
                    block = cfg.block_at(def_address).start
                    sources.update(self._controllers(block))
            for def_address in real:
                defining = cfg.program.instruction_at(def_address)
                if defining.opcode in (Opcode.LD, Opcode.LDB):
                    continue  # memory: tracked no further
                for source_register in (defining.rs1, defining.rs2):
                    if source_register:
                        work.append((source_register, def_address, budget - 1))
        sources.discard(pc)
        return tuple(sorted(sources))


# ----------------------------------------------------------------------
# Bounds.
# ----------------------------------------------------------------------

class SchemeBound(NamedTuple):
    """Correct-prediction interval for one site under one scheme.

    ``lower <= correct <= upper`` over ``occurrences`` dynamic executions;
    ``exact`` means the interval is a point derived from exact replay.
    ``expected`` is the replay estimate when the interval is not tight.
    """

    scheme: str
    occurrences: int
    lower: int
    upper: int
    exact: bool
    expected: Optional[int] = None


@dataclass
class SiteReport:
    """Everything the analysis knows about one static conditional site.

    ``horizon`` equals ``occurrences``, ``stream_exact`` is always True and
    ``poisoned`` always None: the walk is concrete, so every recorded
    outcome is exact.  They stay in the report payload for its readers.
    """

    site: BranchSite
    predictability: PredictabilityClass
    occurrences: int
    taken_count: int
    horizon: int
    stream_exact: bool = True
    analytic_constant: Optional[bool] = None
    period: Optional[int] = None
    transient: int = 0
    sources: Tuple[int, ...] = ()
    trip_count: Optional[int] = None
    poisoned: Optional[str] = None
    bounds: Dict[str, SchemeBound] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """``d`` of ``correlated(d)``: number of source sites whose most
        recent outcomes determine this site's outcome."""
        return len(self.sources)

    @property
    def misprediction_mass(self) -> Optional[int]:
        """Reference-scheme mispredictions (the H2P ranking key)."""
        bound = self.bounds.get(REFERENCE_SCHEME)
        if bound is None or not bound.exact:
            return None
        return bound.occurrences - bound.lower

    def as_dict(self) -> Dict[str, object]:
        return {
            "pc": self.site.pc,
            "label": self.site.label,
            "opcode": self.site.opcode.name.lower(),
            "target": self.site.target,
            "class": self.predictability.value,
            "occurrences": self.occurrences,
            "taken": self.taken_count,
            "horizon": self.horizon,
            "stream_exact": self.stream_exact,
            "analytic_constant": self.analytic_constant,
            "period": self.period,
            "transient": self.transient,
            "sources": list(self.sources),
            "depth": self.depth,
            "trip_count": self.trip_count,
            "poisoned": self.poisoned,
            "bounds": {
                name: {
                    "occurrences": bound.occurrences,
                    "lower": bound.lower,
                    "upper": bound.upper,
                    "exact": bound.exact,
                    "expected": bound.expected,
                }
                for name, bound in sorted(self.bounds.items())
            },
        }


@dataclass
class PredictabilityReport:
    """The full static predictability analysis of one program."""

    name: str
    scale: int
    sites: Dict[int, SiteReport]
    walk_complete: bool
    walk_stop_reason: str
    known_conditionals: int
    loops: List[LoopSummary]
    reference_scheme: str = REFERENCE_SCHEME

    @property
    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {cls.value: 0 for cls in PredictabilityClass}
        for report in self.sites.values():
            counts[report.predictability.value] += 1
        return counts

    def h2p_ranking(self) -> List[Tuple[int, int]]:
        """Static H2P candidates: ``(pc, misprediction mass)`` under the
        reference scheme, heaviest first (pc breaks ties)."""
        ranked = [
            (report.site.pc, mass)
            for report in self.sites.values()
            if (mass := report.misprediction_mass) is not None and mass > 0
        ]
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked

    def h2p_top(self, n: int = 5) -> List[int]:
        return [pc for pc, _ in self.h2p_ranking()[:n]]

    def as_dict(self) -> Dict[str, object]:
        """The ``repro analyze`` JSON v1 payload for one program."""
        return {
            "version": 1,
            "name": self.name,
            "scale": self.scale,
            "walk": {
                "complete": self.walk_complete,
                "stop_reason": self.walk_stop_reason,
                "known_conditionals": self.known_conditionals,
            },
            "classes": self.class_counts,
            "reference_scheme": self.reference_scheme,
            "h2p": [
                {"pc": pc, "mass": mass} for pc, mass in self.h2p_ranking()[:10]
            ],
            "loops": [
                {
                    "header": summary.header,
                    "exit_pc": summary.exit_pc,
                    "trip_count": summary.trip_count,
                }
                for summary in self.loops
            ],
            "sites": [
                report.as_dict() for _, report in sorted(self.sites.items())
            ],
        }


def _exact_bound(scheme: str, occurrences: int, correct: int) -> SchemeBound:
    """The point interval of an exact replay."""
    return SchemeBound(scheme, occurrences, correct, correct, True, correct)


def _profile_bound(occurrences: int, taken_count: int) -> SchemeBound:
    """Closed-form Profile bound: the per-site majority (ties taken) is
    trained on the same stream it predicts, so correct = majority count."""
    predicts_taken = 2 * taken_count >= occurrences
    correct = taken_count if predicts_taken else occurrences - taken_count
    return _exact_bound(PROFILE_SCHEME, occurrences, correct)


# ----------------------------------------------------------------------
# The analysis entry point.
# ----------------------------------------------------------------------

def analyze_program(
    program: Program,
    scale: int,
    name: str = "program",
    cfg: Optional[ControlFlowGraph] = None,
    schemes: Sequence[AnalysisScheme] = ANALYSIS_SCHEMES,
    backend: Optional[str] = None,
    walk: Optional[WalkResult] = None,
) -> PredictabilityReport:
    """Classify every conditional site of ``program`` and bound every
    scheme's per-site accuracy at trace scale ``scale`` (the simulator's
    ``max_conditional_branches``).  ``backend`` picks the engine that
    replays a complete walk (:func:`repro.sim.analysis.per_site_scores`);
    a partial walk's per-site streams always replay on the scalar engine.
    The bounds are identical on both.  ``walk`` is the program's
    :func:`walk_program` of ``scale`` when the caller already has it
    (:meth:`WalkResult.of_trace`); without it the program is walked here."""
    import repro.sim.analysis as sim_analysis

    if cfg is None:
        cfg = build_cfg(program)
    resolution = Resolution.of(cfg)
    loop_analysis = LoopAnalysis(resolution=resolution)
    loops = loop_analysis.summarize()
    if walk is None:
        walk = walk_program(program, scale)
    finder = _CorrelationFinder(resolution)

    sites = conditional_sites(program)
    targets = {
        site.pc: site.target for site in sites if site.target is not None
    }

    trip_by_exit = {
        summary.exit_pc: summary.trip_count
        for summary in loops
        if summary.exit_pc is not None
    }
    loop_by_exit = {
        summary.exit_pc: summary for summary in loops
        if summary.exit_pc is not None
    }

    # Occurrence counts at this scale.  When the walk is complete its
    # per-site stream lengths ARE the dynamic counts; otherwise they are
    # the counts up to where it stopped (a lower bound thereafter).  Each
    # class test runs only when the ones before it fail.
    reports: Dict[int, SiteReport] = {}
    for site in sites:
        stream = walk.streams.get(site.pc, [])
        occurrences = len(stream)
        if occurrences == 0:
            continue  # never executed at this scale: nothing to bound
        taken_count = sum(stream)
        analytic = resolution.branch_decision(site.pc)
        period_info: Optional[Tuple[int, int]] = None
        sources: Tuple[int, ...] = ()
        trip = trip_by_exit.get(site.pc)
        if analytic is not None or taken_count in (0, occurrences):
            predictability = PredictabilityClass.CONSTANT
        elif (period_info := eventual_period(stream)) is not None:
            predictability = PredictabilityClass.LOOP_PERIODIC
        elif trip is not None and _loop_stream_matches(
            stream,
            trip,
            site.target is not None
            and site.target in loop_by_exit[site.pc].blocks,
        ):
            # A counted loop whose latch the stream confirms but which does
            # not repeat often enough for observational period detection
            # (e.g. a single activation): the analytic trip supplies the
            # period directly.
            predictability = PredictabilityClass.LOOP_PERIODIC
            period_info = (trip + 1, 0)
        elif sources := finder.sources(site.pc):
            predictability = PredictabilityClass.CORRELATED
        else:
            predictability = PredictabilityClass.DATA_DEPENDENT

        reports[site.pc] = SiteReport(
            site=site,
            predictability=predictability,
            occurrences=occurrences,
            taken_count=taken_count,
            horizon=occurrences,
            analytic_constant=analytic,
            period=period_info[0] if period_info else None,
            transient=period_info[1] if period_info else 0,
            sources=sources,
            trip_count=trip,
        )

    # -- bounds ---------------------------------------------------------
    # each name is a parse_spec round trip, so read it once per scheme
    keyed = [(scheme, scheme.name) for scheme in schemes]
    if walk.complete:
        # one replay of the walk's whole stream: every bound is tight
        per_spec = sim_analysis.per_site_scores(
            [scheme.spec for scheme in schemes], walk.packed, backend
        )
        for scheme, key in keyed:
            for pc, (correct, total) in per_spec[scheme.spec].items():
                report = reports.get(pc)
                if report is not None:
                    report.bounds[key] = _exact_bound(key, total, correct)
    else:
        # each site's stream alone: exact for self-contained schemes, an
        # estimate inside [0, n] otherwise.  The streams are short and
        # there is one per site, so they replay on the scalar engine
        # (bit-exact with the fused kernel, without its per-call set-up)
        # from specs parsed once.
        parsed = {scheme.spec: parse_spec(scheme.spec) for scheme in schemes}
        for pc, report in reports.items():
            stream = walk.streams.get(pc, [])
            packed = pack_conditional_stream([(pc, taken) for taken in stream], targets)
            per_spec = sim_analysis.per_site_replay(parsed, packed)
            n = report.occurrences
            for scheme, key in keyed:
                correct = per_spec[scheme.spec][pc][0]
                if scheme.self_contained:
                    bound = _exact_bound(key, n, correct)
                else:
                    bound = SchemeBound(key, n, 0, n, False, correct)
                report.bounds[key] = bound

    for report in reports.values():
        report.bounds[PROFILE_SCHEME] = _profile_bound(
            report.occurrences, report.taken_count
        )

    return PredictabilityReport(
        name=name,
        scale=scale,
        sites=reports,
        walk_complete=walk.complete,
        walk_stop_reason=walk.stop_reason,
        known_conditionals=walk.known_conditionals,
        loops=loops,
    )
