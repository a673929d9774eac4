"""Predictor families: everything one scheme *is*, in one object.

The paper names every configuration by one grammar,
``Scheme(History, Pattern, Data)`` (Table 2).  Here each scheme is one
:class:`Family` registered in :data:`FAMILIES` under its
:attr:`~repro.predictors.spec.PredictorSpec.scheme` string.  The family
owns the scheme's grammar and bounds (:meth:`Family.parse`), canonical
form, scalar builder, training role, the history windows its vector
recipe reads, and that recipe: either a trace-order ``direct_mask`` or an
automaton ``scan_request`` for the fused scan batch (:mod:`repro.sim.sweep`).
:func:`~repro.predictors.spec.parse_spec`,
:meth:`~repro.predictors.spec.PredictorSpec.build` and the vector core
look the family up; nothing outside this package branches on a scheme name.

Modules group families by grammar, not by scheme:

* :mod:`.static` — Always Taken / Not Taken, BTFN and Profile;
* :mod:`.global_history` — GAg and gshare;
* :mod:`.modern` — perceptron and TAGE;
* :mod:`.per_address` — PAp and PAs;
* :mod:`.table2` — AT, ST and LS, the paper's three-part grammar.

``semantics`` versions a family's predictions: bump it whenever the
scalar reference predicts differently, so the sweep-result cache
(:mod:`repro.sim.result_cache`) never serves a row computed under the
old rule.  The vector recipes import the :mod:`repro.sim` primitives
inside the method, so importing :mod:`repro.predictors` never imports
the simulator.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Pattern

from repro.errors import ConfigError, KernelError, SpecParseError
from repro.predictors.base import ConditionalBranchPredictor
from repro.predictors.pattern_table import MAX_HISTORY_LENGTH
from repro.predictors.spec import PredictorSpec
from repro.trace.record import BranchRecord

__all__ = ["FAMILIES", "Family", "family_of"]


class Family:
    """One predictor scheme: its grammar, semantics and vector recipe.

    A family implements exactly one vector recipe:

    * ``direct_mask(spec, ctx, trainings)`` — the per-record correctness
      column in trace order, for the scan-free schemes; or
    * ``scan_request(spec, ctx)`` — the ``(token, bucket column,
      automaton)`` replay the fused scan batch runs for an automaton
      scheme.  Requests sharing a token share the column's segment sort.
    """

    #: the :attr:`PredictorSpec.scheme` string this family registers under
    scheme = ""
    #: bump when the scalar reference's predictions change
    semantics = 1
    direct_mask: Optional[Callable[..., Any]] = None
    scan_request: Optional[Callable[..., Any]] = None

    def parse(self, text: str) -> Optional[PredictorSpec]:
        """The spec ``text`` names if it is in this family's grammar,
        ``None`` if it is not; :class:`SpecParseError` if it is but breaks
        the grammar's rules or bounds."""
        raise NotImplementedError

    def canonical(self, spec: PredictorSpec) -> str:
        """Render ``spec`` back to its configuration string."""
        raise NotImplementedError

    def build(
        self,
        spec: PredictorSpec,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> ConditionalBranchPredictor:
        """The scalar reference predictor for ``spec``."""
        raise NotImplementedError

    def training_role(self, spec: PredictorSpec) -> Optional[str]:
        """Which trace ``spec`` profiles: ``None`` (adaptive), ``"test"``
        (the execution data set) or ``"train"`` (the Table 3 training set)."""
        return None

    def reserve(self, spec: PredictorSpec, ctx: Any) -> None:
        """Reserve on the trace context every history window the recipe
        will read, so each key space computes its widest window once."""

    def training(self, spec: PredictorSpec, trainings: Mapping[str, Any]) -> Any:
        """The context of the trace ``spec`` profiles."""
        role = self.training_role(spec)
        ctx = None if role is None else trainings.get(role)
        if ctx is None:
            raise KernelError(f"{spec.canonical()}: scoring needs a {role!r} training trace")
        return ctx


#: scheme string -> family, in parse order
FAMILIES: Dict[str, Family] = {}


def register(family: Family) -> None:
    """Add ``family`` to the registry under its scheme string."""
    FAMILIES[family.scheme] = family


def family_of(spec: PredictorSpec) -> Family:
    """The registered family behind ``spec.scheme``."""
    family = FAMILIES.get(spec.scheme)
    if family is None:
        raise ConfigError(f"unknown scheme {spec.scheme!r}")
    return family


def history_length(digits: str, full: str) -> int:
    """A pattern-table history length, bounded like
    :class:`~repro.predictors.pattern_table.PatternTable` so no front end
    can request a zero-bit or ``2^k``-too-large table."""
    k = int(digits)
    if not 1 <= k <= MAX_HISTORY_LENGTH:
        raise SpecParseError(
            f"history length must be in 1..{MAX_HISTORY_LENGTH}, got {k} in {full!r}"
        )
    return k


def replay_sessions(
    family: Family, spec: PredictorSpec, ctx: Any, trainings: Mapping[str, Any]
) -> Any:
    """The ``direct_mask`` of a family whose state is too sequential to
    scan: one scalar predictor per session, built from ``spec`` and keyed
    by its canonical form, driven through its fused ``observe``."""
    correct = ctx.np.empty(len(ctx), dtype=bool)
    for rows, predictor in ctx.sessions((spec.canonical(),), lambda: family.build(spec)):
        observe = predictor.observe
        correct[rows] = [
            observe(pc, target, taken) == taken
            for pc, target, taken in zip(
                ctx.pc[rows].tolist(),
                ctx.target[rows].tolist(),
                ctx.taken_bool[rows].tolist(),
            )
        ]
    return correct


def call_grammar(name: str, second: str) -> "Pattern[str]":
    """``name(n[,second])``, case- and whitespace-insensitive."""
    return re.compile(
        rf"^{name}\s*\(\s*(\d+)\s*(?:,\s*({second})\s*)?\)$", re.IGNORECASE
    )


# registration order is parse order
from repro.predictors.families import (  # noqa: E402,F401
    static,
    global_history,
    modern,
    per_address,
    table2,
)
