"""In-memory spans around the program's layer entry points.

The benchmark edits nothing in the program: :meth:`Tracer.patch` replaces
a public function or method, on the module or class that callers look it
up on, with a wrapper that records a span while tracing is enabled and
otherwise only calls through (plus an optional observer, which the
correctness gate uses to see what an op produced).

Every span carries the op it belongs to (``setup-N``, ``op-N``) and its
parent, so a layer's *self time* is its spans' duration minus the part
covered by child spans.  A span's layer is its name up to the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

Name = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op: Optional[str] = None
        #: (span id, parent id, op, name, start, end)
        self.spans: List[Tuple[int, int, Optional[str], str, float, float]] = []
        self.counts: Dict[Tuple[Optional[str], str], float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- ops -------------------------------------------------------------
    def begin(self, op: str, enabled: bool) -> None:
        """Start an op; its root span is named ``bench.<kind>``."""
        self.op = op
        self.enabled = enabled
        self._root_start = time.perf_counter()
        self._root_id = len(self.spans)
        if enabled:
            self.spans.append((self._root_id, -1, op, "bench." + op.split("-")[0], 0.0, 0.0))
            self._stack = [self._root_id]

    def end(self) -> None:
        if self.enabled:
            span_id, parent, op, name, _s, _e = self.spans[self._root_id]
            self.spans[self._root_id] = (
                span_id, parent, op, name, self._root_start, time.perf_counter()
            )
        self.enabled = False
        self._stack = []
        self.op = None

    # -- spans and counts ------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[(self.op, name)] += amount

    def call(self, name: str, function: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span (when tracing is on)."""
        if not self.enabled:
            return function(*args, **kwargs)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, self.op, name, 0.0, 0.0))
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.op, name, started, ended)

    def patch(
        self,
        owner: Any,
        attribute: str,
        name: Name,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``owner.attribute`` in a span named ``name``.

        ``name`` may be a callable of the call's arguments (e.g. to name a
        kernel span after the predictor family).  ``observe(tracer, args,
        kwargs, result, seconds)`` runs after every call, traced or not.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            started = time.perf_counter()
            result = tracer.call(label, original, *args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result, time.perf_counter() - started)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reports ---------------------------------------------------------
    def _durations(self) -> Tuple[Dict[int, float], Dict[int, float]]:
        inclusive: Dict[int, float] = {}
        children: Dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _name, start, end in self.spans:
            inclusive[span_id] = end - start
            if parent >= 0:
                children[parent] += end - start
        return inclusive, children

    def phase_units(self) -> Dict[str, int]:
        """How many traced setups and traced ops the spans cover."""
        units: Dict[str, int] = defaultdict(int)
        for _id, parent, op, _name, _s, _e in self.spans:
            if parent < 0 and op is not None:
                units[phase_of(op)] += 1
        return units

    def per_unit(self, phases: Tuple[str, ...] = ("setup", "op")) -> Dict[str, float]:
        """Seconds and counts per traced setup plus per traced op.

        Each span name ``x`` gives ``x_s`` (inclusive seconds); each layer
        gives ``setup_self_s.<layer>`` and ``op_self_s.<layer>``; counts are
        reported under their own names.  A value is divided by the number
        of traced units of its phase, so it reads as "per setup" for
        set-up work and "per op" for op work.  Spans of other ``phases``
        (a workload's extra traced legs) are left out.
        """
        units = self.phase_units()
        inclusive, children = self._durations()
        values: Dict[str, float] = defaultdict(float)
        for span_id, parent, op, name, _start, _end in self.spans:
            if op is None or phase_of(op) not in phases:
                continue
            phase = phase_of(op)
            share = 1.0 / max(units.get(phase, 0), 1)
            if parent >= 0:
                values[name + "_s"] += inclusive[span_id] * share
            layer = name.split(".")[0]
            self_time = inclusive[span_id] - children.get(span_id, 0.0)
            values[f"{phase}_self_s.{layer}"] += self_time * share
        for (op, name), amount in self.counts.items():
            if op is None or phase_of(op) not in phases:
                continue
            values[name] += amount / max(units.get(phase_of(op), 0), 1)
        return dict(values)

    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write every span (relative times, seconds) and the run info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0.0)
        payload = {
            "info": extra,
            "spans": [
                {
                    "id": span_id,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }
                for span_id, parent, op, name, start, end in self.spans
            ],
            "counts": [
                {"op": op, "name": name, "value": value}
                for (op, name), value in sorted(self.counts.items(), key=str)
            ],
        }
        path.write_text(json.dumps(payload))


def phase_of(op: str) -> str:
    """``setup-2`` -> ``setup``; ``op-7`` -> ``op``."""
    return op.split("-")[0]
