"""Workload framework: SPEC-analog programs, data sets, and trace caching.

Each workload is a program *generator*: given a :class:`DataSet` it emits
assembly source for the repro ISA, which the CPU executes to produce the
branch trace.  Data sets model the paper's Table 3 — a workload may define a
``train`` data set with *different branch tendencies* from its default
``test`` set, which is what exposes Static Training's weakness in Figure 8.

Traces are cached at two levels: an in-process dict (sweeps reuse the same
trace across dozens of predictor configurations) and an optional on-disk
:class:`~repro.trace.store.TraceStore` of memory-mapped shards (CPU
execution is the expensive stage).  Store keys are content-addressed over
every generation ingredient — workload name, role, data-set parameters,
workload ``version``, scale — so editing a program generator *or* a data
set invalidates stale traces.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.errors import ConfigError, WorkloadError
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.trace.columnar import PackedTrace, pack_records
from repro.trace.record import BranchRecord, InstructionMix
from repro.trace.store import TraceStore, content_key

#: default per-benchmark conditional-branch cap for library-level runs; the
#: paper uses 20 million, which a pure-Python interpreter reproduces only via
#: the CLI's --scale flag.
DEFAULT_CONDITIONAL_BRANCHES = 50_000

#: the paper's per-benchmark simulation length (section 5: twenty million
#: conditional branches per benchmark) — the ``--scale paper`` preset.
PAPER_CONDITIONAL_BRANCHES = 20_000_000


def parse_scale(value: Union[str, int]) -> int:
    """Parse a ``--scale`` value: an integer cap or the ``paper`` preset.

    Accepted anywhere a conditional-branch cap is read (CLI flags, the
    ``REPRO_BENCH_SCALE`` environment knob), so ``--scale paper`` means the
    paper's 20M-branch runs without anyone memorising the constant.
    """
    if isinstance(value, int):
        scale = value
    else:
        text = str(value).strip().lower()
        if text == "paper":
            return PAPER_CONDITIONAL_BRANCHES
        try:
            scale = int(text)
        except ValueError as exc:
            raise ConfigError(
                f"invalid scale {value!r}: expected an integer or 'paper'"
            ) from exc
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}")
    return scale

INTEGER = "integer"
FLOATING_POINT = "fp"


@dataclass(frozen=True)
class DataSet:
    """A named input for a workload (Table 3 rows).

    ``params`` feed the program generator (seeds, sizes, input tables), so
    two data sets of one workload produce genuinely different branch
    behaviour, not just different lengths.
    """

    name: str
    params: Dict[str, int] = field(default_factory=dict)

    def param(self, key: str, default: int) -> int:
        return self.params.get(key, default)


class WorkloadTrace:
    """A generated trace plus the statistics the figures need.

    The trace lives in whichever representation it was born with — the
    columnar :class:`~repro.trace.columnar.PackedTrace` from a fresh
    generation (the CPU appends straight into columns) or a warm store
    load (possibly memory-mapped), or a record list handed in by a caller —
    and derives the other form lazily.  At
    paper scale the distinction matters: a 20M-record trace loads from the
    store in milliseconds as columns, and boxing it into twenty million
    :class:`BranchRecord` tuples only happens if something actually reads
    :attr:`records`.  Prefer :meth:`iter_records` for one-pass consumers.
    """

    def __init__(
        self,
        records: Optional[List[BranchRecord]] = None,
        mix: Optional[InstructionMix] = None,
        _packed: Optional[PackedTrace] = None,
    ):
        if records is None and _packed is None:
            raise ValueError("WorkloadTrace needs records or a packed trace")
        if mix is None:
            raise ValueError("WorkloadTrace needs an instruction mix")
        self._records = records
        self.mix = mix
        self._packed = _packed

    @classmethod
    def from_packed(cls, packed: PackedTrace, mix: InstructionMix) -> "WorkloadTrace":
        """Wrap an already-columnar trace without materialising records."""
        return cls(records=None, mix=mix, _packed=packed)

    @property
    def records(self) -> List[BranchRecord]:
        """The record-list form (materialised from the columns on first use)."""
        if self._records is None:
            assert self._packed is not None
            self._records = self._packed.to_records()
        return self._records

    def iter_records(self):
        """Iterate records without forcing the boxed list into memory."""
        if self._records is not None:
            return iter(self._records)
        assert self._packed is not None
        return iter(self._packed)

    def packed(self) -> PackedTrace:
        """The columnar form of the trace (packed once, then cached)."""
        if self._packed is None:
            assert self._records is not None
            self._packed = pack_records(self._records)
        return self._packed


class Workload(ABC):
    """A SPEC-analog benchmark program.

    Subclasses define ``name``, ``category`` (integer / fp), their data sets
    and :meth:`build_source`.  ``version`` must be bumped whenever the
    generated program changes, to invalidate disk-cached traces.
    """

    name: str = ""
    category: str = INTEGER
    version: int = 1

    #: data sets by role; every workload has "test", some also have "train"
    #: (Table 3's five benchmarks with applicable alternative data sets).
    datasets: Dict[str, DataSet] = {}

    @abstractmethod
    def build_source(self, dataset: DataSet) -> str:
        """Emit the assembly source for the given data set."""

    # ------------------------------------------------------------------
    def dataset(self, role: str = "test") -> DataSet:
        try:
            return self.datasets[role]
        except KeyError as exc:
            raise WorkloadError(
                f"workload {self.name!r} has no {role!r} data set"
                f" (available: {sorted(self.datasets)})"
            ) from exc

    @property
    def has_training_set(self) -> bool:
        """Whether Table 3 lists an applicable alternative data set."""
        return "train" in self.datasets

    def generate(
        self, dataset: Optional[DataSet] = None, max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES
    ) -> WorkloadTrace:
        """Assemble and execute the program, capped at ``max_conditional``
        conditional branches (the paper's per-benchmark simulation cap)."""
        chosen = dataset if dataset is not None else self.dataset("test")
        program = assemble(self.build_source(chosen))
        cpu = CPU(program)
        result = cpu.run(max_conditional_branches=max_conditional)
        return WorkloadTrace.from_packed(result.packed, result.mix)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the global registry."""
    if not cls.name:
        raise WorkloadError(f"workload class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise WorkloadError(f"duplicate workload name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def workload_names() -> List[str]:
    """All registered workload names, in registration (paper) order."""
    return list(_REGISTRY)


def get_workload(name: str) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        return _REGISTRY[name]()
    except KeyError as exc:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


# ----------------------------------------------------------------------
# trace cache
# ----------------------------------------------------------------------
class TraceCache:
    """Two-level (memory + optional shard-store) cache of workload traces."""

    def __init__(self, disk_dir: "Optional[Path | str]" = None):
        self._memory: Dict[Tuple[str, str, int, int], WorkloadTrace] = {}
        self.disk_dir = Path(disk_dir).expanduser() if disk_dir is not None else None
        self.store: Optional[TraceStore] = (
            TraceStore(self.disk_dir) if self.disk_dir is not None else None
        )

    def with_disk(self, disk_dir: "Path | str") -> "TraceCache":
        """A cache on ``disk_dir`` sharing this cache's in-memory store.

        Used by the parallel sweep layer when the active cache is
        memory-only: traces already generated stay reusable, while the disk
        copy becomes visible to worker processes.
        """
        cache = TraceCache(disk_dir=disk_dir)
        cache._memory = self._memory
        return cache

    def _stem(
        self, workload: Workload, role: str, max_conditional: int
    ) -> Tuple[str, Dict[str, Any]]:
        """The store's content-addressed (stem, key dict) for one trace."""
        return content_key(
            workload.name,
            role,
            max_conditional,
            workload.version,
            workload.dataset(role).params,
        )

    def stem_for(
        self, workload: Workload, role: str, max_conditional: int
    ) -> str:
        """The content-addressed store stem identifying one trace.

        The stem digests the workload name, role, cap, generator version
        and dataset parameters, so it is stable across processes and
        changes whenever the trace's content would — which makes it the
        trace half of a sweep-result cache key
        (:mod:`repro.sim.result_cache`)."""
        return self._stem(workload, role, max_conditional)[0]

    def get(
        self,
        workload: Workload,
        role: str = "test",
        max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
    ) -> WorkloadTrace:
        """Fetch (or generate and cache) a workload trace."""
        key = (workload.name, role, max_conditional, workload.version)
        cached = self._memory.get(key)
        if cached is not None:
            return cached

        trace = self._load_disk(workload, role, max_conditional)
        if trace is None:
            trace = workload.generate(workload.dataset(role), max_conditional)
            self._store_disk(workload, role, max_conditional, trace)
        self._memory[key] = trace
        return trace

    def clear_memory(self) -> None:
        self._memory.clear()

    def ensure_on_disk(
        self,
        workload: Workload,
        role: str = "test",
        max_conditional: int = DEFAULT_CONDITIONAL_BRANCHES,
    ) -> None:
        """Guarantee the trace exists in the disk layer (generating at most
        once); requires a cache constructed with ``disk_dir``.

        The parallel sweep calls this from the coordinating process before
        fanning out, so every worker finds each benchmark's trace on disk
        instead of re-running the ISA simulator.
        """
        if self.store is None:
            raise WorkloadError("ensure_on_disk requires a disk-backed TraceCache")
        stem, _key = self._stem(workload, role, max_conditional)
        if self.store.has(stem):
            return
        trace = self.get(workload, role, max_conditional)
        if not self.store.has(stem):  # get() may have stored it
            self._store_disk(workload, role, max_conditional, trace)

    # -- disk layer (shard store) --------------------------------------
    def _load_disk(
        self, workload: Workload, role: str, max_conditional: int
    ) -> Optional[WorkloadTrace]:
        if self.store is None:
            return None
        stem, _key = self._stem(workload, role, max_conditional)
        loaded = self.store.load(stem)
        if loaded is None:
            return None  # miss, or a corrupt shard regenerating silently
        packed, meta = loaded
        try:
            mix = InstructionMix(**meta["mix"])
        except (KeyError, TypeError):
            return None
        return WorkloadTrace.from_packed(packed, mix)

    def _store_disk(
        self,
        workload: Workload,
        role: str,
        max_conditional: int,
        trace: WorkloadTrace,
    ) -> None:
        if self.store is None:
            return
        stem, key = self._stem(workload, role, max_conditional)
        meta = {
            "key": key,
            "mix": {
                "conditional": trace.mix.conditional,
                "returns": trace.mix.returns,
                "imm_unconditional": trace.mix.imm_unconditional,
                "reg_unconditional": trace.mix.reg_unconditional,
                "non_branch": trace.mix.non_branch,
            },
        }
        try:
            self.store.store(stem, trace.packed(), meta)
        except OSError:
            # a read-only or full disk must not break the run; the trace
            # simply stays memory-only
            try:
                self.store.path_for(stem).unlink()
            except OSError:
                pass


def default_cache_dir() -> Optional[Path]:
    """The disk directory the default cache uses.

    Resolution order: ``REPRO_CACHE_DIR`` (or the legacy
    ``REPRO_TRACE_CACHE``) when set — an *empty* value disables the disk
    layer entirely — otherwise ``$XDG_CACHE_HOME/repro-traces``, defaulting
    to ``~/.cache/repro-traces``.
    """
    for var in ("REPRO_CACHE_DIR", "REPRO_TRACE_CACHE"):
        if var in os.environ:
            value = os.environ[var]
            return Path(value).expanduser() if value else None
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "repro-traces"


def default_cache() -> TraceCache:
    """The shared process-wide cache, disk-backed at :func:`default_cache_dir`.

    Falls back to a memory-only cache when the directory cannot be created
    (read-only home, sandboxed environments).
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        try:
            _DEFAULT_CACHE = TraceCache(disk_dir=default_cache_dir())
        except OSError:
            _DEFAULT_CACHE = TraceCache(disk_dir=None)
    return _DEFAULT_CACHE


_DEFAULT_CACHE: Optional[TraceCache] = None
