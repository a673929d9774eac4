"""Content-addressed sweep-result cache.

Scoring a (spec, benchmark) cell is a pure function of the spec string,
the exact trace contents and the simulation backend, so a finished stats
row is cacheable by construction.  The key digests the spec's canonical
string and its family's ``semantics`` version (so a change to a family's
predictions never returns a row computed under the old rule), the testing
trace's store stem (:func:`repro.trace.store.content_key`, which digests
the program text and the ISA semantics version, so a generator or CPU
change never returns a row scored on the old trace), the training trace's
stem for profiled schemes, and the resolved backend (the backends
are verified bit-identical, but backend-agreement tests *are the
verification*, so a hit must never pass one backend's row off as the
other's).

Rows live in one append-only JSON-lines log per testing trace,
``<store root>/results/<test stem>.jsonl``, next to the trace store's
shards, so ``repro cache`` lists and evicts them with the traces.  A row
is one ``os.write`` of a whole line on an ``O_APPEND`` descriptor, so
concurrent sweep workers interleave rows, never bytes of a row; it starts
with a newline of its own, so a line torn by a crash costs only itself.
A :class:`ResultCache` parses a log once, then reads only what was
appended since, and only when a lookup misses.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.predictors.families import Family, family_of
from repro.predictors.spec import parse_spec
from repro.sim.results import PredictionStats

__all__ = ["ResultCache", "ResultEntry", "result_key"]

#: bump to invalidate every persisted row (file schema change); a change
#: to one family's predictions bumps that family's ``semantics`` instead
FORMAT_VERSION = 3

_LOG = ".jsonl"
#: the one-file-per-row layout of formats 1 and 2: never read, only cleared
_LEGACY = ".json"

Row = Dict[str, Any]

#: the canonical JSON (sorted keys, no spaces, ASCII) of a key payload and
#: of a row, formatted directly: ``json.dumps`` builds an encoder per call
_KEY = '{"backend":%s,"format":%d,"semantics":%d,"spec":%s,"test":%s,"train":%s}'
_ROW = '{"backend":%s,"digest":"%s","format":%d,"spec":%s,"stats":[%d,%d],"test":%s,"train":%s}'
#: the key fields a row records, checked again on every read
_FIELDS = ("format", "spec", "test", "train", "backend")


@functools.lru_cache(maxsize=1024)
def _family(spec_text: str) -> Family:
    """The family behind a spec string; its ``semantics`` is read live."""
    return family_of(parse_spec(spec_text))


def result_key(spec_text: str, test_stem: str, train_stem: Optional[str], backend: str) -> str:
    """Digest naming one (spec, semantics, trace, options) stats row."""
    payload = _KEY % (_quote(backend), FORMAT_VERSION, _family(spec_text).semantics,
                      _quote(spec_text), _quote(test_stem), _quote(train_stem or ""))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:24]


def _parse(data: bytes) -> Iterator[Tuple[Row, bytes]]:
    """The ``(row, line)`` pairs of log bytes; unparsable lines are skipped."""
    for line in data.split(b"\n"):
        try:
            row = json.loads(line) if line else None
        except ValueError:
            continue
        if isinstance(row, dict) and isinstance(row.get("digest"), str):
            yield row, line


def _log_rows(path: Path) -> List[Tuple[Row, bytes]]:
    with contextlib.suppress(OSError):
        return list(_parse(path.read_bytes()))
    return []


class ResultEntry(NamedTuple):
    """One cached row as listed by ``repro cache``."""

    digest: str
    spec: str
    test_stem: str
    train_stem: str
    backend: str
    size_bytes: int


@dataclass
class _Log:
    """What one :class:`ResultCache` has read of one stem's log."""

    #: digest -> (the row's ``_FIELDS`` values, its stats)
    rows: Dict[str, Tuple[Tuple[Any, ...], Any]] = field(default_factory=dict)
    inode: Optional[int] = None
    offset: int = 0


class ResultCache:
    """Append-only JSON-lines logs in a ``results/`` directory.

    Every read checks a row's key fields against the requested ones, so a
    corrupt or hand-edited row is a miss, never a wrong stats row.
    """

    def __init__(self, root: "Path | str"):
        self.root = Path(root).expanduser()
        self._logs: Dict[str, _Log] = {}

    def _path(self, test_stem: str) -> str:
        return os.path.join(self.root, test_stem + _LOG)

    def _refresh(self, test_stem: str, log: _Log) -> None:
        """Index the rows appended to ``test_stem``'s log since the last read."""
        path = self._path(test_stem)
        try:
            status = os.stat(path)
            if status.st_ino != log.inode or status.st_size < log.offset:
                # first read, or the log was rewritten (evict / clear)
                log.rows.clear()
                log.inode, log.offset = status.st_ino, 0
            elif status.st_size == log.offset:
                return
            with open(path, "rb") as handle:
                handle.seek(log.offset)
                data = handle.read()
        except OSError:
            return
        # a line still without its newline may be mid-write: read it later
        complete = data.rfind(b"\n") + 1
        log.offset += complete
        for row, _line in _parse(data[:complete]):
            log.rows[row["digest"]] = (tuple(map(row.get, _FIELDS)), row.get("stats"))

    def get(
        self, spec_text: str, test_stem: str, train_stem: Optional[str], backend: str
    ) -> Optional[PredictionStats]:
        digest = result_key(spec_text, test_stem, train_stem, backend)
        log = self._logs.get(test_stem)
        if log is None:
            log = self._logs[test_stem] = _Log()
            self._refresh(test_stem, log)
        elif digest not in log.rows:
            self._refresh(test_stem, log)  # rows other writers appended since
        fields, stats = log.rows.get(digest, (None, None))
        if fields != (FORMAT_VERSION, spec_text, test_stem, train_stem or "", backend):
            return None
        if not isinstance(stats, list) or len(stats) != 2:
            return None
        try:
            return PredictionStats(*(int(value) for value in stats))
        except (TypeError, ValueError):
            return None

    def put(
        self, spec_text: str, test_stem: str, train_stem: Optional[str], backend: str,
        stats: PredictionStats,
    ) -> None:
        digest = result_key(spec_text, test_stem, train_stem, backend)
        line = _ROW % (_quote(backend), digest, FORMAT_VERSION, _quote(spec_text),
                       stats.conditional_total, stats.conditional_correct,
                       _quote(test_stem), _quote(train_stem or ""))
        path = self._path(test_stem)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            try:
                fd = os.open(path, flags, 0o644)
            except FileNotFoundError:
                self.root.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, flags, 0o644)
            try:
                os.write(fd, f"\n{line}\n".encode("ascii"))
            finally:
                os.close(fd)
        except OSError:
            return  # a read-only or full disk leaves the row uncached, not the sweep broken
        log = self._logs.get(test_stem)
        if log is not None:
            fields = (FORMAT_VERSION, spec_text, test_stem, train_stem or "", backend)
            log.rows[digest] = (fields, [stats.conditional_total, stats.conditional_correct])

    # -- maintenance (repro cache) -------------------------------------
    def _log_paths(self) -> List[Path]:
        return sorted(self.root.glob(f"*{_LOG}")) if self.root.is_dir() else []

    def entries(self) -> Iterator[ResultEntry]:
        """Every readable cached row, once per digest, sorted by digest."""
        rows: Dict[str, ResultEntry] = {}
        for path in self._log_paths():
            for row, line in _log_rows(path):
                rows[row["digest"]] = ResultEntry(
                    row["digest"], str(row.get("spec", "?")), str(row.get("test", "?")),
                    str(row.get("train", "")), str(row.get("backend", "?")), len(line) + 2,
                )
        yield from (rows[digest] for digest in sorted(rows))

    def evict(self, digest: str) -> bool:
        """Remove one row by digest; True if it existed."""
        removed = False
        for path in self._log_paths():
            rows = _log_rows(path)
            kept = [line for row, line in rows if row["digest"] != digest]
            if len(kept) == len(rows):
                continue
            temp = path.with_name(path.name + ".tmp")
            with contextlib.suppress(OSError):
                temp.write_bytes(b"".join(b"\n" + line + b"\n" for line in kept))
                os.replace(temp, path)
                self._logs.pop(path.stem, None)
                removed = True
        return removed

    def clear(self) -> int:
        """Remove every log and legacy row file; returns the rows removed."""
        self._logs.clear()
        removed = 0
        for path in list(self.root.iterdir()) if self.root.is_dir() else []:
            if path.suffix == _LOG:
                rows = len({row["digest"] for row, _line in _log_rows(path)})
            elif path.suffix in (_LEGACY, ".tmp"):
                rows = int(path.suffix == _LEGACY)
            else:
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                removed += rows
        return removed
