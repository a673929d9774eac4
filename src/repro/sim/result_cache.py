"""Content-addressed sweep-result cache.

Scoring a (spec, benchmark) cell is a pure function of the spec string,
the exact trace contents and the simulation backend — and the trace store
already names every trace by a content digest
(:func:`repro.trace.store.content_key`).  That makes finished stats rows
cacheable by construction: the key digests

* the spec's canonical string and its family's ``semantics`` version
  (:class:`~repro.predictors.families.Family`), so a change to a family's
  predictions never returns a row computed under the old rule,
* the testing trace's store stem (which itself digests workload name,
  role, cap, generator version and dataset parameters),
* the training trace's stem for profiled schemes (empty otherwise), and
* the resolved backend (``scalar`` / ``vector``) — the backends are
  verified bit-identical, but backend-agreement tests *are the
  verification*, so a cache hit must never masquerade one backend's
  result as the other's.

Entries are one small JSON file each under ``<store root>/results/``,
alongside the trace store's shards and index, so ``repro cache`` can
list and evict them together with the traces and a wiped store wipes the
results derived from it.  Re-running an unchanged figure sweep then costs
one stat read per cell instead of a trace replay; any change to workload
generators, datasets, caps or specs changes the key and misses cleanly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from repro.predictors.families import Family, family_of
from repro.predictors.spec import parse_spec
from repro.sim.results import PredictionStats

__all__ = ["ResultCache", "ResultEntry", "result_key"]

#: bump to invalidate every persisted row (file schema change); a change
#: to one family's predictions bumps that family's ``semantics`` instead
FORMAT_VERSION = 2

_SUFFIX = ".json"


@functools.lru_cache(maxsize=1024)
def _family(spec_text: str) -> Family:
    """The family behind a spec string; its ``semantics`` is read live."""
    return family_of(parse_spec(spec_text))


def result_key(
    spec_text: str, test_stem: str, train_stem: Optional[str], backend: str
) -> str:
    """Digest naming one (spec, semantics, trace, options) stats row."""
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "spec": spec_text,
            "semantics": _family(spec_text).semantics,
            "test": test_stem,
            "train": train_stem or "",
            "backend": backend,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class ResultEntry(NamedTuple):
    """One cached row as listed by ``repro cache``."""

    digest: str
    spec: str
    test_stem: str
    train_stem: str
    backend: str
    size_bytes: int


class ResultCache:
    """Per-entry JSON files in a ``results/`` directory.

    Writes are atomic (temp file + rename) and every read validates the
    recorded key fields against the file name's digest, so a corrupt or
    hand-edited entry degrades to a cache miss, never a wrong stats row.
    """

    def __init__(self, root: "Path | str"):
        self.root = Path(root).expanduser()

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}{_SUFFIX}"

    # -- read ----------------------------------------------------------
    def get(
        self,
        spec_text: str,
        test_stem: str,
        train_stem: Optional[str],
        backend: str,
    ) -> Optional[PredictionStats]:
        digest = result_key(spec_text, test_stem, train_stem, backend)
        try:
            payload = json.loads(self._path(digest).read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if (
            payload.get("format") != FORMAT_VERSION
            or payload.get("spec") != spec_text
            or payload.get("test") != test_stem
            or payload.get("train") != (train_stem or "")
            or payload.get("backend") != backend
        ):
            return None
        stats = payload.get("stats")
        if not isinstance(stats, list) or len(stats) != 2:
            return None
        try:
            counters = [int(value) for value in stats]
        except (TypeError, ValueError):
            return None
        return PredictionStats(*counters)

    # -- write ---------------------------------------------------------
    def put(
        self,
        spec_text: str,
        test_stem: str,
        train_stem: Optional[str],
        backend: str,
        stats: PredictionStats,
    ) -> None:
        digest = result_key(spec_text, test_stem, train_stem, backend)
        payload = {
            "format": FORMAT_VERSION,
            "spec": spec_text,
            "test": test_stem,
            "train": train_stem or "",
            "backend": backend,
            "stats": [
                stats.conditional_total,
                stats.conditional_correct,
            ],
        }
        path = self._path(digest)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            temp = path.with_suffix(".tmp")
            temp.write_text(
                json.dumps(payload, sort_keys=True, separators=(",", ":")), "utf-8"
            )
            os.replace(temp, path)
        except OSError:
            # a read-only or full disk must not break the sweep; the row
            # simply stays uncached
            return

    # -- maintenance (repro cache) -------------------------------------
    def entries(self) -> Iterator[ResultEntry]:
        """Every readable cached row, sorted by digest."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            try:
                payload = json.loads(path.read_text("utf-8"))
                size = path.stat().st_size
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            yield ResultEntry(
                digest=path.stem,
                spec=str(payload.get("spec", "?")),
                test_stem=str(payload.get("test", "?")),
                train_stem=str(payload.get("train", "")),
                backend=str(payload.get("backend", "?")),
                size_bytes=size,
            )

    def evict(self, digest: str) -> bool:
        """Remove one row by digest; True if it existed."""
        try:
            self._path(digest).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Remove every cached row; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
