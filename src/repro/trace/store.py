"""Memory-mapped, sharded on-disk trace store.

Paper-scale runs replay ~20 million conditional branches per benchmark;
generating such a trace through the pure-Python ISA interpreter takes
minutes, so the trace *must* be paid for once per machine and then loaded
in milliseconds.  The store keeps:

* One **shard file** per trace, holding the three
  :class:`~repro.trace.columnar.PackedTrace` columns as contiguous
  sections plus a JSON meta section (instruction mix and the full content
  key), so every shard is self-describing.
* Shards are **memory-mapped** on load: the ``pc`` and ``target`` columns
  become zero-copy views into the page cache and the OS faults pages in
  as the kernels touch them.  A warm load opens the file once and is
  O(header) no matter the trace length.
* Keys are **content-addressed**: the stem embeds a digest of the
  generated program text, the scale, the shard-format version and the
  ISA's semantics version (:data:`repro.isa.SEMANTICS_VERSION`), so a
  generator edit, a data-set tweak, a format bump or a change to what the
  CPU or assembler makes of a program leaves the old entry unreachable
  rather than silently stale.
* The store is **bounded**: total shard bytes are kept under ``max_bytes``
  (default 4 GiB, override with ``REPRO_STORE_MAX_BYTES``) by evicting
  least-recently-used shards after each write.  Access statistics live in
  a best-effort ``index.json``; losing it costs only LRU fidelity (file
  mtimes take over), never data.  Loads record their hits in memory, and
  a store writes them with its next index write or when it is collected,
  so a run of loads costs one index write.  Each write re-reads and
  merges the index under an advisory lock (``index.json.lock``, where
  ``fcntl`` exists), so processes sharing a store lose no hit counts.

Corruption is reported through :class:`~repro.errors.StoreError` following
the trace readers' convention: promised byte/record counts next to what
was actually received.  The cache layer treats a corrupt shard as a miss
and regenerates; ``repro cache --verify`` surfaces the same errors to the
operator.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import threading
import time
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - not on POSIX: writes go unlocked
    fcntl = None  # type: ignore[assignment]

from repro import isa
from repro.errors import ConfigError, StoreError
from repro.trace.columnar import PackedTrace

__all__ = [
    "TraceStore",
    "ShardInfo",
    "content_key",
    "read_shard",
    "write_shard",
    "DEFAULT_MAX_BYTES",
    "FORMAT_VERSION",
    "SHARD_SUFFIX",
]

#: bump when the shard layout changes; part of every content key.
FORMAT_VERSION = 1

SHARD_SUFFIX = ".shard"

_MAGIC = b"YPSHARD1"

#: magic, compression code (always 0: shards are stored uncompressed, and
#: any other code reads as a :class:`StoreError`), address itemsize,
#: reserved, record count, then the four section byte lengths (pc,
#: target, flags, meta).
_HEADER = struct.Struct("<8sBBHQQQQQ")

DEFAULT_MAX_BYTES = 4 * 1024**3

_ADDR_TYPECODE = "I" if array("I").itemsize == 4 else "L"


# ----------------------------------------------------------------------
# content-addressed keys
# ----------------------------------------------------------------------
def content_key(
    workload: str, role: str, scale: int, source: str
) -> Tuple[str, Dict[str, Any]]:
    """The ``(stem, key_dict)`` identifying one trace in the store.

    ``source`` is the program text the trace is generated from (the
    workload's ``build_source`` for the role's data set).  The stem is
    human-scannable (``name-role-scale-digest``) while the digest covers
    the *canonical JSON* of that text's SHA-256, the scale, the shard
    format and the ISA semantics version: everything a trace is a function
    of, so no generator or CPU change can alias a stale shard.
    """
    key = {
        "workload": workload,
        "role": role,
        "scale": int(scale),
        "source": hashlib.sha256(source.encode()).hexdigest(),
        "format": FORMAT_VERSION,
        "isa": isa.SEMANTICS_VERSION,
    }
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    return f"{workload}-{role}-{scale}-{digest}", key


# ----------------------------------------------------------------------
# shard encode / decode
# ----------------------------------------------------------------------
def write_shard(path: Path, packed: PackedTrace, meta: Dict[str, Any]) -> int:
    """Write ``packed`` (plus its JSON ``meta``) as one shard file.

    The write is atomic (temp file + ``os.replace``), so readers never see
    a half-written shard.  Returns the shard's size in bytes.
    """
    sections = (
        memoryview(packed.pc).cast("B"),
        memoryview(packed.target).cast("B"),
        packed.flags,
        json.dumps(meta, sort_keys=True).encode(),
    )
    header = _HEADER.pack(
        _MAGIC,
        0,
        memoryview(packed.pc).itemsize,
        0,
        len(packed),
        *(len(section) for section in sections),
    )
    tmp = _temp_path(path)
    with open(tmp, "wb") as handle:
        handle.write(header)
        for section in sections:
            handle.write(section)
    os.replace(tmp, path)
    return _HEADER.size + sum(len(section) for section in sections)


def _parse_header(path: Path, raw: bytes) -> Tuple[int, int, Tuple[int, int, int, int]]:
    if len(raw) < _HEADER.size:
        raise StoreError(
            f"{path.name}: shard header needs {_HEADER.size} bytes,"
            f" got {len(raw)}"
        )
    magic, code, itemsize, _reserved, count, pc_len, target_len, flags_len, meta_len = (
        _HEADER.unpack_from(raw)
    )
    if magic != _MAGIC:
        raise StoreError(f"{path.name}: bad shard magic {magic!r} (expected {_MAGIC!r})")
    if code != 0:
        raise StoreError(
            f"{path.name}: compression code {code} is not supported"
            " (shards are stored uncompressed)"
        )
    return itemsize, count, (pc_len, target_len, flags_len, meta_len)


def read_shard(path: Path) -> Tuple[PackedTrace, Dict[str, Any]]:
    """Load one shard into a :class:`PackedTrace` plus its meta dict.

    The shard is memory-mapped: the address columns are zero-copy views
    into the mapping (the flag column is copied — the simulation layers
    need real ``bytes`` for C-speed ``translate`` counting).  Raises
    :class:`StoreError` for any damage, naming the promised and received
    byte counts.
    """
    try:
        with open(path, "rb") as handle:
            itemsize, count, sections = _parse_header(path, handle.read(_HEADER.size))
            total = _HEADER.size + sum(sections)
            size = os.fstat(handle.fileno()).st_size
            if size < total:
                raise StoreError(
                    f"{path.name}: truncated shard: header promises {total} bytes"
                    f" ({count} records), file has {size} bytes"
                )
            buffer = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
    except OSError as exc:
        raise StoreError(f"{path.name}: unreadable shard: {exc}") from exc

    pc_len, target_len, flags_len, meta_len = sections
    offset = _HEADER.size
    pc_raw = buffer[offset:offset + pc_len]
    offset += pc_len
    target_raw = buffer[offset:offset + target_len]
    offset += target_len
    flags_raw = buffer[offset:offset + flags_len]
    offset += flags_len
    meta_raw = bytes(buffer[offset:offset + meta_len])

    expected = count * itemsize
    if len(pc_raw) != expected or len(target_raw) != expected or len(flags_raw) != count:
        raise StoreError(
            f"{path.name}: column length mismatch: header promises {count}"
            f" records ({expected}B addresses, {count}B flags), got"
            f" pc={len(pc_raw)}B target={len(target_raw)}B flags={len(flags_raw)}B"
        )
    try:
        pc = pc_raw.cast(_ADDR_TYPECODE if itemsize == 4 else "Q")
        target = target_raw.cast(_ADDR_TYPECODE if itemsize == 4 else "Q")
    except TypeError as exc:
        raise StoreError(f"{path.name}: bad address itemsize {itemsize}") from exc
    flags = bytes(flags_raw)
    try:
        meta = json.loads(meta_raw.decode()) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path.name}: corrupt shard meta section: {exc}") from exc
    try:
        return PackedTrace(pc, target, flags), meta
    except Exception as exc:
        raise StoreError(f"{path.name}: corrupt shard columns: {exc}") from exc


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
@dataclass
class ShardInfo:
    """One store entry as reported by :meth:`TraceStore.entries`."""

    stem: str
    path: Path
    bytes: int
    records: int
    hits: int
    last_used: float
    created: float

    @property
    def name(self) -> str:
        return self.path.name


def default_max_bytes() -> int:
    """The store's size bound: ``REPRO_STORE_MAX_BYTES`` or 4 GiB."""
    value = os.environ.get("REPRO_STORE_MAX_BYTES")
    if not value:
        return DEFAULT_MAX_BYTES
    try:
        parsed = int(value)
    except ValueError as exc:
        raise ConfigError(
            f"REPRO_STORE_MAX_BYTES={value!r} is not an integer byte count"
        ) from exc
    if parsed <= 0:
        raise ConfigError("REPRO_STORE_MAX_BYTES must be positive")
    return parsed


class TraceStore:
    """A bounded, content-addressed shard store rooted at one directory.

    The cache layer (:class:`~repro.workloads.base.TraceCache`) is the
    normal client: it asks for ``load(stem)`` before generating and calls
    ``store(...)`` after.  The ``repro cache`` CLI drives the inspection
    surface (:meth:`entries`, :meth:`verify`, :meth:`evict`,
    :meth:`clear`).
    """

    def __init__(self, root: "Path | str", max_bytes: Optional[int] = None):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        if self.max_bytes <= 0:
            raise ConfigError("TraceStore max_bytes must be positive")
        self._index_path = self.root / "index.json"
        #: stem -> access stats not yet in ``index.json``: loads only touch
        #: memory, so a run of loads costs one index write, not one each
        self._pending: Dict[str, Dict[str, Any]] = {}
        weakref.finalize(self, _flush_touches, self._index_path, self._pending)

    # -- index (best-effort access stats) ------------------------------
    def _read_index(self) -> Dict[str, Dict[str, Any]]:
        """The index on disk with this instance's unwritten touches merged in."""
        return _merge_touches(_read_entries(self._index_path), self._pending)

    def _touch(self, stem: str, records: int, hit: bool) -> None:
        """Record an access in memory; the next index write carries it."""
        touch = self._pending.setdefault(stem, {"hits": 0})
        touch.update(records=records, last_used=time.time())
        touch["hits"] += int(hit)

    def flush(self) -> None:
        """Write the pending access stats to ``index.json`` now (a store
        also flushes them when it is collected or the interpreter exits)."""
        _flush_touches(self._index_path, self._pending)

    # -- core API ------------------------------------------------------
    def path_for(self, stem: str) -> Path:
        return self.root / f"{stem}{SHARD_SUFFIX}"

    def has(self, stem: str) -> bool:
        return self.path_for(stem).exists()

    def load(self, stem: str) -> Optional[Tuple[PackedTrace, Dict[str, Any]]]:
        """Load a shard by stem; ``None`` on a miss *or* a corrupt shard.

        A damaged shard behaves exactly like a miss (the caller regenerates
        and overwrites it); use :meth:`verify` / :func:`read_shard` when the
        damage itself is the point.
        """
        try:
            packed, meta = read_shard(self.path_for(stem))
        except StoreError:
            return None
        self._touch(stem, len(packed), hit=True)
        return packed, meta

    def store(
        self,
        stem: str,
        packed: PackedTrace,
        meta: Dict[str, Any],
    ) -> Path:
        """Write one shard, update stats, and evict down to ``max_bytes``.

        The entry just written is never its own eviction victim, so a trace
        larger than the bound still lands (the store simply holds that one
        oversized shard until something newer replaces it).
        """
        path = self.path_for(stem)
        write_shard(path, packed, meta)
        self._touch(stem, len(packed), hit=False)
        self.flush()
        self._evict_to_bound(keep=stem)
        return path

    # -- bounding ------------------------------------------------------
    def entries(self) -> List[ShardInfo]:
        """Every shard on disk, stats merged from the index (mtime fallback)."""
        index = self._read_index()
        infos: List[ShardInfo] = []
        for path in sorted(self.root.glob(f"*{SHARD_SUFFIX}")):
            stem = path.name[: -len(SHARD_SUFFIX)]
            try:
                stat = path.stat()
            except OSError:
                continue
            entry = index.get(stem, {})
            records = int(entry.get("records", 0))
            if not entry:
                with contextlib.suppress(StoreError):
                    _itemsize, records, _sections = read_shard_header(path)
            infos.append(
                ShardInfo(
                    stem=stem,
                    path=path,
                    bytes=stat.st_size,
                    records=records,
                    hits=int(entry.get("hits", 0)),
                    last_used=float(entry.get("last_used", stat.st_mtime)),
                    created=float(entry.get("created", stat.st_mtime)),
                )
            )
        return infos

    def _evict_to_bound(self, keep: Optional[str] = None) -> List[str]:
        infos = self.entries()
        total = sum(info.bytes for info in infos)
        victims: List[str] = []
        if total <= self.max_bytes:
            return victims
        for info in sorted(infos, key=lambda i: i.last_used):
            if total <= self.max_bytes:
                break
            if info.stem == keep:
                continue
            try:
                info.path.unlink()
            except OSError:
                continue
            total -= info.bytes
            victims.append(info.stem)
        if victims:
            _update_index(self._index_path, self._pending, victims)
        return victims

    def evict(self, stems: List[str]) -> List[str]:
        """Explicitly drop the named shards; returns the stems removed."""
        removed: List[str] = []
        for stem in stems:
            try:
                self.path_for(stem).unlink()
                removed.append(stem)
            except OSError:
                pass
        _update_index(self._index_path, self._pending, stems)
        return removed

    def clear(self) -> int:
        """Drop every shard; returns how many were removed."""
        count = 0
        for path in self.root.glob(f"*{SHARD_SUFFIX}"):
            try:
                path.unlink()
                count += 1
            except OSError:
                pass
        _update_index(self._index_path, self._pending, None)
        return count

    def verify(self) -> List[Tuple[str, Optional[StoreError]]]:
        """Fully read every shard; ``(stem, None)`` when sound, else the error."""
        results: List[Tuple[str, Optional[StoreError]]] = []
        for path in sorted(self.root.glob(f"*{SHARD_SUFFIX}")):
            stem = path.name[: -len(SHARD_SUFFIX)]
            try:
                read_shard(path)
            except StoreError as exc:
                results.append((stem, exc))
            else:
                results.append((stem, None))
        return results


def _merge_touches(
    entries: Dict[str, Dict[str, Any]], pending: Dict[str, Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """``entries`` with every pending touch applied (hits add up)."""
    for stem, touch in pending.items():
        entry = entries.setdefault(stem, {"created": touch["last_used"], "hits": 0})
        hits = int(entry.get("hits", 0)) + touch["hits"]
        entry.update(touch)
        entry["hits"] = hits
    return entries


def _temp_path(path: Path) -> Path:
    """A temp name next to ``path`` that no other process or thread
    writing the same file uses."""
    return path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")


@contextlib.contextmanager
def _index_lock(path: Path) -> Iterator[None]:
    """Hold the advisory lock of the index at ``path`` (none without
    ``fcntl``, or when the lock file cannot be opened)."""
    handle = None
    if fcntl is not None:
        with contextlib.suppress(OSError):
            handle = open(path.with_name(path.name + ".lock"), "a")
    if handle is None:
        yield
        return
    with handle:  # closing the file releases the lock
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


def _update_index(
    path: Path, pending: Dict[str, Dict[str, Any]], drop: Optional[Iterable[str]] = ()
) -> None:
    """Read, merge ``pending`` into, and rewrite the index at ``path``
    under its lock, dropping ``drop``'s entries (``None``: all of them);
    then forget ``pending``."""
    with _index_lock(path):
        entries = {} if drop is None else _merge_touches(_read_entries(path), pending)
        for stem in drop or ():
            entries.pop(stem, None)
        tmp = _temp_path(path)
        try:
            tmp.write_text(json.dumps({"entries": entries}, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except OSError:
            pass  # stats are advisory; never fail a run over them
    pending.clear()


def _read_entries(path: Path) -> Dict[str, Dict[str, Any]]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    entries = data.get("entries") if isinstance(data, dict) else None
    return entries if isinstance(entries, dict) else {}


def _flush_touches(path: Path, pending: Dict[str, Dict[str, Any]]) -> None:
    """Merge ``pending`` into the index at ``path`` and forget it; a
    store's finalizer, so its loads reach the index when it is collected
    or the interpreter exits."""
    if pending:
        _update_index(path, pending)


def read_shard_header(path: Path) -> Tuple[int, int, Tuple[int, int, int, int]]:
    """Parse just a shard's header: ``(itemsize, records, section_lengths)``.
    Raises :class:`StoreError` on damage."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
    except OSError as exc:
        raise StoreError(f"{path.name}: unreadable shard: {exc}") from exc
    return _parse_header(path, head)
