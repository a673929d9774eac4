"""Memory-mapped, sharded on-disk trace store.

Paper-scale runs replay ~20 million conditional branches per benchmark;
generating such a trace through the pure-Python ISA interpreter takes
minutes, so the trace *must* be paid for once per machine and then loaded
in milliseconds.  The legacy disk layer (``.trc`` files written by
:class:`~repro.workloads.base.TraceCache`) re-parsed nine bytes per record
through ``struct.iter_unpack`` on every warm load — fine at 50k records,
minutes at 20M.  This module replaces it with a *shard* store:

* One **shard file** per trace, holding the three
  :class:`~repro.trace.columnar.PackedTrace` columns as contiguous
  sections plus a JSON meta section (instruction mix and the full content
  key), so every shard is self-describing.
* Uncompressed shards are **memory-mapped** on load: the ``pc`` and
  ``target`` columns become zero-copy views into the page cache and the
  OS faults pages in as the kernels touch them.  A warm load is O(header)
  no matter the trace length.
* Shards may be **zstd-compressed** (the ``[store]`` optional extra).
  When the ``zstandard`` module is missing the store degrades gracefully
  to uncompressed shards; only *reading* an already-compressed shard
  without the module is an error (a typed :class:`StoreError`).
* Keys are **content-addressed**: the stem embeds a digest of the
  workload name, role, data-set parameters, workload version, scale and
  shard-format version, so *any* ingredient changing (a program generator
  edit, a data-set tweak, a format bump) makes the old entry unreachable
  rather than silently stale.
* The store is **bounded**: total shard bytes are kept under ``max_bytes``
  (default 4 GiB, override with ``REPRO_STORE_MAX_BYTES``) by evicting
  least-recently-used shards after each write.  Access statistics live in
  a best-effort ``index.json``; losing it costs only LRU fidelity (file
  mtimes take over), never data.  Loads record their hits in memory, and
  a store writes them with its next index write or when it is collected,
  so a run of loads costs one index write.

Corruption is reported through :class:`~repro.errors.StoreError` following
the trace readers' convention: promised byte/record counts next to what
was actually received.  The cache layer treats a corrupt shard as a miss
and regenerates; ``repro cache --verify`` surfaces the same errors to the
operator.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import time
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, StoreError
from repro.trace.columnar import PackedTrace

__all__ = [
    "TraceStore",
    "ShardInfo",
    "content_key",
    "read_shard",
    "write_shard",
    "zstd_available",
    "DEFAULT_MAX_BYTES",
    "FORMAT_VERSION",
    "SHARD_SUFFIX",
]

#: bump when the shard layout changes; part of every content key.
FORMAT_VERSION = 1

SHARD_SUFFIX = ".shard"

_MAGIC = b"YPSHARD1"

#: magic, compression (0=none, 1=zstd), address itemsize, reserved,
#: record count, then the four section byte lengths (pc, target, flags,
#: meta) as stored on disk (i.e. post-compression).
_HEADER = struct.Struct("<8sBBHQQQQQ")

_COMPRESSION_NONE = 0
_COMPRESSION_ZSTD = 1
_COMPRESSION_NAMES = {_COMPRESSION_NONE: "none", _COMPRESSION_ZSTD: "zstd"}

DEFAULT_MAX_BYTES = 4 * 1024**3

_ADDR_TYPECODE = "I" if array("I").itemsize == 4 else "L"


def _zstd() -> Any:
    """The ``zstandard`` module, or ``None`` when the extra is not installed."""
    try:
        import zstandard
    except ImportError:
        return None
    return zstandard


def zstd_available() -> bool:
    """Whether compressed shards can be written (and read) in this process."""
    return _zstd() is not None


def _resolve_compression(requested: Optional[str]) -> int:
    """Map a compression request to the on-disk code.

    ``None``/``"auto"`` uses zstd when installed and degrades to
    uncompressed otherwise; an explicit ``"zstd"`` without the module is a
    configuration error rather than a silent downgrade.
    """
    if requested in (None, "auto"):
        return _COMPRESSION_ZSTD if zstd_available() else _COMPRESSION_NONE
    if requested == "none":
        return _COMPRESSION_NONE
    if requested == "zstd":
        if not zstd_available():
            raise ConfigError(
                "compression 'zstd' requested but the zstandard module is not"
                " installed (pip install 'repro-branch-prediction[store]')"
            )
        return _COMPRESSION_ZSTD
    raise ConfigError(
        f"unknown shard compression {requested!r} (choose none, zstd, or auto)"
    )


# ----------------------------------------------------------------------
# content-addressed keys
# ----------------------------------------------------------------------
def content_key(
    workload: str,
    role: str,
    scale: int,
    version: int,
    params: Optional[Dict[str, int]] = None,
) -> Tuple[str, Dict[str, Any]]:
    """The ``(stem, key_dict)`` identifying one trace in the store.

    The stem is human-scannable (``name-role-scale-vN-digest``) while the
    digest covers the *canonical JSON* of every generation ingredient —
    including the data-set parameters, which the legacy cache keys omitted
    — so a changed seed or table size can never alias a stale shard.
    """
    key = {
        "workload": workload,
        "role": role,
        "scale": int(scale),
        "version": int(version),
        "params": dict(sorted((params or {}).items())),
        "format": FORMAT_VERSION,
    }
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    stem = f"{workload}-{role}-{scale}-v{version}-{digest}"
    return stem, key


# ----------------------------------------------------------------------
# shard encode / decode
# ----------------------------------------------------------------------
def write_shard(
    path: Path,
    packed: PackedTrace,
    meta: Dict[str, Any],
    compression: Optional[str] = None,
) -> int:
    """Write ``packed`` (plus its JSON ``meta``) as one shard file.

    The write is atomic (temp file + ``os.replace``), so readers never see
    a half-written shard.  Returns the shard's size in bytes.
    """
    code = _resolve_compression(compression)
    pc_raw = bytes(memoryview(packed.pc))
    target_raw = bytes(memoryview(packed.target))
    flags_raw = packed.flags
    meta_raw = json.dumps(meta, sort_keys=True).encode()
    itemsize = memoryview(packed.pc).itemsize
    if code == _COMPRESSION_ZSTD:
        compressor = _zstd().ZstdCompressor()
        pc_raw = compressor.compress(pc_raw)
        target_raw = compressor.compress(target_raw)
        flags_raw = compressor.compress(flags_raw)
    header = _HEADER.pack(
        _MAGIC,
        code,
        itemsize,
        0,
        len(packed),
        len(pc_raw),
        len(target_raw),
        len(flags_raw),
        len(meta_raw),
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(pc_raw)
        handle.write(target_raw)
        handle.write(flags_raw)
        handle.write(meta_raw)
    os.replace(tmp, path)
    return _HEADER.size + len(pc_raw) + len(target_raw) + len(flags_raw) + len(meta_raw)


def _parse_header(path: Path, raw: bytes) -> Tuple[int, int, int, Tuple[int, int, int, int]]:
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
    if code not in _COMPRESSION_NAMES:
        raise StoreError(f"{path.name}: unknown compression code {code}")
    return code, itemsize, count, (pc_len, target_len, flags_len, meta_len)


def read_shard(path: Path) -> Tuple[PackedTrace, Dict[str, Any]]:
    """Load one shard into a :class:`PackedTrace` plus its meta dict.

    Uncompressed shards are memory-mapped: the address columns are
    zero-copy views into the mapping (the flag column is copied — the
    simulation layers need real ``bytes`` for C-speed ``translate``
    counting).  Raises :class:`StoreError` for any damage, naming the
    promised and received byte counts.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
            code, itemsize, count, sections = _parse_header(path, head)
            total = _HEADER.size + sum(sections)
            size = os.fstat(handle.fileno()).st_size
            if size < total:
                raise StoreError(
                    f"{path.name}: truncated shard: header promises {total} bytes"
                    f" ({count} records), file has {size} bytes"
                )
            if code == _COMPRESSION_NONE:
                buffer: Any = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            else:
                buffer = memoryview(handle.read(total - _HEADER.size))
                # shift section offsets back as if the header were present
                buffer = memoryview(bytes(_HEADER.size) + bytes(buffer))
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

    if code == _COMPRESSION_ZSTD:
        zstandard = _zstd()
        if zstandard is None:
            raise StoreError(
                f"{path.name}: shard is zstd-compressed but the zstandard module"
                " is not installed (pip install 'repro-branch-prediction[store]')"
            )
        decompressor = zstandard.ZstdDecompressor()
        pc_raw = memoryview(decompressor.decompress(bytes(pc_raw), max_output_size=count * itemsize))
        target_raw = memoryview(decompressor.decompress(bytes(target_raw), max_output_size=count * itemsize))
        flags_raw = memoryview(decompressor.decompress(bytes(flags_raw), max_output_size=count))

    expected = count * itemsize
    if len(pc_raw) != expected or len(target_raw) != expected or len(flags_raw) != count:
        raise StoreError(
            f"{path.name}: column length mismatch: header promises {count}"
            f" records ({expected}B addresses, {count}B flags), got"
            f" pc={len(pc_raw)}B target={len(target_raw)}B flags={len(flags_raw)}B"
        )
    try:
        pc = pc_raw.cast("B").cast(_ADDR_TYPECODE if itemsize == 4 else "Q")
        target = target_raw.cast("B").cast(_ADDR_TYPECODE if itemsize == 4 else "Q")
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
    compression: str
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

    def __init__(
        self,
        root: "Path | str",
        max_bytes: Optional[int] = None,
        compression: Optional[str] = None,
    ):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        if self.max_bytes <= 0:
            raise ConfigError("TraceStore max_bytes must be positive")
        self.compression = compression
        self._index_path = self.root / "index.json"
        #: stem -> access stats not yet in ``index.json``: loads only touch
        #: memory, so a run of loads costs one index write, not one each
        self._pending: Dict[str, Dict[str, Any]] = {}
        weakref.finalize(self, _flush_touches, self._index_path, self._pending)

    # -- index (best-effort access stats) ------------------------------
    def _read_index(self) -> Dict[str, Dict[str, Any]]:
        """The index on disk with this instance's unwritten touches merged in."""
        return _merge_touches(_read_entries(self._index_path), self._pending)

    def _write_index(self, entries: Dict[str, Dict[str, Any]]) -> None:
        """Write ``entries`` (read through :meth:`_read_index`, so they hold
        every pending touch) and forget the pending touches."""
        _dump_index(self._index_path, entries)
        self._pending.clear()

    def _touch(self, stem: str, size: int, records: int, code: int, hit: bool) -> None:
        """Record an access in memory; the next index write carries it."""
        touch = self._pending.setdefault(stem, {"hits": 0})
        touch.update(
            bytes=size, records=records, compression=_COMPRESSION_NAMES[code],
            last_used=time.time(),
        )
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
        path = self.path_for(stem)
        if not path.exists():
            return None
        try:
            packed, meta = read_shard(path)
        except StoreError:
            return None
        try:
            code, _itemsize, _count, _sections = read_shard_header(path)
            size = path.stat().st_size
        except (StoreError, OSError):  # pragma: no cover - raced deletion
            code, size = _COMPRESSION_NONE, 0
        self._touch(stem, size, len(packed), code, hit=True)
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
        size = write_shard(path, packed, meta, self.compression)
        code = _resolve_compression(self.compression)
        self._touch(stem, size, len(packed), code, hit=False)
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
            compression = str(entry.get("compression", "?"))
            if not entry:
                try:
                    code, _itemsize, records, _sections = read_shard_header(path)
                    compression = _COMPRESSION_NAMES[code]
                except StoreError:
                    compression = "corrupt"
            infos.append(
                ShardInfo(
                    stem=stem,
                    path=path,
                    bytes=stat.st_size,
                    records=records,
                    compression=compression,
                    hits=int(entry.get("hits", 0)),
                    last_used=float(entry.get("last_used", stat.st_mtime)),
                    created=float(entry.get("created", stat.st_mtime)),
                )
            )
        return infos

    def total_bytes(self) -> int:
        return sum(info.bytes for info in self.entries())

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
            entries = self._read_index()
            for stem in victims:
                entries.pop(stem, None)
            self._write_index(entries)
        return victims

    def evict(self, stems: List[str]) -> List[str]:
        """Explicitly drop the named shards; returns the stems removed."""
        removed: List[str] = []
        entries = self._read_index()
        for stem in stems:
            path = self.path_for(stem)
            try:
                path.unlink()
                removed.append(stem)
            except OSError:
                pass
            entries.pop(stem, None)
        self._write_index(entries)
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
        self._write_index({})
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


def _dump_index(path: Path, entries: Dict[str, Dict[str, Any]]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps({"entries": entries}, sort_keys=True, indent=1))
        os.replace(tmp, path)
    except OSError:
        pass  # stats are advisory; never fail a run over them


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
        _dump_index(path, _merge_touches(_read_entries(path), pending))
        pending.clear()


def read_shard_header(path: Path) -> Tuple[int, int, int, Tuple[int, int, int, int]]:
    """Parse just a shard's header: ``(compression, itemsize, records,
    section_lengths)``.  Raises :class:`StoreError` on damage."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
    except OSError as exc:
        raise StoreError(f"{path.name}: unreadable shard: {exc}") from exc
    return _parse_header(path, head)
