"""The memory-mapped shard store: round-trips, bounds, keys, corruption.

Everything here runs without NumPy and without zstandard — the store is
pure stdlib; compressed-shard behaviour is asserted both ways (with the
module when installed, and the documented degradation when not).
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.errors import ConfigError, ReproError, StoreError
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord
from repro.trace.store import (
    DEFAULT_MAX_BYTES,
    FORMAT_VERSION,
    SHARD_SUFFIX,
    TraceStore,
    content_key,
    default_max_bytes,
    read_shard,
    read_shard_header,
    write_shard,
    zstd_available,
)


def _records(count=50, seed=3):
    out = []
    state = seed
    for index in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(
            BranchRecord(
                pc=0x1000 + 4 * (index % 7),
                cls=BranchClass.CONDITIONAL,
                taken=bool(state & 1),
                target=0x8000 + 4 * (state % 1000),
            )
        )
    return out


@pytest.fixture
def packed():
    return pack_records(_records())


@pytest.fixture
def meta():
    return {"mix": {"conditional": 50}, "key": {"workload": "t"}}


class TestShardRoundTrip:
    def test_uncompressed_round_trip(self, tmp_path, packed, meta):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        size = write_shard(path, packed, meta, compression="none")
        assert path.stat().st_size == size
        loaded, loaded_meta = read_shard(path)
        assert list(loaded.pc) == list(packed.pc)
        assert list(loaded.target) == list(packed.target)
        assert bytes(loaded.flags) == bytes(packed.flags)
        assert loaded_meta == meta

    def test_header_reports_geometry(self, tmp_path, packed, meta):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        write_shard(path, packed, meta, compression="none")
        code, itemsize, count, sections = read_shard_header(path)
        assert code == 0
        assert count == len(packed)
        assert sections[0] == count * itemsize

    def test_zstd_round_trip_or_config_error(self, tmp_path, packed, meta):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        if not zstd_available():
            # explicit zstd without the optional extra must fail loudly...
            with pytest.raises(ConfigError, match="zstd"):
                write_shard(path, packed, meta, compression="zstd")
            # ...while auto degrades to an uncompressed shard silently
            write_shard(path, packed, meta, compression="auto")
            assert read_shard_header(path)[0] == 0
            return
        write_shard(path, packed, meta, compression="zstd")
        code, _itemsize, _count, _sections = read_shard_header(path)
        assert code == 1
        loaded, loaded_meta = read_shard(path)
        assert list(loaded.pc) == list(packed.pc)
        assert loaded_meta == meta

    def test_unknown_compression_rejected(self, tmp_path, packed, meta):
        with pytest.raises(ConfigError):
            write_shard(tmp_path / "x.shard", packed, meta, compression="lz77")


class TestCorruption:
    def test_truncated_shard_names_promised_and_received(self, tmp_path, packed, meta):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        write_shard(path, packed, meta, compression="none")
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(StoreError, match=r"promises \d+ bytes.*has \d+ bytes"):
            read_shard(path)

    def test_bad_magic(self, tmp_path, packed, meta):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        write_shard(path, packed, meta, compression="none")
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="magic"):
            read_shard(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / f"one{SHARD_SUFFIX}"
        path.write_bytes(b"YP")
        with pytest.raises(StoreError, match="header"):
            read_shard(path)

    def test_missing_file_is_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="unreadable"):
            read_shard(tmp_path / f"ghost{SHARD_SUFFIX}")

    def test_store_error_is_repro_error(self):
        assert issubclass(StoreError, ReproError)

    def test_load_treats_corruption_as_miss(self, tmp_path, packed, meta):
        store = TraceStore(tmp_path)
        store.store("one", packed, meta)
        path = store.path_for("one")
        path.write_bytes(path.read_bytes()[:20])
        assert store.load("one") is None

    def test_verify_reports_per_shard(self, tmp_path, packed, meta):
        store = TraceStore(tmp_path)
        store.store("good", packed, meta)
        store.store("bad", packed, meta)
        bad = store.path_for("bad")
        bad.write_bytes(bad.read_bytes()[:30])
        results = dict(store.verify())
        assert results["good"] is None
        assert isinstance(results["bad"], StoreError)


class TestContentKey:
    def test_stem_embeds_ingredients(self):
        stem, key = content_key("eqntott", "test", 5000, 2, {"seed": 7})
        assert stem.startswith("eqntott-test-5000-v2-")
        assert key["format"] == FORMAT_VERSION
        assert key["params"] == {"seed": 7}

    def test_any_ingredient_changes_the_stem(self):
        base, _ = content_key("eqntott", "test", 5000, 2, {"seed": 7})
        assert content_key("eqntott", "train", 5000, 2, {"seed": 7})[0] != base
        assert content_key("eqntott", "test", 5001, 2, {"seed": 7})[0] != base
        assert content_key("eqntott", "test", 5000, 3, {"seed": 7})[0] != base
        # dataset parameters are covered (the legacy cache's blind spot)
        assert content_key("eqntott", "test", 5000, 2, {"seed": 8})[0] != base

    def test_param_order_is_canonical(self):
        a, _ = content_key("li", "test", 100, 1, {"a": 1, "b": 2})
        b, _ = content_key("li", "test", 100, 1, {"b": 2, "a": 1})
        assert a == b


class TestStoreLifecycle:
    def test_store_load_hit_stats(self, tmp_path, packed, meta):
        store = TraceStore(tmp_path)
        stem = "eqntott-test-50-v1-abc"
        assert store.load(stem) is None
        store.store(stem, packed, meta)
        assert store.has(stem)
        loaded, loaded_meta = store.load(stem)
        assert len(loaded) == len(packed)
        assert loaded_meta == meta
        (info,) = store.entries()
        assert info.stem == stem
        assert info.hits == 1
        assert info.records == len(packed)

    def test_lru_eviction_bounds_total(self, tmp_path, packed, meta):
        shard_size = write_shard(tmp_path / "probe.bin", packed, meta, "none")
        store = TraceStore(tmp_path / "store", max_bytes=int(shard_size * 2.5))
        store.store("a", packed, meta)
        store.store("b", packed, meta)
        store.load("a")  # refresh a: b becomes the LRU victim
        store.store("c", packed, meta)
        stems = {info.stem for info in store.entries()}
        assert stems == {"a", "c"}
        assert store.total_bytes() <= store.max_bytes

    def test_loads_write_the_index_once(self, tmp_path, packed, meta, monkeypatch):
        TraceStore(tmp_path).store("a", packed, meta)
        writes = []
        replace = os.replace

        def counting(src, dst):
            if Path(dst).name == "index.json":
                writes.append(dst)
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        store = TraceStore(tmp_path)
        for _ in range(14):
            assert store.load("a") is not None
        assert writes == []  # the hits wait in memory...
        assert [info.hits for info in store.entries()] == [14]  # ...and count already
        del store  # a collected store writes them in one go
        gc.collect()
        assert len(writes) == 1
        assert [info.hits for info in TraceStore(tmp_path).entries()] == [14]

    def test_new_entry_never_evicts_itself(self, tmp_path, packed, meta):
        shard_size = write_shard(tmp_path / "probe.bin", packed, meta, "none")
        store = TraceStore(tmp_path / "store", max_bytes=max(1, shard_size // 2))
        store.store("huge", packed, meta)
        assert store.has("huge")

    def test_explicit_evict_and_clear(self, tmp_path, packed, meta):
        store = TraceStore(tmp_path)
        store.store("a", packed, meta)
        store.store("b", packed, meta)
        assert store.evict(["a", "ghost"]) == ["a"]
        assert not store.has("a") and store.has("b")
        assert store.clear() == 1
        assert store.entries() == []

    def test_index_loss_only_costs_stats(self, tmp_path, packed, meta):
        store = TraceStore(tmp_path)
        store.store("a", packed, meta)
        (tmp_path / "index.json").unlink()
        loaded, _ = store.load("a")
        assert len(loaded) == len(packed)
        (info,) = store.entries()
        assert info.records == len(packed)  # re-read from the shard header

    def test_bad_max_bytes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "a lot")
        with pytest.raises(ConfigError):
            default_max_bytes()
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "-5")
        with pytest.raises(ConfigError):
            default_max_bytes()
        monkeypatch.delenv("REPRO_STORE_MAX_BYTES")
        assert default_max_bytes() == DEFAULT_MAX_BYTES
