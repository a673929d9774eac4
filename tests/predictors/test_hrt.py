"""History register table front-ends: IHRT, AHRT (LRU + inheritance), HHRT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.predictors.hrt import AHRT, HHRT, IHRT, _index_hash


class TestIHRT:
    def test_allocates_init_payload(self):
        table = IHRT(init_payload=7)
        assert table.get(0x100) == 7
        assert table.misses == 1

    def test_put_get(self):
        table = IHRT()
        table.get(0x100)
        table.put(0x100, 42)
        assert table.get(0x100) == 42
        assert table.hits == 1

    def test_never_evicts(self):
        table = IHRT(init_payload=1)
        for index in range(10_000):
            table.put(4 * index, index)
        assert table.get(0) == 0
        assert table.get(4 * 9_999) == 9_999
        assert table.misses == 0

    def test_reset(self):
        table = IHRT()
        table.get(0x10)
        table.reset()
        assert table.hits == table.misses == 0
        table.get(0x10)  # the entry went with the reset
        assert table.misses == 1

    def test_spec_name(self):
        assert IHRT().spec_name == "IHRT(,"


class TestAHRT:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AHRT(0)
        with pytest.raises(ConfigError):
            AHRT(10, associativity=4)  # not a multiple

    def test_hit_after_allocation(self):
        table = AHRT(16, init_payload=5)
        assert table.get(0x40) == 5
        assert table.get(0x40) == 5
        assert table.hits == 1 and table.misses == 1

    def test_lru_eviction_within_set(self):
        table = AHRT(4, init_payload=0, associativity=4)  # one set
        pcs = [4 * i for i in range(4)]
        for payload, pc in enumerate(pcs):
            table.get(pc)
            table.put(pc, payload + 10)
        table.get(pcs[0])  # touch pc0: now pc1 is LRU
        table.get(0x1000)  # allocate a 5th entry -> evicts pc1
        assert table.evictions == 1
        before = table.misses
        table.get(pcs[0])
        table.get(pcs[2])
        table.get(pcs[3])
        assert table.misses == before  # all still resident
        table.get(pcs[1])  # evicted -> miss
        assert table.misses == before + 1

    def test_eviction_inherits_payload(self):
        """Paper section 4.2: a re-allocated register is NOT re-initialised —
        the new branch inherits the victim's bits."""
        table = AHRT(4, init_payload=0, associativity=4)
        for index in range(4):
            table.get(4 * index)
            table.put(4 * index, 100 + index)
        # 5th branch evicts LRU (pc=0, payload 100) and inherits it
        assert table.get(0x2000) == 100

    def test_fresh_ways_use_init_payload(self):
        table = AHRT(8, init_payload=9, associativity=4)
        assert table.get(0x0) == 9
        assert table.get(0x4) == 9

    def test_put_unknown_pc_is_noop(self):
        table = AHRT(8)
        table.put(0x123400, 5)  # never allocated: silently ignored
        assert table.get(0x123400) == 0

    def test_reset(self):
        table = AHRT(8, init_payload=3)
        table.get(0)
        table.put(0, 42)
        table.reset()
        assert table.get(0) == 3
        assert table.misses == 1

    def test_spec_name(self):
        assert AHRT(512).spec_name == "AHRT(512,"


class TestHHRT:
    def test_collision_shares_register(self):
        table = HHRT(4, init_payload=0)
        # find two pcs hashing to the same slot
        base = 0x1000
        colliding = next(
            pc
            for pc in range(base + 4, base + 4096, 4)
            if _index_hash(pc, 4) == _index_hash(base, 4)
        )
        table.get(base)
        table.put(base, 77)
        assert table.get(colliding) == 77  # reads the shared register

    def test_collision_statistics(self):
        table = HHRT(1)
        table.get(0x0)
        table.get(0x4)
        table.get(0x0)
        assert table.collisions == 2  # both takeovers counted

    def test_same_pc_hits(self):
        table = HHRT(8)
        table.get(0x40)
        table.get(0x40)
        assert table.hits == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            HHRT(0)

    def test_reset(self):
        table = HHRT(4, init_payload=2)
        table.get(0)
        table.put(0, 9)
        table.reset()
        assert table.get(0) == 2

    def test_spec_name(self):
        assert HHRT(256).spec_name == "HHRT(256,"


class TestProperties:
    @given(
        pcs=st.lists(st.integers(0, 1 << 20).map(lambda x: x * 4), min_size=1, max_size=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_ihrt_round_trips_all_payloads(self, pcs):
        table = IHRT()
        for payload, pc in enumerate(pcs):
            table.get(pc)
            table.put(pc, payload)
        latest = {pc: payload for payload, pc in enumerate(pcs)}
        for pc, payload in latest.items():
            assert table.get(pc) == payload

    @given(
        entries=st.sampled_from([4, 16, 64]),
        pcs=st.lists(st.integers(0, 4096).map(lambda x: x * 4), max_size=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_ahrt_accounting_consistent(self, entries, pcs):
        table = AHRT(entries)
        for pc in pcs:
            table.get(pc)
        assert table.hits + table.misses == len(pcs)
        assert table.evictions <= table.misses

    @given(
        entries=st.sampled_from([1, 8, 32]),
        pcs=st.lists(st.integers(0, 4096).map(lambda x: x * 4), max_size=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_hhrt_payload_is_slot_local(self, entries, pcs):
        """A put is always visible to any pc hashing to the same slot."""
        table = HHRT(entries)
        for payload, pc in enumerate(pcs):
            table.get(pc)
            table.put(pc, payload)
            assert table.get(pc) == payload
