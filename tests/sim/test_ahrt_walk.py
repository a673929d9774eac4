"""The AHRT register walk against the per-set LRU loop it replaced.

``_ahrt_registers`` and the streaming :class:`AhrtReplay` share one walk
that visits only the LRU events of the conflicted sets.  The reference
below is the earlier implementation, copied here: a whole-trace
``np.unique`` of the ``(set, pc)`` pairs, then one fresh per-record replay
per conflicted set.  Register ids are bucket keys, so what must agree is
the *partition* of accesses into registers; the ids themselves may be
numbered differently.

The pc streams are adversarial: pcs are picked so that every set of the
geometry holds up to three times as many distinct tags as it has ways,
and streams mix long repeat runs with round-robin thrash over
``associativity + 1`` tags of one set, the pattern that evicts on every
touch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.spec import parse_spec
from repro.sim.backend import has_numpy
from repro.sim.engine import simulate
from repro.sim.kernels import AhrtReplay, _ahrt_registers, _hash_buckets, score_spec
from repro.trace.columnar import pack_records
from repro.trace.record import BranchClass, BranchRecord

pytestmark = pytest.mark.skipif(not has_numpy(), reason="NumPy not installed")

if has_numpy():
    import numpy as np


class _ReferenceReplay:
    """The earlier per-record LRU replay: every touch walks its set's
    recency list, consecutive repeats short-circuited."""

    def __init__(self, entries: int, associativity: int):
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._sets: Dict[int, Tuple[Dict[int, int], list]] = {}
        self._next_register = 0

    def assign(self, np, pc):
        sets = _hash_buckets(np, pc, self.num_sets)
        out = [0] * len(pc)
        assoc = self.associativity
        tables = self._sets
        last_set = last_tag = last_register = -1
        for i, (set_index, tag) in enumerate(zip(sets.tolist(), pc.tolist())):
            if set_index == last_set and tag == last_tag:
                out[i] = last_register
                continue
            ways = tables.get(set_index)
            if ways is None:
                ways = ({}, [])
                tables[set_index] = ways
            tagmap, recency = ways
            register = tagmap.get(tag)
            if register is None:
                if len(tagmap) < assoc:
                    register = self._next_register
                    self._next_register += 1
                else:
                    victim = recency.pop(0)
                    register = tagmap.pop(victim)
                tagmap[tag] = register
                recency.append(tag)
            elif recency[-1] != tag:
                recency.remove(tag)
                recency.append(tag)
            out[i] = register
            last_set, last_tag, last_register = set_index, tag, register
        return np.asarray(out, dtype=np.int64)


def _reference_registers(np, pc, entries: int, associativity: int):
    """The earlier ``_ahrt_registers``: dense ``(set, pc)`` pair ids for the
    unconflicted sets, one fresh replay per conflicted set."""
    num_sets = entries // associativity
    sets = _hash_buckets(np, pc, num_sets)
    pairs = (sets << np.int64(32)) | pc
    unique_pairs, pair_ids = np.unique(pairs, return_inverse=True)
    distinct_per_set = np.bincount(unique_pairs >> 32, minlength=num_sets)
    conflicted = distinct_per_set > associativity
    registers = pair_ids.astype(np.int64)
    if not conflicted.any():
        return registers
    touched = np.nonzero(conflicted[sets])[0]
    order = touched[np.argsort(sets[touched], kind="stable")]
    boundaries = np.nonzero(np.diff(sets[order]))[0] + 1
    base = len(unique_pairs)
    for chunk in np.split(order, boundaries):
        registers[chunk] = _ReferenceReplay(entries, associativity).assign(np, pc[chunk]) + base
        base += associativity
    return registers


def _same_partition(left, right) -> bool:
    """Whether two id columns group the accesses identically."""
    left, right = list(left), list(right)
    return len(set(zip(left, right))) == len(set(left)) == len(set(right))


def _pool(num_sets: int, associativity: int) -> List[List[int]]:
    """Per set, ``3 * associativity`` word-aligned pcs that hash into it."""
    pool: List[List[int]] = [[] for _ in range(num_sets)]
    want = 3 * associativity
    pc = 0x1000
    while min(len(tags) for tags in pool) < want:
        set_index = int(_hash_buckets(np, np.array([pc], dtype=np.int64), num_sets)[0])
        if len(pool[set_index]) < want:
            pool[set_index].append(pc)
        pc += 4
    return pool


#: one segment of a stream: a repeat run of one pool pc, or a round-robin
#: thrash over ``associativity + 1`` tags of one set
_SEGMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, 7), st.integers(0, 23), st.integers(1, 30)),
        st.tuples(st.just("thrash"), st.integers(0, 7), st.integers(0, 23), st.integers(1, 5)),
    ),
    max_size=40,
)


def _stream(segments, num_sets: int, associativity: int):
    pool = _pool(num_sets, associativity)
    pcs: List[int] = []
    for kind, set_pick, tag_pick, count in segments:
        tags = pool[set_pick % num_sets]
        if kind == "run":
            pcs.extend([tags[tag_pick % len(tags)]] * count)
        else:
            start = tag_pick % len(tags)
            ring = [tags[(start + i) % len(tags)] for i in range(associativity + 1)]
            pcs.extend(ring * count)
    return np.asarray(pcs, dtype=np.int64)


_GEOMETRIES = st.tuples(st.integers(1, 8), st.sampled_from([1, 2, 4]))


@given(geometry=_GEOMETRIES, segments=_SEGMENTS)
@settings(deadline=None, max_examples=150)
def test_whole_trace_walk_matches_per_set_loop(geometry, segments):
    num_sets, associativity = geometry
    entries = num_sets * associativity
    pc = _stream(segments, num_sets, associativity)
    got = _ahrt_registers(np, pc, entries, associativity)
    want = _reference_registers(np, pc, entries, associativity)
    assert len(got) == len(pc)
    assert _same_partition(got.tolist(), want.tolist())


def test_one_set_thrash_evicts_every_touch():
    """AHRT(4): five tags round-robin through one four-way set, so every
    touch after the first four evicts, and inherits, the LRU register."""
    tags = _pool(1, 4)[0][:5]
    pc = np.asarray(tags * 6, dtype=np.int64)
    got = _ahrt_registers(np, pc, 4, 4).tolist()
    assert sorted(set(got)) == sorted(set(got[:4])) and len(set(got)) == 4
    assert got[4] == got[0] and got[5] == got[1]
    assert _same_partition(got, _reference_registers(np, pc, 4, 4).tolist())


@given(
    geometry=_GEOMETRIES,
    segments=_SEGMENTS,
    cuts=st.lists(st.integers(0, 1000), max_size=6),
)
@settings(deadline=None, max_examples=150)
def test_streaming_replay_matches_in_any_chunking(geometry, segments, cuts):
    num_sets, associativity = geometry
    entries = num_sets * associativity
    pc = _stream(segments, num_sets, associativity)
    bounds = sorted(cut % (len(pc) + 1) for cut in cuts)
    replay = AhrtReplay(entries, associativity)
    chunks = [replay.assign(np, chunk) for chunk in np.split(pc, bounds)]
    got = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    want = _reference_registers(np, pc, entries, associativity)
    assert _same_partition(got.tolist(), want.tolist())


@pytest.mark.parametrize("spec_text", ["LS(AHRT(8,A2),,)", "AT(AHRT(8,4SR),PT(2^4,A2),)"])
@given(segments=_SEGMENTS, outcomes=st.lists(st.booleans(), min_size=1, max_size=64))
@settings(deadline=None, max_examples=60)
def test_vector_stats_match_scalar_on_thrash(spec_text, segments, outcomes):
    """AHRT(8) is two four-way sets: the streams above evict in both."""
    spec = parse_spec(spec_text)
    pc = _stream(segments, 2, 4).tolist()
    records = [
        BranchRecord(
            pc=address,
            cls=BranchClass.CONDITIONAL,
            taken=outcomes[i % len(outcomes)],
            target=address + 64,
            is_call=False,
        )
        for i, address in enumerate(pc)
    ]
    packed = pack_records(records)
    want = simulate(spec.build(), packed)
    assert score_spec(spec, packed, backend="vector") == want
