"""History register table front-ends (section 3.1).

The per-address history register table maps a branch address to that branch's
payload — a k-bit history register for the two-level schemes, or an automaton
state for the Lee & Smith BTB designs.  Three implementations:

* :class:`IHRT` — ideal: every static branch gets its own register (an
  unbounded map).  Upper bound used throughout the paper's figures.
* :class:`AHRT` — a 4-way set-associative cache with LRU replacement and a
  tag store.  Matches the paper's crucial allocation detail: a physical
  register re-allocated to a different static branch is *not* re-initialised
  (section 4.2) — the new branch inherits the evicted branch's bits.
* :class:`HHRT` — a tagless hash table; different branches that collide
  simply share a register, trading tag-store cost for history interference.

The common interface is ``get(pc) -> payload`` (allocating on a miss) and
``put(pc, payload)``; payloads are plain ints so the same tables serve every
scheme.  Hit/miss/interference statistics are tracked for the Figure 6
analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.errors import ConfigError

#: Knuth multiplicative hash constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 2654435761


def _index_hash(pc: int, buckets: int) -> int:
    """Map a branch address to a table bucket.

    Real programs spread their static branches across a large, sparse text
    segment, where indexing by the address's low bits behaves like a random
    hash.  The analog programs are small and dense — plain modulo would give
    them an unrealistically perfect, collision-free placement — so both
    finite HRT implementations use a multiplicative hash to recover the
    collision statistics a sparse address distribution produces.
    """
    return ((pc >> 2) * _HASH_MULTIPLIER & 0xFFFFFFFF) % buckets


class HistoryRegisterTable(ABC):
    """Abstract pc -> payload store with allocation-on-miss semantics."""

    def __init__(self, init_payload: int):
        self.init_payload = init_payload
        self.hits = 0
        self.misses = 0

    @abstractmethod
    def get(self, pc: int) -> int:
        """Return the payload for ``pc``, allocating an entry on a miss."""

    @abstractmethod
    def put(self, pc: int, payload: int) -> None:
        """Store ``payload`` for ``pc`` (entry must exist, i.e. follow a get)."""

    @abstractmethod
    def reset(self) -> None:
        """Drop all entries and statistics (start-of-execution state)."""

    @property
    @abstractmethod
    def spec_name(self) -> str:
        """The Table 2 naming-convention fragment, e.g. ``AHRT(512,...)``."""


class IHRT(HistoryRegisterTable):
    """Ideal HRT: one register per static branch, never evicts."""

    def __init__(self, init_payload: int = 0):
        super().__init__(init_payload)
        self._entries: Dict[int, int] = {}

    def get(self, pc: int) -> int:
        entries = self._entries
        payload = entries.get(pc)
        if payload is None:
            self.misses += 1
            payload = self.init_payload
            entries[pc] = payload
        else:
            self.hits += 1
        return payload

    def put(self, pc: int, payload: int) -> None:
        self._entries[pc] = payload

    def reset(self) -> None:
        self._entries.clear()
        self.hits = self.misses = 0

    @property
    def spec_name(self) -> str:
        return "IHRT(,"


class AHRT(HistoryRegisterTable):
    """Set-associative HRT with LRU replacement (the paper's AHRT).

    Args:
        entries: total register count (e.g. 512 or 256).
        init_payload: value physical registers hold at program start.
        associativity: ways per set (the paper always uses 4).

    Eviction inherits: the incoming branch takes over the victim's payload
    bits, exactly as a physical register file would behave when only the tag
    is rewritten.
    """

    def __init__(self, entries: int, init_payload: int = 0, associativity: int = 4):
        super().__init__(init_payload)
        if entries < 1 or associativity < 1:
            raise ConfigError("AHRT entries and associativity must be >= 1")
        if entries % associativity:
            raise ConfigError(
                f"AHRT entries ({entries}) must be a multiple of associativity ({associativity})"
            )
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Each set: insertion-ordered tag -> payload (oldest = LRU), plus a
        # pool of not-yet-tagged physical registers holding the init payload.
        self._sets: List["OrderedDict[int, int]"] = [OrderedDict() for _ in range(self.num_sets)]
        self._free: List[int] = [associativity] * self.num_sets
        self.evictions = 0

    def _set_index(self, pc: int) -> int:
        return _index_hash(pc, self.num_sets)

    def get(self, pc: int) -> int:
        ways = self._sets[self._set_index(pc)]
        payload = ways.get(pc)
        if payload is not None:
            self.hits += 1
            ways.move_to_end(pc)
            return payload

        self.misses += 1
        index = self._set_index(pc)
        if self._free[index] > 0:
            self._free[index] -= 1
            payload = self.init_payload
        else:
            _victim_tag, payload = ways.popitem(last=False)  # LRU; payload inherited
            self.evictions += 1
        ways[pc] = payload
        return payload

    def put(self, pc: int, payload: int) -> None:
        ways = self._sets[self._set_index(pc)]
        if pc in ways:
            ways[pc] = payload
            ways.move_to_end(pc)

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self._free = [self.associativity] * self.num_sets
        self.hits = self.misses = self.evictions = 0

    @property
    def spec_name(self) -> str:
        return f"AHRT({self.entries},"


class HHRT(HistoryRegisterTable):
    """Tagless hashed HRT (the paper's HHRT).

    Collisions are silent: two branches that hash to the same slot share one
    register, producing history interference.  A shadow tag array tracks
    interference *statistics only* — it has no effect on behaviour.
    """

    def __init__(self, entries: int, init_payload: int = 0):
        super().__init__(init_payload)
        if entries < 1:
            raise ConfigError("HHRT entries must be >= 1")
        self.entries = entries
        self._payloads: List[int] = [init_payload] * entries
        self._shadow_tags: List[Optional[int]] = [None] * entries
        self.collisions = 0

    def _index(self, pc: int) -> int:
        return _index_hash(pc, self.entries)

    def get(self, pc: int) -> int:
        index = self._index(pc)
        shadow = self._shadow_tags[index]
        if shadow == pc:
            self.hits += 1
        else:
            self.misses += 1
            if shadow is not None:
                self.collisions += 1
            self._shadow_tags[index] = pc
        return self._payloads[index]

    def put(self, pc: int, payload: int) -> None:
        self._payloads[self._index(pc)] = payload

    def reset(self) -> None:
        self._payloads = [self.init_payload] * self.entries
        self._shadow_tags = [None] * self.entries
        self.hits = self.misses = self.collisions = 0

    @property
    def spec_name(self) -> str:
        return f"HHRT({self.entries},"
