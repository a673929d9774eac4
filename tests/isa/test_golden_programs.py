"""Golden assembled-image digests for every workload variant.

Each of the fourteen (workload, data set) sources is assembled and the
whole image is hashed: every instruction encoded to its machine word, the
``(address, word)`` data pairs, the sorted symbol table and the entry
point.  The branch-stream digests in
:mod:`tests.workloads.test_golden_traces` only see instructions that
execute; these digests pin every instruction the assembler emits, so a
faster assembler must produce the old image byte for byte.

If a change is *intentional*, regenerate the digests.  A generator edit
needs no other step: the trace store keys traces by the program text.  A
change to the assembler or the CPU also bumps
``repro.isa.SEMANTICS_VERSION``, so stale stored traces invalidate.
"""

import hashlib
import struct

import pytest

from repro.isa.assembler import assemble
from repro.isa.encoding import encode
from repro.workloads.base import get_workload, workload_names

#: (workload, role) -> sha256 over the assembled image
GOLDEN = {
    ("doduc", "test"): (
        "f7fe5cf54871981f78081e168df6557910fa05de3db8814d28c8dd0226d57db0"
    ),
    ("doduc", "train"): (
        "7767ce99bdb9f144a2ae138d42fb55415a4cfb35358b21cfafd26bca58f0b903"
    ),
    ("eqntott", "test"): (
        "007b52b0a2979a5ad005c6b0586064dea96caafc057f3feb2b175cda4da13340"
    ),
    ("espresso", "test"): (
        "f8ebb1b029ecf7d332a4596f88dc7cbe4b642dd9abb8fe363b45f1ef163b7743"
    ),
    ("espresso", "train"): (
        "e6eca248325a9c42d9a04bb05632ecea6eda6cb136e9df0745d31c20c2cb45cc"
    ),
    ("fpppp", "test"): (
        "b1ce9102100bc9ba92eb704d391817c065c8f70234a4de782d170c0130616d1d"
    ),
    ("gcc", "test"): (
        "16a11fda30da194c80e7bc60966251588fa9672e6e2378883482e5d45cb98481"
    ),
    ("gcc", "train"): (
        "af6a9cda159f377e02615c54da8880fd75c4a12409bd72ab738ec47e69f7cdeb"
    ),
    ("li", "test"): (
        "9092bfa4ad890490502805c19ba3c1c0c98612b97cd9337858045445d9542908"
    ),
    ("li", "train"): (
        "aa65a6aeb208e2b6937ba5d461d47e8b6c409c14f0166509305a5a7d9065a372"
    ),
    ("matrix300", "test"): (
        "4beabac4b9627847b4627bf1ce0426b88f7a857359814416560f39badaf6cce9"
    ),
    ("spice2g6", "test"): (
        "cef1772b3829436be754de619d592f6da9e71f7d48650b2f357f945164d5ccdb"
    ),
    ("spice2g6", "train"): (
        "d9d4030a33a1e2133e5b9dc3dd11e6028d668eed2c7826670b46058ed5ab179c"
    ),
    ("tomcatv", "test"): (
        "d4dc57f3510a3b4bcd831a596db1c4ab6039aab2b332f898f458e3b87c47b79f"
    ),
}


def image_digest(name: str, role: str) -> str:
    workload = get_workload(name)
    program = assemble(workload.build_source(workload.dataset(role)))
    digest = hashlib.sha256()
    words = [encode(instruction) for instruction in program.instructions]
    digest.update(struct.pack(f"<{len(words)}I", *words))
    for address, word in program.data:
        digest.update(struct.pack("<II", address, word))
    for symbol, address in sorted(program.symbols.items()):
        digest.update(f"{symbol}={address:#x};".encode())
    digest.update(struct.pack("<I", program.entry))
    return digest.hexdigest()


def test_every_variant_is_pinned():
    variants = {
        (name, role)
        for name in workload_names()
        for role in get_workload(name).datasets
    }
    assert variants == set(GOLDEN)


@pytest.mark.parametrize("name,role", sorted(GOLDEN))
def test_assembled_image_matches_golden(name, role):
    assert image_digest(name, role) == GOLDEN[(name, role)], (
        f"the {name}/{role} assembled image changed; if the change is"
        " intended, regenerate the digests (a generator edit needs no bump;"
        " an assembler or CPU change bumps `repro.isa.SEMANTICS_VERSION`)"
    )
