"""Golden branch-stream digests for every workload variant.

Each of the fourteen (workload, data set) traces is regenerated from
scratch at a small fixed scale and its ``pc``/``target``/``flags`` columns
plus the five instruction-mix counts are compared with digests recorded
from a known-good interpreter.  The digests pin the whole generation path
-- program generator, assembler and CPU -- bit for bit, so a faster
interpreter must reproduce the old branch stream exactly.

If a change is *intentional*, regenerate the digests.  A generator edit
needs no other step: the trace store keys traces by the program text.  A
change to the assembler or the CPU also bumps
``repro.isa.SEMANTICS_VERSION``, so stale stored traces invalidate.
"""

import hashlib
import struct

import pytest

from repro.workloads.base import get_workload, workload_names

SCALE = 2_000

#: (workload, role) -> (pc sha256, target sha256, flags sha256,
#: (conditional, returns, imm_unconditional, reg_unconditional, non_branch))
GOLDEN = {
    ("eqntott", "test"): (
        "3cb8a4da1597db68e7f7f856f9eda7697bc5ccdf78cca945260c52f6d0eff008",
        "c3ddaca7e34434e1a4a5fbc2d0ed3101b49721f86e77122dea7664e81f7bba76",
        "0dad6241e5fda211f9fccdae6c1555d64c448c99ff0f8515cd58f431361a4af4",
        (2000, 5, 225, 0, 6462),
    ),
    ("espresso", "test"): (
        "b76f47669e3791f89026a62235686d0b18c239f9ff62fd4c61533d7c32e2d5bb",
        "44755306e8481da61246a6370c76e7e050b410ed80745592c9f66d2320caa514",
        "75bb50b9dd5c716d5e74fedef5b3aeea198bd83e868957743fcbfc9fc678d303",
        (2000, 4, 7, 0, 6134),
    ),
    ("espresso", "train"): (
        "c5c72d7536657f92f91cf5f63f3d50b970cf8a331d268c30b98b253168ca932a",
        "61857a52835df841161bb0be818839a363a7e3e58fd7c19b47e5f85c849a186b",
        "ef116596d3409aebdb92d2f96598ed0a2e755c72d6825913e9cc9cb8c8eb30a2",
        (2000, 4, 7, 0, 6133),
    ),
    ("gcc", "test"): (
        "22f15314efbfce11c7803fb34c2d74ac312fe480b3951e288b2dcce963d28ee1",
        "c665d588cf44041a23beb38b45a0b9f2665d9a3b3ce21685567404db85ce7cb7",
        "ddfc99a5172dbb26e7e4102bc80d4adde73c96d2d984e431ccf7098c759e5268",
        (2000, 77, 553, 380, 7388),
    ),
    ("gcc", "train"): (
        "926bb7de72f1516d6df46cadd02e6cbf930aceb95317d67b6762f496d825772c",
        "09021a9c3f66af04d51ad497ee28b4dbeb697c83e9688c6d4f1888299bfc4fd4",
        "f50b9057e91800f8eba3f07a7ee9f2a22c40ee0666e452eae542769f700907f5",
        (2000, 74, 559, 380, 7394),
    ),
    ("li", "test"): (
        "e2180dc5327e75053298913c5a118235f487f40cd06828d75037ae0d8358b355",
        "cc3220217cf0911af9077509618015c6c713ce570db348d118a33a569ef458e2",
        "63d8e5d3ef0b0285808e1dc848370a973899bd8b4e756b17419218f4ef89b961",
        (2000, 40, 208, 0, 4467),
    ),
    ("li", "train"): (
        "5493b158e7620c48cae2b2b10c207890c1bb46e838b2e3e0b711d9599d4c7a90",
        "8da22e5b23d389bf3678124348a7f50c9c4a99ca78aead6d2ce91758ad73711a",
        "b3ed075e8d333ea6c25e265e356469d9ecdeb219ac687cd52cc533158785ed7f",
        (2000, 316, 335, 0, 5272),
    ),
    ("doduc", "test"): (
        "ddc4b8febc56891ec38d8f5b44b705e58ab6c9f49c65887dddca53ad200ffd51",
        "605ffea05ad4bfd862802db3e2d6e2120e83fae5431b12d8275b7b2bfd55bcf9",
        "981afa6b9c063c84c84d86c1208e41b8f04ddc3bc498e30eeaabcaf23cbb6996",
        (2000, 40, 375, 0, 5683),
    ),
    ("doduc", "train"): (
        "f903ef348dbc906501734fb162142378f2f181c89a3b49cf7c800dbabb3ff8dc",
        "c2e9a5204ae2acd918f0aef9e981806bdafda622c53ffed3acfe25658c00648a",
        "3dd4ff6c72394f46c846dd3c7f129cda2ab4044ef8df16874d3faa94cae2c7ee",
        (2000, 35, 379, 0, 5682),
    ),
    ("fpppp", "test"): (
        "1b6948b6c8827ca2d7282872d082edef6bc36006fe96967c043cede5d2ad69be",
        "a826ae0a128f072e599cacea0be9b4084e44546a72fa9ee42d172d66692ec7f5",
        "cc1eb801674726e61800cad6abae4a1a84b5292e563466d2998e7a05339a76d1",
        (2000, 737, 742, 0, 93264),
    ),
    ("matrix300", "test"): (
        "09b384c6c19802f1dfa4df054f39370d5935fe82222a4e56b259a2ba4d50e8ca",
        "d86c6f79c67798cd68f885a10113be9bced81d70c90b431b6be76e5c4e5af119",
        "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55",
        (2000, 0, 0, 0, 18013),
    ),
    ("spice2g6", "test"): (
        "81089295e039805b5df903000639dbf9b3c2c1b729ff490020720da4b61e184e",
        "781234f6393eb28b28854685a28c2075a9081b5ac92a529f4a2715273c7de330",
        "88d1067eb2117df079d9d907a13c913963bbadfc1b044919d21d12a0f36c7c83",
        (2000, 10, 272, 0, 9113),
    ),
    ("spice2g6", "train"): (
        "81089295e039805b5df903000639dbf9b3c2c1b729ff490020720da4b61e184e",
        "781234f6393eb28b28854685a28c2075a9081b5ac92a529f4a2715273c7de330",
        "88d1067eb2117df079d9d907a13c913963bbadfc1b044919d21d12a0f36c7c83",
        (2000, 10, 272, 0, 9113),
    ),
    ("tomcatv", "test"): (
        "16cc7ceeac6ea2375970985969284636106d9fe3237668393b0c687e7f7c63f4",
        "d443eed005a65267c482073fab256759c498d19abc8e9b99070b9d2183935178",
        "f2c2051cc4c46c4f94ac9150fd1110817b95685ef02e336e6a42d8f97542fad4",
        (2000, 26, 47, 0, 34284),
    ),
}


def _le32(column) -> bytes:
    return struct.pack(f"<{len(column)}I", *column)


def _digests(name: str, role: str):
    workload = get_workload(name)
    trace = workload.generate(workload.dataset(role), SCALE)
    packed = trace.packed()
    mix = trace.mix
    return (
        hashlib.sha256(_le32(packed.pc)).hexdigest(),
        hashlib.sha256(_le32(packed.target)).hexdigest(),
        hashlib.sha256(bytes(packed.flags)).hexdigest(),
        (
            mix.conditional,
            mix.returns,
            mix.imm_unconditional,
            mix.reg_unconditional,
            mix.non_branch,
        ),
    )


def test_every_variant_is_pinned():
    variants = {
        (name, role)
        for name in workload_names()
        for role in get_workload(name).datasets
    }
    assert variants == set(GOLDEN)


@pytest.mark.parametrize("name,role", sorted(GOLDEN))
def test_branch_stream_matches_golden(name, role):
    assert _digests(name, role) == GOLDEN[(name, role)], (
        f"the {name}/{role} branch stream changed; if the change is intended,"
        " regenerate the digests (a generator edit needs no bump; an assembler"
        " or CPU change bumps `repro.isa.SEMANTICS_VERSION`)"
    )
