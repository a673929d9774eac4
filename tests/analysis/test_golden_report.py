"""Golden digests of the full ``repro analyze --json`` report.

:mod:`tests.analysis.test_golden_static` pins each program's static site
table; these pin everything ``repro analyze`` derives from it: the walk,
the predictability classes, the loop trip counts, the H2P ranking and every
site's per-scheme bounds.  The sha256 of the JSON report for each workload
(both data sets) is compared with a digest recorded from a known-good
build, at two small scales: one where most sites have only a few
occurrences and one where the loops have settled.

A change to any scheme's scoring path, to the scheme registry or to the
analysis itself must reproduce these reports byte for byte.  If a change
to the report is *intended*, regenerate the digests and say why.
"""

import hashlib

import pytest

from repro.cli import main
from repro.workloads.base import workload_names

SCALES = (500, 1_000)

#: (workload, scale) -> sha256 of ``repro analyze --json --dataset both``
GOLDEN = {
    ("eqntott", 500): "e803a1b139961266fb75bdd6a469927f4ef51c95a31ed6698db0c666459a89aa",
    ("espresso", 500): "8177363f5def6ea4770e8c6fd6e050afe7a8aa30c78daeca65a00787901781e1",
    ("gcc", 500): "54ac4d3e878ba258dac3d8c0844372a02e6ed0dfd4ac0269d2d43bd7696c066d",
    ("li", 500): "9d56cc360a01b56c029dc9521ef561ef83ebae793da0ec1c022691497fa84709",
    ("doduc", 500): "816634cb9cf1a53ca9ac3708146343f6a4e3830ca77aa3b9052c5e4b493d5379",
    ("fpppp", 500): "96b428c1ca4983d35c84590484feb8ee5f5d5246490e56cbcd2b65b2f27bda6b",
    ("matrix300", 500): "fa709aba237647f520a374800f706dd25b6387d6f13ebfc53d769913ef6415b2",
    ("spice2g6", 500): "a5f794c5ff1ee2518e416ba6fffe085604abb625ad47d723ab797d9d47542ecb",
    ("tomcatv", 500): "100035185ca03cf78cdade833b51202682041205fe395d6fca4cdef17c133242",
    ("eqntott", 1000): "c7fae8dab80058b85ca06152987c93b9bbad579090db1811c6b070d6249225a2",
    ("espresso", 1000): "74b7d324b60a79cdefef1060982d833c20c4dda9b6a0b8ca8b02f93cce395857",
    ("gcc", 1000): "6ca7dd01379a7d702df09167e9f2709cfaf7c483783eaf8d92b6fbe84239a945",
    ("li", 1000): "4f3b91d1d947d7c54828ff5932244579736830216914c172168cc6a8051a241f",
    ("doduc", 1000): "57ab54c489966d31fa70ea8e9ca2126921d6176aaf17ebb9657f59f468bbb1b4",
    ("fpppp", 1000): "28cb15a3566f8e1b13838e64eee3c864b7c34c37691941a26033fa786691fdff",
    ("matrix300", 1000): "16838eec75d689f77b2300a76e951bf3f2556c86e8cd39db41e5a7db6ffbb72f",
    ("spice2g6", 1000): "7f976033d230e094ef851e69fe1fbacf0c0a713e1e839444fc56f0de04555bef",
    ("tomcatv", 1000): "3a6a8c196eee46c4579103ec5cec90bf9817ad9b3be99db461780532f8ba82d6",
}


def _report_digest(name, scale, capsys):
    capsys.readouterr()
    argv = ["analyze", "--json", "--dataset", "both", "--scale", str(scale), name]
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_workload_is_pinned():
    assert set(GOLDEN) == {(name, scale) for name in workload_names() for scale in SCALES}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", workload_names())
def test_report_matches_golden(name, scale, capsys):
    assert _report_digest(name, scale, capsys) == GOLDEN[(name, scale)], (
        f"`repro analyze {name} --scale {scale}` changed its report"
    )
