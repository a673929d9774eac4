"""Golden prediction digests for every predictor family.

For each spec in the serve parity list (one per scheme family) the scalar
engine -- the reference every fast path is verified against -- predicts
all fourteen (workload, data set) traces at the same small fixed scale as
:mod:`tests.workloads.test_golden_traces`, and the sha256 of its
per-record prediction bits is compared with a digest recorded from a
known-good build.  The digests pin each family's *semantics* bit for bit,
so a refactor must reproduce the old prediction stream exactly.

If a change to a family's predictions is *intentional*, regenerate the
digest and bump that family's ``semantics`` so cached sweep rows computed
under the old predictions stop matching.
"""

import hashlib

import pytest

from repro.predictors.spec import parse_spec
from repro.sim.streaming import ScalarStreamingScorer, needs_training
from repro.workloads.base import get_workload, workload_names
from tests.serve.test_server import FAMILY_SPECS

SCALE = 2_000

#: spec -> sha256 over every variant's prediction bits
GOLDEN = {
    "AlwaysTaken": (
        "d4a170255072ac9d4886498ef3fd734d259e15573bb0ec5d868b06e157aa94e9"
    ),
    "AlwaysNotTaken": (
        "fcc03f4a3b5a440c8a37bf7d76bff56b0349d225a1bf571c722f4c5278e18783"
    ),
    "BTFN": (
        "13202c5ece73c402414781330b6f03f9d7d161e6b84722815cc86109f412e9de"
    ),
    "Profile": (
        "92bc258a7e491c5a5038e947b49ba9a9e829e3eae4de08f3a725ff2131a4fd35"
    ),
    "LS(IHRT(,A2),,)": (
        "b1280a5caadb61099b0208673d52bd0a6d8d164b2613910fc03beb9927c3fb62"
    ),
    "AT(IHRT(,6SR),PT(2^6,A2),)": (
        "68d92ccf4a05cfe913813ffa93464baa604118b32246ba010ebbc9d9866d9510"
    ),
    "ST(IHRT(,6SR),PT(2^6,PB),Same)": (
        "19f7167ed78cd62d518c80f4c21aa0571e31c35edbc12e4833213461d223711e"
    ),
    "GAg(6,A2)": (
        "96e1dd588db68b1bc4989ad6e2e45dc3e7934e9594d09e344f1b23201afe6fc1"
    ),
    "gshare(8,A2)": (
        "a93155f714930bb568e995133d9f7f40bf727236dd80175cf4494402c1617933"
    ),
    "AT(AHRT(512,6SR),PT(2^6,A2),)": (
        "ce691a6b76556fc6985c66601f4af9591af55bcab1ac96bb0ebe7b4a570697d1"
    ),
    "LS(HHRT(256,A2),,)": (
        "ff4756aa51de464a674fff43285dad2ce0f5029ada69e65b421926dae331fd2a"
    ),
    "perceptron(8,16)": (
        "5093db7601d2f7f3af084b9554589f8ddb0b0b946172d4ff6d05ce5d1c295963"
    ),
    "tage(2,5)": (
        "a38b67787428b0d223983337cbec8dd8b7d2f9ca02fbaf1ea78e504368d386a0"
    ),
    "PAp(6,A2)": (
        "cc6baa16ff6a3efd8b1e3398db8d105a9aec8323844e709310cbe56d5b1dc01e"
    ),
    "PAs(6,4,A2)": (
        "6e89a93717189351c640603cf1656d75c369872ef84cd15dd67f1c7892d35b9d"
    ),
}

#: Static Training on a different data set: trained on each Table 3
#: training trace, tested on the benchmark's testing trace
ST_DIFF = "ST(IHRT(,6SR),PT(2^6,PB),Diff)"
ST_DIFF_GOLDEN = "5c3b72fb7da9e3f91b15d1fc7ccfc87f4da8afa77061fb7d4ba03c48e544e505"


def _variants():
    return [
        (name, role)
        for name in workload_names()
        for role in sorted(get_workload(name).datasets)
    ]


def _bits(spec, records, training):
    scorer = ScalarStreamingScorer(spec, training_records=training)
    return bytes(int(p) for p in scorer.feed(records) if p is not None)


def _records(trace_cache, name, role):
    return trace_cache.get(get_workload(name), role, SCALE).records


def _digest(spec_text, trace_cache):
    spec = parse_spec(spec_text)
    digest = hashlib.sha256()
    for name, role in _variants():
        records = _records(trace_cache, name, role)
        training = records if needs_training(spec) else None
        digest.update(f"{name}:{role}:".encode())
        digest.update(_bits(spec, records, training))
    return digest.hexdigest()


def _message(spec_text):
    scheme = parse_spec(spec_text).scheme
    return (
        f"the `{scheme}` prediction stream changed; if intended, regenerate"
        f" and bump `{scheme}.semantics`"
    )


def test_every_family_is_pinned():
    assert set(GOLDEN) == set(FAMILY_SPECS)
    assert len(_variants()) == 14


@pytest.mark.parametrize("spec_text", FAMILY_SPECS)
def test_prediction_stream_matches_golden(spec_text, trace_cache):
    assert _digest(spec_text, trace_cache) == GOLDEN[spec_text], _message(spec_text)


def test_static_training_diff_matches_golden(trace_cache):
    spec = parse_spec(ST_DIFF)
    digest = hashlib.sha256()
    benchmarks = [
        name for name in workload_names() if get_workload(name).has_training_set
    ]
    assert benchmarks == ["espresso", "gcc", "li", "doduc", "spice2g6"]
    for name in benchmarks:
        training = _records(trace_cache, name, "train")
        digest.update(f"{name}:".encode())
        digest.update(_bits(spec, _records(trace_cache, name, "test"), training))
    assert digest.hexdigest() == ST_DIFF_GOLDEN, _message(ST_DIFF)
