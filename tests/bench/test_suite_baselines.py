"""Every bench suite re-emits its committed baseline exactly.

Simulated throughput is deterministic for a given seed, so the quick-scale
documents must come out byte-for-byte equal to ``benchmarks/BENCH_*.json``
— the proof that a refactor kept behaviour bit-identical, and a tripwire
for a baseline left stale by an intentional model change.
"""

import json
import pathlib

import pytest

from repro.bench.suites import SUITES, write_json

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def committed(name):
    return (BENCH_DIR / SUITES[name].baseline).read_text()


def emitted(name, tmp_path):
    doc = SUITES[name].run(scale="quick", seed=0)
    return pathlib.Path(write_json(doc, str(tmp_path / "out.json"))) \
        .read_text()


@pytest.mark.parametrize("name", ["mdcache", "shard", "resolve", "async",
                                  "resilience"])
def test_quick_baseline_is_byte_identical(name, tmp_path):
    assert emitted(name, tmp_path) == committed(name)


@pytest.mark.slow
def test_elastic_baseline_is_byte_identical(request, tmp_path):
    if "slow" not in request.config.getoption("markexpr"):
        pytest.skip("takes minutes at quick scale; select it with -m slow")
    assert emitted("elastic", tmp_path) == committed("elastic")


def test_kernel_event_counts_match_the_baseline():
    # Wall-clock fields vary by machine; the event counts never do.
    base = json.loads(committed("kernel"))
    doc = SUITES["kernel"].module.run(scale=base["scale"], repeats=1)
    assert {k: w["events"] for k, w in doc["workloads"].items()} == \
        {k: w["events"] for k, w in base["workloads"].items()}
