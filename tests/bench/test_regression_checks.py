"""The one CI regression gate: every suite's tracked numbers, floors and
ceilings, graceful on malformed/stale baselines."""

import copy
import json
import pathlib

import pytest

from repro.bench.mdcache_bench import PHASES as CACHE_PHASES
from repro.bench.resolve_bench import PHASES as RESOLVE_PHASES
from repro.bench.shard_bench import PHASES as SHARD_PHASES
from repro.bench.suites import SUITES, _leaves, check

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def cache_doc(ops=1000.0):
    phases = {n: {"ops_per_s": ops} for n in CACHE_PHASES}
    return {"on": {"phases": phases},
            "speedup": {n: 3.0 for n in CACHE_PHASES}}


def test_cache_gate_passes_against_identical_baseline():
    assert check(SUITES["mdcache"], cache_doc(), cache_doc()) == []


def test_cache_gate_flags_throughput_drop():
    failures = check(SUITES["mdcache"], cache_doc(ops=500.0),
                     cache_doc(ops=1000.0))
    assert len(failures) == len(CACHE_PHASES)
    assert "below baseline" in failures[0]


def test_cache_gate_reports_missing_baseline_phase_not_keyerror():
    baseline = cache_doc()
    del baseline["on"]["phases"]["ls_l"]          # stale pre-ls_l file
    failures = check(SUITES["mdcache"], cache_doc(), baseline)
    assert len(failures) == 1
    assert "ls_l" in failures[0]
    assert "missing from baseline" in failures[0]
    assert "regenerate" in failures[0]


def test_cache_gate_tolerates_empty_baseline_document():
    failures = check(SUITES["mdcache"], cache_doc(), {})
    assert len(failures) == len(CACHE_PHASES)
    assert all("missing from baseline" in f for f in failures)


def shard_doc(create_4=4000.0):
    def run(n, ops):
        return {"n_shards": n,
                "phases": {p: {"ops_per_s": ops} for p in SHARD_PHASES}}
    doc = {"shards": {"1": run(1, 2000.0), "4": run(4, create_4)},
           "speedup_vs_1": {
               "1": {p: 1.0 for p in SHARD_PHASES},
               "4": {p: create_4 / 2000.0 for p in SHARD_PHASES}}}
    return doc


def test_shard_gate_enforces_the_scaling_floor():
    assert check(SUITES["shard"], shard_doc(), shard_doc()) == []  # 2.0x
    low = shard_doc(create_4=2400.0)
    failures = check(SUITES["shard"], low, low)
    assert len(failures) == 1
    assert "file_create" in failures[0]
    assert "floor" in failures[0]


def test_shard_gate_reports_missing_baseline_entries():
    baseline = shard_doc()
    del baseline["shards"]["4"]
    failures = check(SUITES["shard"], shard_doc(), baseline)
    assert len(failures) == len(SHARD_PHASES)
    assert all(f.startswith("shards/4/") for f in failures)
    assert all("regenerate" in f for f in failures)

    baseline = shard_doc()
    del baseline["shards"]["4"]["phases"]["file_create"]
    failures = check(SUITES["shard"], shard_doc(), baseline)
    assert len(failures) == 1
    assert "file_create" in failures[0] and "regenerate" in failures[0]


def test_shard_gate_flags_per_configuration_drop():
    failures = check(SUITES["shard"], shard_doc(create_4=3000.0),
                     shard_doc(create_4=4100.0))
    assert any("below baseline" in f for f in failures)


def resolve_doc(ops=1000.0, deep_speedup=5.0):
    phases = {n: {"ops_per_s": ops} for n in RESOLVE_PHASES}
    speedup = {n: 1.0 for n in RESOLVE_PHASES}
    speedup["deep_stat"] = deep_speedup
    return {"depth": 8, "on": {"phases": phases}, "speedup": speedup}


def test_resolve_gate_passes_against_identical_baseline():
    assert check(SUITES["resolve"], resolve_doc(), resolve_doc()) == []


def test_resolve_gate_enforces_the_deep_stat_floor():
    failures = check(SUITES["resolve"], resolve_doc(deep_speedup=2.4),
                     resolve_doc())
    assert len(failures) == 1
    assert "deep_stat" in failures[0] and "floor" in failures[0]


def test_resolve_gate_flags_throughput_drop():
    failures = check(SUITES["resolve"], resolve_doc(ops=500.0),
                     resolve_doc(ops=1000.0))
    assert len(failures) == len(RESOLVE_PHASES)
    assert all("below baseline" in f for f in failures)


def test_resolve_gate_reports_missing_baseline_phase_not_keyerror():
    baseline = resolve_doc()
    del baseline["on"]["phases"]["deep_stat"]
    failures = check(SUITES["resolve"], resolve_doc(), baseline)
    assert len(failures) == 1
    assert "deep_stat" in failures[0]
    assert "missing from baseline" in failures[0]
    assert "regenerate" in failures[0]


# -- every suite, on its own committed baseline ------------------------------
def committed(name):
    return json.loads((BENCH_DIR / SUITES[name].baseline).read_text())


def tracked(name, doc):
    return {path: value for pattern in SUITES[name].tracked
            for path, value in _leaves(doc, pattern)}


def set_path(doc, path, value):
    *parents, leaf = path.split("/")
    for key in parents:
        doc = doc[key]
    if value is None:
        del doc[leaf]
    else:
        doc[leaf] = value


@pytest.mark.parametrize("name", sorted(SUITES))
def test_committed_baseline_meets_its_own_gates(name):
    doc = committed(name)
    assert tracked(name, doc)
    assert check(SUITES[name], doc, doc) == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_tolerance_drop_reports_every_tracked_leaf(name):
    baseline = committed(name)
    doc = copy.deepcopy(baseline)
    for path, value in tracked(name, doc).items():
        set_path(doc, path, value * 0.5)
    failures = check(SUITES[name], doc, baseline)
    expected = sorted(p for p, v in tracked(name, baseline).items() if v > 0)
    assert sorted(f.split(":")[0] for f in failures) == expected
    assert all("below baseline" in f for f in failures)
    # Inside the tolerance nothing fires.
    for path, value in tracked(name, baseline).items():
        set_path(doc, path, value * 0.8)
    assert check(SUITES[name], doc, baseline) == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_missing_baseline_leaf_names_the_refresh_command(name):
    doc = committed(name)
    baseline = copy.deepcopy(doc)
    path = sorted(tracked(name, doc))[0]
    set_path(baseline, path, None)
    assert check(SUITES[name], doc, baseline) == [
        f"{path}: missing from baseline — regenerate it with "
        f"'{SUITES[name].refresh}'"]


def test_baseline_file_and_refresh_command_derive_from_the_name():
    assert SUITES["shard"].baseline == "BENCH_shard.json"
    assert SUITES["shard"].refresh == \
        "python -m repro bench shard --json benchmarks/BENCH_shard.json"
    assert SUITES["kernel"].refresh == ("python -m repro bench kernel "
                                        "--scale medium "
                                        "--json benchmarks/BENCH_kernel.json")
    for name, suite in SUITES.items():
        assert committed(name)["scale"] == suite.scale


@pytest.mark.parametrize("name", sorted(SUITES))
def test_empty_baseline_document_reports_missing_not_keyerror(name):
    doc = committed(name)
    failures = check(SUITES[name], doc, {})
    assert len(failures) == len(tracked(name, doc))
    assert all("missing from baseline" in f for f in failures)


BOUNDS = [(name, path, limit, kind) for name, suite in sorted(SUITES.items())
          for kind, bounds in (("floor", suite.floors),
                               ("ceiling", suite.ceilings))
          for path, limit in sorted(bounds.items())]


@pytest.mark.parametrize("name,path,limit,kind", BOUNDS)
def test_crossed_floor_or_ceiling_fails_whatever_the_baseline(name, path,
                                                              limit, kind):
    doc = committed(name)
    set_path(doc, path, limit * 0.9 if kind == "floor" else limit + 3)
    failures = check(SUITES[name], doc, doc)
    assert len(failures) == 1
    assert failures[0].startswith(f"{path}: ") and kind in failures[0]
    set_path(doc, path, None)                     # absent from the run
    failures = check(SUITES[name], doc, doc)
    assert len(failures) == 1
    assert failures[0].startswith(f"{path}: missing ") and kind in failures[0]
