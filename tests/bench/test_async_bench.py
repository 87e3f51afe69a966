"""The write-behind ablation and its CI regression gate."""

import json

from repro.bench.async_bench import PHASES
from repro.bench.suites import SUITES, check, write_json

ASYNC = SUITES["async"]


def test_async_ablation_meets_the_acceptance_floor():
    doc = ASYNC.run(scale="quick", seed=0)
    # Acceptance: async-on mdtest file_create >= 2x sync (CI floor; the
    # observed quick-scale speedup is >= 3x).
    assert doc["speedup"]["file_create"] >= 3.0
    assert doc["speedup"]["file_create"] >= \
        ASYNC.floors["speedup/file_create"]
    w = doc["on"]["wblog"]
    assert w["rejected"] == 0
    assert w["committed"] == w["acked"]     # drain=True: all committed
    assert doc["on"]["drain_batches"]["flushes"] > 0
    # The off arm runs no write-behind machinery at all.
    assert doc["off"]["wblog"]["acked"] == 0
    # Ack latency is orders of magnitude under the sync commit latency.
    off_lat = doc["off"]["latency_us"]["file_create"]["mean"]
    on_lat = doc["on"]["latency_us"]["file_create"]["mean"]
    assert on_lat < off_lat / 5
    out = ASYNC.render(doc)
    assert "file_create" in out and "speedup" in out


def test_async_bench_json_round_trip(tmp_path):
    doc = ASYNC.run(scale="quick", seed=0)
    path = write_json(doc, str(tmp_path / "BENCH_async.json"))
    with open(path) as fh:
        assert json.load(fh) == doc
    assert check(ASYNC, doc, doc) == []


# -- the gate on synthetic documents ------------------------------------------
def _doc(ops=5000.0, speedup=5.0, rejected=0):
    phases = {n: {"ops_per_s": ops} for n in PHASES}
    return {"on": {"phases": phases,
                   "wblog": {"rejected": rejected, "stalls": 0}},
            "speedup": {n: speedup for n in PHASES}}


def test_async_gate_passes_against_identical_baseline():
    assert check(ASYNC, _doc(), _doc()) == []


def test_async_gate_flags_throughput_drop():
    failures = check(ASYNC, _doc(ops=2000.0), _doc(ops=5000.0))
    assert len(failures) == len(PHASES)
    assert "below baseline" in failures[0]


def test_async_gate_enforces_the_create_floor():
    failures = check(ASYNC, _doc(speedup=1.5), _doc())
    assert any("acceptance floor" in f for f in failures)


def test_async_gate_flags_rejected_ops():
    failures = check(ASYNC, _doc(rejected=3), _doc())
    assert any("rejected" in f for f in failures)


def test_async_gate_reports_missing_baseline_phase_not_keyerror():
    baseline = _doc()
    del baseline["on"]["phases"]["file_remove"]
    failures = check(ASYNC, _doc(), baseline)
    assert len(failures) == 1
    assert "file_remove" in failures[0]
    assert "regenerate" in failures[0]


def test_async_gate_tolerates_empty_baseline_document():
    failures = check(ASYNC, _doc(), {})
    assert len(failures) == len(PHASES)
    assert all("missing from baseline" in f for f in failures)
