"""Bench harness plumbing: figure results, rendering, paper data, CLI."""

import json

import pytest

from repro.bench.figures import FigureResult, SCALES, run_fig11
from repro.bench.paper_data import PAPER_CURVES, TEXT_CLAIMS
from repro.bench.report import render_figure, render_headline


def test_figure_result_add_and_at():
    fig = FigureResult("figX", "t", "x")
    fig.add("a/s1", 64, 100.0)
    fig.add("a/s1", 128, 200.0)
    fig.add("b/s2", 64, 5.0)
    assert fig.at("a/s1", 128) == 200.0
    assert fig.at("a/s1", 999) is None
    assert fig.at("missing", 64) is None


def test_render_figure_groups_panels():
    fig = FigureResult("figX", "Demo", "procs")
    fig.add("op1/sysA", 64, 1000.0)
    fig.add("op1/sysB", 64, 2000.0)
    fig.add("op2/sysA", 64, 3.14)
    fig.notes.append("hello note")
    text = render_figure(fig)
    assert "-- op1 --" in text and "-- op2 --" in text
    assert "sysA" in text and "sysB" in text
    assert "1,000" in text and "2,000" in text
    assert "3.14" in text
    assert "note: hello note" in text


def test_render_headline_contains_all_claims():
    measured = {
        "procs": 256,
        "dir_create_speedup_vs_lustre": 2.0,
        "dir_create_speedup_vs_pvfs": 24.0,
        "file_stat_speedup_vs_lustre": 1.4,
        "file_stat_speedup_vs_pvfs": 2.9,
    }
    text = render_headline(measured)
    assert "1.9x" in text and "23.0x" in text
    assert "2.00x" in text and "24.00x" in text


def test_paper_data_sanity():
    assert TEXT_CLAIMS["dir_create_speedup_vs_pvfs_256"] == 23.0
    assert TEXT_CLAIMS["zk_mb_per_million_znodes"] == 417.0
    fig10 = PAPER_CURVES["fig10_256procs"]
    # The paper's own ordering relations hold in the digitized data.
    assert fig10["dufs-lustre"]["dir_create"] > fig10["lustre"]["dir_create"]
    assert fig10["lustre"]["dir_create"] > 10 * fig10["pvfs"]["dir_create"]
    assert fig10["dufs-lustre"]["dir_create"] == \
        fig10["dufs-pvfs"]["dir_create"]  # backend-independent


def test_scales_are_increasing():
    q, m, f = SCALES["quick"], SCALES["medium"], SCALES["full"]
    assert max(q[0]) <= max(m[0]) <= max(f[0])
    assert q[1] <= m[1] <= f[1]


def test_fig11_runner_smoke():
    fig = run_fig11(scale="quick", points_millions=(1.0, 2.0),
                    calibrate_n=2000)
    zk = dict(fig.series["zookeeper"])
    assert zk[2.0] > zk[1.0] > 0
    assert dict(fig.series["dufs"])[1.0] < 60
    assert any("calibration" in n for n in fig.notes)


def test_cli_fig11(capsys):
    from repro.cli import main

    assert main(["fig11", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out and "zookeeper" in out


def test_cli_rejects_unknown_target():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("argv", [
    ["trace", "--async"], ["trace", "--elastic"], ["trace", "--resilience"],
    ["bench", "shard", "--cache"], ["bench"], ["bench", "nosuch"],
    ["bench", "shard", "--shards", "4"], ["bench", "--shards", "1,2,4"],
    ["fig11", "--json", "out.json"], ["fig11", "extra"],
    ["chaos", "--elastic"],
    ["chaos", "--deployment", "pvfs", "--cache"],
    ["chaos", "--deployment", "pvfs", "--resilience"],
    ["chaos", "--deployment", "pvfs", "--async"],
    ["chaos", "--deployment", "pvfs", "--elastic"],
    ["chaos", "--deployment", "pvfs", "--shards", "2"],
])
def test_cli_rejects_options_the_target_cannot_honour(argv):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_profile_offers_every_bench_suite():
    from repro.bench import profile_targets
    from repro.bench.suites import SUITES

    assert {f"bench:{name}" for name in SUITES} <= set(profile_targets())


def test_cli_bench_writes_the_suite_document(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_resilience.json"
    assert main(["bench", "resilience", "--json", str(out)]) == 0
    assert "gate: goodput" in capsys.readouterr().out
    assert json.loads(out.read_text())["benchmark"] == "resilience_overload"
