"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mdtest_paper --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats set-up and the
measured pass until ``--seconds`` of host time are spent (at least one
pass, at least three set-ups) and reports medians of the host metrics.
Every pass of one seed must give the same simulated results.

``--trace 1`` gives the per-layer metrics: one untraced pass, then one
pass with the tracer of ``tracing.py`` installed. Both must give
identical simulated metrics and simulator event counts; the difference
of their host times is the tracing overhead.

The report goes to standard output, one metric a line with its unit and,
beside each percentile, its sample count. The last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Any failed op
or check makes the exit code 1. See ``README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is repeated at least ``SETUPS`` times, and until it has taken
#: ``SETUP_SECONDS`` (at most ``MAX_SETUPS`` times); ``setup_s`` is the median.
SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 25

UNITS = {
    "setup_s": "s", "host_s": "s", "peak_rss_mb": "MB",
    "sim_mutation_ops_per_s": "sim_op/s", "sim_lookup_ops_per_s": "sim_op/s",
    "sim_mutation_p50_ms": "sim_ms", "sim_mutation_p99_ms": "sim_ms",
    "sim_lookup_p50_ms": "sim_ms", "sim_lookup_p99_ms": "sim_ms",
}
SIM_METRICS = [k for k in UNITS if k.startswith("sim_")]


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _check(label, outcome, failures):
    for msg in outcome.failures:
        failures.append(f"{label}: {msg}")


def run_untraced(wl, seconds: float, failures: list):
    start = time.perf_counter()
    setups, outcomes = [], []
    while True:
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
        outcome = wl.measure(state)
        del state
        _check(f"pass {len(outcomes)}", outcome, failures)
        outcomes.append(outcome)
        spent = time.perf_counter() - start
        if spent + setups[-1] + outcome.host_s > seconds:
            break
    while len(setups) < SETUPS or (sum(setups) < SETUP_SECONDS
                                   and len(setups) < MAX_SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    first = outcomes[0]
    for o in outcomes[1:]:
        if (o.fingerprint(), o.events) != (first.fingerprint(), first.events):
            failures.append("passes of one seed gave different simulated "
                            "results")
    metrics = {
        "setup_s": statistics.median(setups),
        "host_s": statistics.median(o.host_s for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics.update(first.sim_metrics())
    info = {"passes": len(outcomes), "setups": len(setups)}
    return first, metrics, info, sum(o.attempted for o in outcomes)


def run_traced(wl, name: str, failures: list):
    import tracing
    from workloads import CAMPAIGN_TARGETS

    t0 = time.perf_counter()
    state = wl.setup()
    base_setup = time.perf_counter() - t0
    base = wl.measure(state)
    del state
    _check("untraced pass", base, failures)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.measure(wl.setup(trace=True), tracer)
    finally:
        tracer.uninstall()
    _check("traced pass", traced, failures)
    if base.sim_metrics() != traced.sim_metrics() \
            or base.fingerprint() != traced.fingerprint():
        failures.append("tracing changed the simulated results")
    if base.events != traced.events:
        failures.append(f"tracing changed the event count: {base.events} "
                        f"untraced, {traced.events} traced")
    mutations = sum(p.ops for p in traced.phases if p.cls == "mutation")
    metrics = tracer.metrics(mutations)
    metrics["sim.events"] = float(base.events)
    metrics["sim.events_per_host_s"] = base.events / base.host_s
    metrics["trace.overhead_s"] = traced.host_s - base.host_s
    for target in CAMPAIGN_TARGETS:
        metrics[f"bench.{target}.host_s"] = base.notes.get(
            f"bench.{target}.host_s", 0.0)
    spans = HERE / "out" / f"{name}.spans.csv.gz"
    tracer.write_spans(spans)
    info = {"untraced host_s": round(base.host_s, 3),
            "untraced setup_s": round(base_setup, 3),
            "spans": len(tracer.spans), "span file": str(spans.relative_to(
                ROOT))}
    return traced, metrics, info, base.attempted + traced.attempted


def report(name, seed, outcome, metrics, units, info, failures,
           attempted: int) -> None:
    print(f"workload {name}  seed {seed}  "
          + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  fingerprint {outcome.fingerprint()}  sim events "
          f"{outcome.events}")
    for p in outcome.phases[:12]:
        rate = p.ops / p.duration if p.duration else 0.0
        print(f"  phase {p.name:<16} {p.cls:<8} {p.ops:>6} ops "
              f"{p.duration:10.6f} sim_s {rate:12.1f} sim_op/s")
    if len(outcome.phases) > 12:
        print(f"  ... {len(outcome.phases) - 12} more phases")
    sim = outcome.sim_metrics()
    for key, value in metrics.items():
        line = f"  {key:<36} {value:14.6f} {units.get(key, '')}"
        cls = key.split("_")[1] if key.startswith("sim_") else ""
        if key.endswith(("_p50_ms", "_p99_ms")):
            line += f"  (n={int(sim[f'sim_{cls}_samples'])})"
        print(line)
    print(f"  {'failed_op_ratio':<36} {len(failures) / max(attempted, 1):14.6f}"
          f"  ({len(failures)} of {attempted})")
    if "paper_error" in outcome.notes and name == "mdtest_paper":
        print(f"  {'paper_error':<36} {outcome.notes['paper_error']:14.6f}"
              "  (mean |measured/paper - 1|, six phases, fig10 256 procs)")
    for key, value in sorted(outcome.notes.items()):
        if key != "paper_error" and not key.startswith("bench."):
            print(f"  note {key} = {value}")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of "
                 f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed)
    failures: list = []
    if args.trace:
        outcome, metrics, info, attempted = run_traced(wl, args.workload, failures)
        units = _per_layer_units()
    else:
        outcome, metrics, info, attempted = run_untraced(wl, args.seconds, failures)
        units = UNITS
        for key in SIM_METRICS:
            if not metrics[key] > 0:
                failures.append(f"{key} is {metrics[key]!r}")
        metrics = {k: metrics[k] for k in UNITS}
    report(args.workload, args.seed, outcome, metrics, units, info, failures,
           attempted)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units},
    }
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
