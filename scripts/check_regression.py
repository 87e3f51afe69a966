#!/usr/bin/env python
"""CI gate: rerun one benchmark suite and compare against its committed
baseline JSON.

A thin wrapper over the suite registry in ``repro.bench.suites``::

    PYTHONPATH=src python scripts/check_regression.py --suite <name>
        [--baseline PATH] [--tolerance 0.25]
    PYTHONPATH=src python scripts/check_regression.py --list

The suite reruns at the scale/seed recorded in its baseline
(``benchmarks/BENCH_<name>.json``), prints its table, and fails (exit 1)
when any tracked throughput drops more than the tolerance below the
baseline or an acceptance floor or ceiling is crossed. Each suite's
gates are listed in ``SUITES``.

Refresh a baseline after an intentional perf change with the suite's
refresh command (printed by ``--list``), e.g.::

    PYTHONPATH=src python -m repro bench resolve \
        --json benchmarks/BENCH_resolve.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.suites import SUITES, check

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="known suites:\n" + "\n".join(
            f"  {name:<12} baseline benchmarks/{suite.baseline}"
            for name, suite in sorted(SUITES.items())))
    parser.add_argument("--suite", choices=sorted(SUITES))
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: the suite's file "
                             "under benchmarks/)")
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--list", action="store_true",
                        help="list suites, baselines and refresh commands")
    args = parser.parse_args(argv)

    if args.list:
        for name, suite in sorted(SUITES.items()):
            print(f"{name:<12} baseline benchmarks/{suite.baseline}\n"
                  f"{'':<12} refresh: PYTHONPATH=src {suite.refresh}")
        return 0
    if args.suite is None:
        parser.error("--suite is required (or use --list)")
    suite = SUITES[args.suite]

    baseline_path = pathlib.Path(args.baseline) if args.baseline \
        else BENCH_DIR / suite.baseline
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found — generate it "
              f"with 'PYTHONPATH=src {suite.refresh}'", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())

    doc = suite.run(scale=baseline.get("scale", "quick"),
                    seed=baseline.get("seed", 0))
    print(suite.render(doc))

    failures = check(suite, doc, baseline, tolerance=args.tolerance)
    if failures:
        print()
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        print(f"\nif intentional, refresh the baseline: "
              f"PYTHONPATH=src {suite.refresh}", file=sys.stderr)
        return 1
    print(f"\nok: every {suite.name} gate met, within {args.tolerance:.0%} "
          f"of baseline ({baseline_path.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
