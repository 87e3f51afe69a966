"""Command-line entry point: regenerate any figure of the paper.

Usage::

    python -m repro fig7 [--scale quick|medium|full] [--seed N]
    python -m repro fig8 | fig9 | fig10 | fig11 | claims | ablations
    python -m repro trace [--backend local|lustre|pvfs] [--batch N] [--cache]
                          [--shards N] [--json PATH|-]
    python -m repro bench mdcache [--json PATH]  # client cache off vs on
    python -m repro bench shard        # 1/2/4 shards at equal ZK servers
    python -m repro bench resilience   # overload: resilience off vs on
    python -m repro bench resolve      # thin client vs fat-client VFS walk
    python -m repro bench kernel       # simulator events/sec speed gate
    python -m repro bench async        # write-behind vs sync commits
    python -m repro bench elastic      # elastic vs static shard layouts
    python -m repro shardmap [--json -]     # elastic plane state dump: map,
                                            # epochs, per-shard load,
                                            # migrations, decisions
    python -m repro profile kernel          # cProfile any bench/figure and
    python -m repro profile bench:shard     # print the hot-path table
    python -m repro chaos --shards 4        # sharded metadata plane + shard:<k>
    python -m repro chaos --resilience      # deadlines+budget+breakers+hedging
    python -m repro chaos --shards 2 --elastic  # elastic plane under faults
                                                # (+ migration:src/dst targets)
    python -m repro all --scale medium
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    render_figure,
    render_headline,
    run_ablations,
    run_cmd_comparison,
    run_single_dir,
    write_figure_csv,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_headline_claims,
)
from .bench.suites import SUITES, write_json

RUNNERS = {
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "singledir": run_single_dir,
    "cmd": run_cmd_comparison,
    "ablations": run_ablations,
}


#: target -> the options it honours besides --scale and --seed; setting
#: any other option is an error rather than silently ignored.
_FIGURE_OPTIONS = ("csv", "chart")
ACCEPTS = {
    **{target: _FIGURE_OPTIONS for target in RUNNERS},
    "claims": (),
    "chaos": ("deployment", "ops", "cache", "resilience", "elastic",
              "async_writes", "shards"),
    "trace": ("backend", "batch", "cache", "shards", "json"),
    "bench": ("subtarget", "json"),
    "shardmap": ("json",),
    "profile": ("subtarget", "top", "sort"),
    "all": _FIGURE_OPTIONS,
}
#: chaos options that only the DUFS deployment honours.
DUFS_ONLY = ("cache", "resilience", "elastic", "async_writes", "shards")


def chaos_policies(args) -> dict:
    """``run_chaos``'s DUFS-only arguments (the client policies and the
    shard count) from the chaos flags, built in this one place."""
    from .models.params import (AsyncParams, CacheParams, ElasticParams,
                                ResilienceParams)
    return dict(
        cache=CacheParams.caching_on() if args.cache else None,
        shards=args.shards,
        resilience=ResilienceParams.resilience_on(hedge_enabled=True)
        if args.resilience else None,
        elastic=ElasticParams.elastic_on() if args.elastic else None,
        awrite=AsyncParams.async_on() if args.async_writes else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of 'Can a Decentralized "
                    "Metadata Service Layer benefit Parallel Filesystems?' "
                    "(CLUSTER 2011) on the simulated cluster.")
    parser.add_argument("target", choices=list(ACCEPTS),
                        help="which figure/table to regenerate "
                             "(or 'chaos': a fault-injection run; 'trace': "
                             "a traced mdtest with per-endpoint op metrics; "
                             "'bench': one CI-gated bench suite; "
                             "'shardmap': the elastic metadata plane state "
                             "dump; 'profile': run a bench/figure under "
                             "cProfile)")
    parser.add_argument("subtarget", nargs="?", default=None,
                        help="for 'bench': which suite to run "
                             f"({', '.join(SUITES)}); for 'profile': which "
                             "target to profile (e.g. kernel, "
                             "kernel:fanout, bench:mdcache, fig7)")
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "medium", "full"),
                        help="sweep size: quick (seconds), medium, or full "
                             "(the paper's axes; minutes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each figure as CSV into DIR")
    parser.add_argument("--chart", action="store_true",
                        help="render ASCII charts of each figure's panels")
    parser.add_argument("--deployment", default="dufs",
                        choices=("dufs", "lustre", "pvfs"),
                        help="chaos target deployment (chaos only)")
    parser.add_argument("--ops", type=int, default=400,
                        help="chaos op-stream length (chaos only)")
    parser.add_argument("--backend", default="local",
                        choices=("local", "lustre", "pvfs"),
                        help="DUFS back-end filesystem (trace only)")
    parser.add_argument("--batch", type=int, default=1,
                        help="ZooKeeper leader write-batch size; >1 enables "
                             "proposal coalescing (trace only)")
    parser.add_argument("--cache", action="store_true",
                        help="enable the client metadata cache (trace and "
                             "chaos)")
    parser.add_argument("--resilience", action="store_true",
                        help="chaos: run the DUFS clients with the full "
                             "resilience policy (deadline propagation, retry "
                             "budget, breakers, hedged reads)")
    parser.add_argument("--elastic", action="store_true",
                        help="chaos: run the elastic plane (needs "
                             "--shards >= 2)")
    parser.add_argument("--async", dest="async_writes", action="store_true",
                        help="chaos: run the DUFS clients in write-behind "
                             "mode")
    parser.add_argument("--top", type=int, default=25,
                        help="profile: how many hot-path rows to print")
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumtime", "ncalls"),
                        help="profile: hot-path table sort key")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH "
                             "(bench, trace and shardmap; '-' prints trace "
                             "rows as JSON to stdout instead of the table)")
    parser.add_argument("--shards", type=int, default=1,
                        help="metadata shards for trace/chaos: independent "
                             "ZK ensembles behind a sharded metadata "
                             "service")
    args = parser.parse_args(argv)

    accepted = set(ACCEPTS[args.target])
    target = args.target
    if target == "chaos" and args.deployment != "dufs":
        accepted -= set(DUFS_ONLY)
        target = f"chaos --deployment {args.deployment}"
    rejected = {dest for options in ACCEPTS.values() for dest in options} \
        - accepted
    for action in parser._actions:
        if action.dest in rejected \
                and getattr(args, action.dest) != action.default:
            flag = (action.option_strings or [action.dest])[0]
            parser.error(f"'{target}' does not accept {flag}")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.elastic and args.shards < 2:
        parser.error("--elastic needs --shards >= 2")

    targets = list(RUNNERS) + ["claims"] if args.target == "all" \
        else [args.target]
    for target in targets:
        if target == "chaos":
            from .chaos import run_chaos
            result = run_chaos(args.deployment, seed=args.seed, ops=args.ops,
                               **chaos_policies(args))
            print(result.summary())
        elif target == "trace":
            from .bench.trace_cli import run_trace
            print(run_trace(scale=args.scale, backend=args.backend,
                            batch=args.batch, seed=args.seed,
                            cache=args.cache, shards=args.shards,
                            json_path=args.json))
        elif target == "profile":
            from .bench import profile_targets, run_profile
            if not args.subtarget:
                parser.error("profile needs a target, e.g. 'repro profile "
                             f"kernel' (one of: {', '.join(profile_targets())})")
            try:
                print(run_profile(args.subtarget, scale=args.scale,
                                  seed=args.seed, top=args.top,
                                  sort=args.sort))
            except ValueError as exc:
                parser.error(str(exc))
        elif target == "shardmap":
            from .bench import run_shardmap
            print(run_shardmap(scale=args.scale, seed=args.seed,
                               json_path=args.json))
        elif target == "bench":
            suite = SUITES.get(args.subtarget)
            if suite is None:
                parser.error("bench needs a suite, e.g. 'repro bench "
                             f"mdcache' (one of: {', '.join(SUITES)})")
            doc = suite.run(scale=args.scale, seed=args.seed)
            print(suite.render(doc))
            if args.json:
                print(f"[json] {write_json(doc, args.json)}")
        elif target == "claims":
            scale = args.scale if args.scale != "quick" else "medium"
            print(render_headline(run_headline_claims(scale=scale,
                                                      seed=args.seed)))
        else:
            fig = RUNNERS[target](scale=args.scale, seed=args.seed)
            print(render_figure(fig))
            if args.chart:
                from .bench.chart import render_figure_charts
                print()
                print(render_figure_charts(fig))
            if args.csv:
                print(f"[csv] {write_figure_csv(fig, args.csv)}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
