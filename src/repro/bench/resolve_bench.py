"""Path-resolution ablation: server-side ``resolve`` vs fat-client walk.

Runs the DL-training workload family (:mod:`repro.workloads.dltrain`)
twice on identically-seeded deployments:

- **off** — the legacy *fat client* with an explicit kernel-VFS
  cold-dcache walk (``ResolveParams(walk=True)`` with a bounded client
  dcache): every lookup pays one znode read per ancestor missing from
  the dcache, so cost grows with path depth and the dcache churns on
  namespaces bigger than its bound;
- **on** — the *thin client* (``ResolveParams.resolve_on()``): every
  lookup is one ``resolve`` RPC at any depth, answered out of the
  server-side dentry cache.

Phases map to the three DL access patterns:

- ``flat_stat``  — one pass over the flat shard-directory samples
  (depth 3: the walk's extra cost is small and its tiny dcache stays
  hot — the two arms should roughly tie);
- ``epoch_read`` — ``epochs`` randomized full passes over the sample
  set (deterministic shuffles from the cluster's named streams, so both
  arms replay identical access orders);
- ``deep_stat``  — repeated stats of checkpoint files at path depth 8:
  more unique directories than the walk arm's dcache bound, so the walk
  re-reads ~``depth - 1`` ancestors per stat while the thin client pays
  exactly one RPC. This is the acceptance phase: thin-client throughput
  must be **>= 3x** the walk (the ``resolve`` floor in
  :data:`repro.bench.suites.SUITES`).
"""

from __future__ import annotations

from typing import Dict, Generator

from ..core.fs import build_dufs_deployment
from ..models.params import ResolveParams, SimParams
from ..workloads.dltrain import DLTrainSpec, epoch_order
from ..workloads.driver import run_phase
from .suites import render_off_on, run_off_on

_SCALES = {
    # scale -> (n_zk, n_client_nodes, workload spec). depth stays 8 at
    # every scale (the acceptance criterion is pinned to depth 8);
    # n_chains keeps the deep tree bigger than the walk arm's dcache.
    "quick": (3, 4, DLTrainSpec(n_shard_dirs=4, samples_per_dir=12,
                                n_chains=16, depth=8, epochs=2)),
    "medium": (8, 8, DLTrainSpec(n_shard_dirs=8, samples_per_dir=24,
                                 n_chains=24, depth=8, epochs=3)),
    "full": (8, 8, DLTrainSpec(n_shard_dirs=16, samples_per_dir=48,
                               n_chains=32, depth=8, epochs=3)),
}

PHASES = ("flat_stat", "epoch_read", "deep_stat")

#: Client dcache bound for the walk (off) arm: models a cold kernel
#: dcache. Every scale's deep tree has more directories than this, so
#: deep stats actually churn instead of going resident.
WALK_DCACHE = 64


def _run_side(resolve: ResolveParams, scale: str, seed: int) -> Dict:
    """One full run (scaffold + three measured phases) at one policy.

    Like the cache ablation, measured phases drive the DUFS client
    library directly: the FUSE crossing is a constant paid identically
    by both arms and would only dilute the resolution signal.
    """
    n_zk, n_clients, spec = _SCALES[scale]
    dep = build_dufs_deployment(n_zk=n_zk, n_backends=2,
                                n_client_nodes=n_clients, backend="local",
                                params=SimParams(), seed=seed,
                                resolve=resolve)
    sim = dep.cluster.sim
    samples = spec.sample_files()
    chains = spec.chain_files()
    nodes = [dep.node_for(i) for i in range(n_clients)]

    # ---- scaffold (not measured) ------------------------------------
    def scaffold() -> Generator:
        c = dep.clients[0]
        for d in spec.all_dirs():
            yield from c.mkdir(d)
        for path in spec.all_files():
            yield from c.create(path)

    sim.run(until=dep.client_nodes[0].spawn(scaffold()))
    sim.run(until=sim.now + 0.05)  # replica settle
    base_reads = sum(c.stats["zk_reads"] for c in dep.clients)

    results = {}

    # ---- flat_stat: one pass over the flat shard dirs ----------------
    def flat_worker(p: int) -> Generator:
        c = dep.clients[p % len(dep.clients)]
        for path in samples:
            yield from c.stat(path)

    results["flat_stat"] = run_phase(
        sim, "flat_stat", nodes,
        [flat_worker(p) for p in range(n_clients)], len(samples))

    # ---- epoch_read: randomized re-reads, epochs passes --------------
    # Per-worker named streams: both arms build their cluster from the
    # same seed, so off and on replay identical shuffled orders.
    def epoch_worker(p: int) -> Generator:
        c = dep.clients[p % len(dep.clients)]
        rng = dep.cluster.streams.stream(f"dltrain.epoch.{p}")
        for _ in range(spec.epochs):
            for path in epoch_order(spec, rng):
                yield from c.stat(path)

    sim.run(until=sim.now + 0.05)
    results["epoch_read"] = run_phase(
        sim, "epoch_read", nodes,
        [epoch_worker(p) for p in range(n_clients)],
        spec.epochs * len(samples))

    # ---- deep_stat: checkpoint files at path depth 8 -----------------
    def deep_worker(p: int) -> Generator:
        c = dep.clients[p % len(dep.clients)]
        for _ in range(spec.epochs):
            for path in chains:
                yield from c.stat(path)

    sim.run(until=sim.now + 0.05)
    results["deep_stat"] = run_phase(
        sim, "deep_stat", nodes,
        [deep_worker(p) for p in range(n_clients)],
        spec.epochs * len(chains))

    lookups = sum(r.ops for r in results.values())
    reads = sum(c.stats["zk_reads"] for c in dep.clients) - base_reads
    server = {"resolves": 0, "dentry_hits": 0, "dentry_misses": 0}
    for ens in dep.ensembles:
        for srv in ens.servers:
            for k in server:
                server[k] += srv.stats.get(k, 0)
    return {
        "phases": {name: {"ops": r.ops, "duration": r.duration,
                          "ops_per_s": r.throughput}
                   for name, r in results.items()},
        "lookups": lookups,
        "zk_reads": reads,
        "reads_per_lookup": reads / lookups if lookups else 0.0,
        "server": server,
    }


def run(scale: str = "quick", seed: int = 0) -> Dict:
    """Run the ablation; returns a JSON-ready result document."""
    return run_off_on("resolve_ablation", _run_side,
                      ResolveParams(walk=True, dcache_capacity=WALK_DCACHE),
                      ResolveParams.resolve_on(), scale, seed, PHASES,
                      depth=_SCALES[scale][2].depth)


def render(doc: Dict) -> str:
    lines = render_off_on(doc, f"resolve ablation at depth {doc['depth']}",
                          PHASES, "walk ops/s", "thin ops/s")
    s = doc["on"]["server"]
    lines.append(
        f"  thin: {doc['on']['reads_per_lookup']:.2f} RPCs/lookup "
        f"({doc['on']['zk_reads']} reads / {doc['on']['lookups']} lookups) "
        f"vs walk {doc['off']['reads_per_lookup']:.2f}; server dentry "
        f"hits {s['dentry_hits']}/{s['dentry_hits'] + s['dentry_misses']} "
        f"over {s['resolves']} resolves")
    return "\n".join(lines)

