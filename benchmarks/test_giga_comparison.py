"""GIGA+ vs DUFS on one huge directory (related work, §VI).

The paper positions GIGA+ as the point design for million-file directories
("more relevant in workloads where the directories have a huge fan-out
factor") and criticizes its availability ("if the server or the partition
goes down ... the files are not accessible anymore"). Both halves,
measured.
"""

import pytest

from repro.core import build_dufs_deployment
from repro.models.params import FaultToleranceParams
from repro.pfs.giga import build_giga
from repro.sim import Cluster
from repro.workloads.driver import run_phase
from repro.workloads.mdtest import MdtestConfig, run_mdtest
from repro.workloads.treegen import TreeSpec

from .conftest import run_once


def giga_insert_throughput(procs=64, items=20, seed=0):
    cluster = Cluster(seed=seed)
    nodes = [cluster.add_node(f"client{i}") for i in range(8)]
    svc = build_giga(cluster, n_servers=4, split_threshold=400)
    clients = [svc.client(nodes[i % 8]) for i in range(procs)]

    def worker(p):
        for i in range(items):
            yield from clients[p].insert(f"f.{p}.{i}")

    res = run_phase(cluster.sim, "insert",
                    [nodes[i % 8] for i in range(procs)],
                    [worker(p) for p in range(procs)], items)
    return res.throughput, svc


def dufs_single_dir_create_throughput(procs=64, items=20, seed=0):
    dep = build_dufs_deployment(n_zk=8, n_backends=2, n_client_nodes=8,
                                backend="lustre", seed=seed)
    cfg = MdtestConfig(n_procs=procs, items_per_proc=items,
                       tree=TreeSpec(10, 2), single_dir=True,
                       phases=("file_create",))
    res = run_mdtest(dep.cluster, dep.mount_for, dep.node_for, cfg)
    return res.throughput("file_create")


def test_giga_wins_raw_huge_directory_inserts(benchmark):
    def measure():
        giga, svc = giga_insert_throughput()
        dufs = dufs_single_dir_create_throughput()
        return giga, dufs, svc

    giga, dufs, svc = run_once(benchmark, measure)
    print(f"\nsingle huge directory, 64 procs: GIGA+ inserts={giga:,.0f} "
          f"ops/s vs DUFS file creates={dufs:,.0f} ops/s")
    # No consistency protocol, no quorum, 4 unshackled servers: GIGA+ is
    # much faster at raw inserts — as the paper concedes.
    assert giga > 3 * dufs
    # And it spread the load (splits happened across servers).
    assert len([n for n in svc.partitions_per_server() if n]) >= 3


def test_giga_loses_availability(benchmark):
    """Crash one GIGA+ server: a slice of the directory disappears.
    Crash one ZooKeeper server under DUFS: nothing is lost."""
    from repro.errors import FSError
    from repro.sim.rpc import RpcTimeout

    def measure():
        # --- GIGA+ ---
        cluster = Cluster(seed=1)
        node = cluster.add_node("c0")
        svc = build_giga(cluster, n_servers=4, split_threshold=30)
        cli = svc.client(node)

        def fill():
            for i in range(400):
                yield from cli.insert(f"g{i}")

        p = node.spawn(fill())
        cluster.sim.run(until=p)
        svc.servers[1].node.crash()
        cli.rpc_timeout = 0.3
        lost = [0]

        def probe():
            for i in range(0, 400, 5):
                try:
                    yield from cli.lookup(f"g{i}")
                except (RpcTimeout, FSError):
                    lost[0] += 1

        p = node.spawn(probe())
        cluster.sim.run(until=p)

        # --- DUFS ---
        dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                    backend="local", seed=1,
                                    co_locate_zk=False,  # crash ZK, not us
                                    fault=FaultToleranceParams(
                                        request_timeout=0.5, max_retries=4))
        m = dep.mounts[0]

        def fill2():
            yield from m.mkdir("/huge")
            for i in range(80):
                yield from m.create(f"/huge/d{i}")

        dep.call(lambda: fill2())
        dep.ensemble.servers[2].node.crash()  # a follower
        missing = [0]

        def probe2():
            for i in range(80):
                try:
                    yield from m.stat(f"/huge/d{i}")
                except FSError:
                    missing[0] += 1

        dep.call(lambda: probe2())
        return lost[0], missing[0]

    giga_lost, dufs_missing = run_once(benchmark, measure)
    print(f"\nafter one server crash: GIGA+ unreachable={giga_lost}/80 "
          f"probes, DUFS missing={dufs_missing}/80")
    assert giga_lost > 0       # GIGA+: part of the namespace is gone
    assert dufs_missing == 0   # DUFS: quorum replication shrugs it off
