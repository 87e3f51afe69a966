#!/usr/bin/env python
"""The paper's Fig. 1 consistency problem — and how DUFS avoids it.

Two clients race: client 1 repeatedly creates directory ``/d1`` while
client 2 renames ``/d1`` to ``/d2``. With two *uncoordinated* metadata
servers (the strawman of §III-B), the servers can apply the operations in
different orders and end up inconsistent. Through ZooKeeper's atomic
broadcast every replica applies the same total order, so all replicas
converge — even while we crash and recover a ZooKeeper server mid-race.

Run:  python examples/consistency_demo.py
"""

from repro.core import build_dufs_deployment
from repro.errors import FSError
from repro.models.params import FaultToleranceParams, SimParams, ZKParams
from repro.zk.data import ZnodeStore


def strawman():
    """§III-B: two metadata servers applied in different orders diverge."""
    print("-- strawman: two UNcoordinated metadata servers --")
    mds1, mds2 = ZnodeStore(), ZnodeStore()
    # client 1: mkdir /d1 ; client 2: mv /d1 /d2 — arriving in different
    # orders at the two servers (Fig. 1b).
    mds1.apply(("create", "/d1", b"", 0, False), 1, 1.0)       # mkdir first
    mds1.apply(("multi", (("create", "/d2", b"", 0, False),
                          ("delete", "/d1"))), 2, 2.0)         # then rename
    mds2.apply(("create", "/d1", b"", 0, False), 1, 1.0)       # rename lost
    print(f"   MDS1 state: d1={mds1.exists('/d1') is not None} "
          f"d2={mds1.exists('/d2') is not None}")
    print(f"   MDS2 state: d1={mds2.exists('/d1') is not None} "
          f"d2={mds2.exists('/d2') is not None}")
    print(f"   consistent? {mds1.fingerprint() == mds2.fingerprint()}\n")


def dufs_race():
    print("-- DUFS: same race through the coordination service --")
    params = SimParams()
    params.zk = ZKParams(failure_detection=True)
    # Dedicated ZooKeeper nodes so crashing one doesn't take a DUFS client
    # with it; clients fail over to the next server and retry.
    dep = build_dufs_deployment(n_zk=5, n_backends=2, n_client_nodes=2,
                                backend="local", params=params,
                                co_locate_zk=False,
                                fault=FaultToleranceParams(
                                    request_timeout=0.5, max_retries=6))
    # Wait for the initial election to settle.
    dep.cluster.sim.run(until=2.0)
    m0, m1 = dep.mounts[0], dep.mounts[1]
    sim = dep.cluster.sim
    outcomes = {"mkdir": 0, "rename": 0, "conflict": 0}

    def creator():
        for _ in range(30):
            try:
                yield from m0.mkdir("/d1")
                outcomes["mkdir"] += 1
            except FSError:
                outcomes["conflict"] += 1
            yield sim.timeout(0.002)

    def renamer():
        for _ in range(30):
            try:
                yield from m1.rename("/d1", "/d2")
                outcomes["rename"] += 1
                yield from m1.rmdir("/d2")
            except FSError:
                outcomes["conflict"] += 1
            yield sim.timeout(0.002)

    def chaos():
        # Crash a ZooKeeper follower mid-race, recover it later.
        yield sim.timeout(0.02)
        victim = next(s for s in dep.ensemble.servers
                      if s.role == "following")
        print(f"   [chaos] crashing ZooKeeper server zk{victim.sid}")
        victim.node.crash()
        yield sim.timeout(0.5)
        print(f"   [chaos] recovering zk{victim.sid}")
        victim.node.recover()

    dep.client_nodes[0].spawn(creator())
    dep.client_nodes[1].spawn(renamer())
    dep.client_nodes[0].spawn(chaos())
    dep.cluster.sim.run(until=dep.cluster.sim.now + 5.0)

    print(f"   outcomes: {outcomes}")
    store = dep.ensemble.servers[0].store
    print(f"   final namespace: d1={store.exists('/d1') is not None} "
          f"d2={store.exists('/d2') is not None}")
    fps = dep.ensemble.fingerprints()
    print(f"   replica fingerprints: {[hex(f)[:10] for f in fps]}")
    print(f"   all replicas consistent? {dep.ensemble.converged()}")


if __name__ == "__main__":
    strawman()
    dufs_race()
