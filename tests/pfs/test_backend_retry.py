"""The Lustre and PVFS clients' fixed retry loop, pinned on its exhaustion
path: with ``client_rpc_timeout`` set, an RPC to a dead server is tried
``RPC_ATTEMPTS`` times back to back, each waiting out the full timeout,
and then the op fails with EIO — no backoff, no jitter."""

import pytest

from repro.errors import EIO, FSError
from repro.models.params import LustreParams, PVFSParams
from repro.pfs.base import RPC_ATTEMPTS
from repro.pfs.lustre import build_lustre
from repro.pfs.pvfs import build_pvfs
from repro.sim import Cluster

TIMEOUT = 0.5
T0 = 1.0


def fail_at(cluster, node, op):
    """Run ``op`` from ``T0``; return the sim time it raised EIO at."""
    cluster.sim.run(until=T0)

    def main():
        with pytest.raises(FSError) as exc:
            yield from op()
        assert exc.value.err == EIO
        return cluster.sim.now

    return cluster.sim.run(until=node.spawn(main()))


def test_lustre_dead_mds_fails_after_five_timeouts():
    cluster = Cluster(seed=0)
    node = cluster.add_node("client")
    fs = build_lustre(cluster, "l",
                      params=LustreParams(client_rpc_timeout=TIMEOUT))
    cli = fs.client(node)
    fs.mds.node.crash()
    assert RPC_ATTEMPTS == 5
    assert fail_at(cluster, node, lambda: cli.mkdir("/a")) \
        == T0 + 5 * TIMEOUT
    assert cli.stats["ops"] == 1


def test_pvfs_dead_server_fails_after_five_timeouts():
    cluster = Cluster(seed=0)
    node = cluster.add_node("client")
    fs = build_pvfs(cluster, "p", n_servers=4,
                    params=PVFSParams(client_rpc_timeout=TIMEOUT))
    cli = fs.client(node)
    # The server that owns the new directory's metadata object.
    target = cli._server_for_new(fs.root_handle, "a")
    next(s for s in fs.servers if s.endpoint == target).node.crash()
    assert fail_at(cluster, node, lambda: cli.mkdir("/a")) \
        == T0 + 5 * TIMEOUT
    assert cli.stats["rpcs"] == 1
