"""The traced run: per-layer numbers measured from outside the program.

Nothing under ``src/`` changes. While a :class:`Tracer` is installed it
replaces public entry points of each layer's classes with wrappers
defined here, and restores them afterwards:

- *Simulated spans.* ``FuseMount.call``, the ``DUFSClient`` ops, the
  ``MetadataService`` methods (single-ensemble and sharded), the
  ``ZKClient`` request methods and the Lustre/PVFS/CMD client ops each
  record a span of ``sim.now`` around their ``yield from``: layer, kind,
  start, end, parent span and op id. A wrapper adds no simulator event,
  so the traced run is event-for-event identical to the untraced one
  (``run.py`` checks it). A span's parent is the innermost open span of
  the same simulated process, or, for a spawned process, the span that
  was open in the process that spawned it. A layer's self time is its
  span time minus the part its child spans cover.
- *Counters* are read from the deployment's public state (client, cache,
  write-behind log, shard router, ZooKeeper servers, back-ends) before
  and after the measured phases, and from the public ``TraceBus`` rows
  and ``batch_occupancy()`` of a deployment built with ``trace=True``.
- *Host self time per package* comes from a statistical profiler: a
  ``SIGPROF`` interval timer samples the running Python frame, and a
  package's share of the samples is its share of the traced pass's host
  time. (``cProfile`` made these runs over 3x slower and shifts the
  proportions it reports; sampling does neither.)
- ``md5_int`` is wrapped where ``core.mapping``, ``mds.shardmap`` and
  ``hashing.consistent`` call it, counting calls and host time.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import gzip
import re
import signal
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

import repro.core.mapping as core_mapping
import repro.hashing.consistent as hashing_consistent
import repro.mds.shardmap as mds_shardmap
from repro.core.client import DUFSClient
from repro.core.mdcache import aggregate_counters
from repro.fuse.mount import FuseMount
from repro.mds.sharded import ShardedMDS
from repro.mds.single import SingleEnsembleMDS
from repro.pfs.cmd.client import CMDClient
from repro.pfs.lustre.client import LustreClient
from repro.pfs.pvfs.client import PVFSClient
from repro.sim.network import Network
from repro.sim.node import Node
from repro.zk.client import ZKClient

MUTATION_METHODS = {"mkdir", "rmdir", "create", "unlink"}
LOOKUP_METHODS = {"stat", "open", "readdir"}
ZK_KIND = {"get": "read", "exists": "read", "get_children": "read",
           "sync": "read", "resolve": "resolve", "create": "write",
           "set_data": "write", "delete": "write", "multi": "write"}
MDS_METHODS = tuple(ZK_KIND)
PFS_METHODS = ("mkdir", "rmdir", "create", "unlink", "stat", "readdir")
CLIENT_METHODS = ("mkdir", "rmdir", "create", "unlink", "stat", "readdir",
                  "open", "flush")

#: Per-method ZooKeeper server rows and per-op Lustre spans reported.
ZK_SERVER_METHODS = ("read", "write", "fwd_write", "resolve")
LUSTRE_OPS = ("mkdir", "rmdir", "create", "unlink", "stat")
#: Packages whose host self time is reported, by source-file prefix.
HOST_PACKAGES = {"sim": ("sim/",), "fuse": ("fuse/",),
                 "core.client": ("core/client.py",), "zk": ("zk/",),
                 "svc": ("svc/",), "pfs": ("pfs/",)}
_SERVER_ROW = re.compile(r"^zk/(s\d+)?zk\d+\.(\w+)$")

_MISSING = object()

#: Counters that are levels or settings, not running totals.
_LEVELS = ("wblog.max_pending", "wblog.capacity", "zk.propose_batch_max",
           "zk.log_batch_max")


def _sim_of(obj):
    """The simulator an entry point's object runs on."""
    for get in (lambda o: o.sim, lambda o: o.node.sim,
                lambda o: o.zk.node.sim, lambda o: o.clients[0].node.sim):
        try:
            return get(obj)
        except AttributeError:
            continue
    raise AttributeError(f"no simulator reachable from {obj!r}")


class HostSampler:
    """Samples the running Python frame on a CPU-time interval timer."""

    def __init__(self, interval: float = 0.001):
        self.interval = interval
        self.samples: Counter = Counter()
        self._old = None

    def _on_signal(self, _signum, frame) -> None:
        if frame is not None:
            self.samples[frame.f_code.co_filename] += 1

    def start(self) -> None:
        self._old = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old or signal.SIG_DFL)

    def shares(self) -> Dict[str, float]:
        """Share of samples per reported package."""
        total = sum(self.samples.values()) or 1
        out = {name: 0 for name in HOST_PACKAGES}
        for filename, n in self.samples.items():
            rel = filename.replace("\\", "/").split("/repro/", 1)
            if len(rel) != 2:
                continue
            for name, prefixes in HOST_PACKAGES.items():
                if rel[1].startswith(prefixes):
                    out[name] += n
        return {k: v / total for k, v in out.items()}


class Tracer:
    def __init__(self):
        # span: [layer, kind, start, end, parent, op]
        self.spans: List[list] = []
        self._stack: Dict[object, List[int]] = {}
        self._inherit: Dict[object, int] = {}
        self.active = False
        self.md5_calls = 0
        self.md5_s = 0.0
        self.zk_retries = 0
        self.net_stats: List[object] = []
        self.sampler = HostSampler()
        self._patches: List[tuple] = []
        self._before: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.bus = None

    # -- patching -----------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer entry point. Call before building deployments:
        FUSE op tables bind the client's methods when a mount is made."""
        self._patch(FuseMount, "call", self._wrap(FuseMount.call, "fuse",
                                                  lambda a: a[0]))
        for name in CLIENT_METHODS:
            kind = "mutation" if name in MUTATION_METHODS else \
                "lookup" if name in LOOKUP_METHODS else name
            self._patch(DUFSClient, name, self._wrap(
                getattr(DUFSClient, name), "core.client", lambda a, k=kind: k))
        for cls in (SingleEnsembleMDS, ShardedMDS):
            for name in MDS_METHODS:
                self._patch(cls, name, self._wrap(getattr(cls, name), "mds",
                                                  lambda a, n=name: n))
        for name, kind in ZK_KIND.items():
            self._patch(ZKClient, name, self._wrap(
                getattr(ZKClient, name), "zk.client", lambda a, k=kind: k))
        for cls, layer in ((LustreClient, "pfs.lustre"),
                           (PVFSClient, "pfs.pvfs"), (CMDClient, "pfs.cmd")):
            for name in PFS_METHODS:
                self._patch(cls, name, self._wrap(getattr(cls, name), layer,
                                                  lambda a, n=name: n))
        spawn = Node.spawn
        tracer = self

        def traced_spawn(node, gen, name=""):
            proc = spawn(node, gen, name)
            stack = tracer._stack.get(node.sim._active)
            if stack:
                tracer._inherit[proc] = stack[-1]
            return proc
        self._patch(Node, "spawn", traced_spawn)
        net_init = Network.__init__

        def traced_net_init(net, *a, **kw):
            net_init(net, *a, **kw)
            tracer.net_stats.append(net.stats)
        self._patch(Network, "__init__", traced_net_init)
        for module in (core_mapping, mds_shardmap, hashing_consistent):
            self._patch_md5(module)

    def _patch_md5(self, module) -> None:
        md5_int = module.md5_int
        tracer = self

        def timed_md5_int(data):
            if not tracer.active:
                return md5_int(data)
            t0 = time.perf_counter()
            value = md5_int(data)
            tracer.md5_s += time.perf_counter() - t0
            tracer.md5_calls += 1
            return value
        self._patches.append((module, "md5_int", md5_int))
        module.md5_int = timed_md5_int

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def _wrap(self, fn, layer: str, kind_of):
        tracer = self

        def wrapper(obj, *args, **kwargs):
            gen = fn(obj, *args, **kwargs)
            if not tracer.active:
                return gen
            return tracer._span(_sim_of(obj), layer, kind_of(args), gen,
                                obj)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans --------------------------------------------------------------
    def _span(self, sim, layer: str, kind: str, gen, obj=None):
        proc = sim._active
        stack = self._stack.get(proc)
        if stack is None:
            stack = self._stack[proc] = []
        parent = stack[-1] if stack else self._inherit.get(proc, -1)
        idx = len(self.spans)
        op = self.spans[parent][5] if parent >= 0 else idx
        rec = [layer, kind, sim.now, None, parent, op]
        self.spans.append(rec)
        stack.append(idx)
        try:
            return (yield from gen)
        finally:
            rec[3] = sim.now
            stack.pop()
            if not stack:
                del self._stack[proc]
            if layer == "zk.client":
                self.zk_retries += obj.last_retries

    def op_span(self, sim, cls: str, gen):
        """Root span of one benchmark op; its id is the op id."""
        return self._span(sim, "op", cls, gen)

    # -- measured window ----------------------------------------------------
    def begin(self, dep) -> None:
        if dep is not None:
            self.bus = dep.bus
            self._before = deployment_counters(dep)
        self._net0 = self._net_totals()
        self.active = True
        self.sampler.start()
        self._t0 = time.perf_counter()

    def end(self, dep) -> None:
        self.host_s = time.perf_counter() - self._t0
        self.sampler.stop()
        self.active = False
        if dep is not None:
            after = deployment_counters(dep)
            self.counters = {k: after[k] if k in _LEVELS
                             else after[k] - self._before.get(k, 0)
                             for k in after}

    # -- results --------------------------------------------------------------
    def _net_totals(self):
        return (sum(s.messages for s in self.net_stats),
                sum(s.bytes for s in self.net_stats))

    def self_times(self):
        """Per (layer, kind): [spans, total sim s, self sim s]."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[4] >= 0 and s[3] is not None:
                children[s[4]].append(i)
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (layer, kind, start, end, _p, _op) in enumerate(self.spans):
            if end is None:
                continue
            covered, cur_s, cur_e = 0.0, None, None
            for a, b in sorted((max(self.spans[c][2], start),
                                min(self.spans[c][3], end))
                               for c in children.get(i, ())):
                if b <= a:
                    continue
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
            for key in ((layer, kind), (layer, "*")):
                row = out[key]
                row[0] += 1
                row[1] += end - start
                row[2] += (end - start) - covered
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,layer,kind,start,end,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]},"
                         f"{s[5]}\n")

    def metrics(self, mutations: int) -> Dict[str, float]:
        """Per-layer metrics; ``mutations`` is the number of mutation ops
        the measured phases committed."""
        st = self.self_times()

        def mean(layer, kind="*", col=2):
            row = st.get((layer, kind))
            return row[col] / row[0] * 1e3 if row and row[0] else 0.0
        c = self.counters
        g = c.get
        m: Dict[str, float] = {}
        messages, nbytes = self._net_totals()
        m["sim.net.messages"] = float(messages - self._net0[0])
        m["sim.net.bytes"] = float(nbytes - self._net0[1])
        m["fuse.calls"] = float(st.get(("fuse", "*"), [0])[0])
        m["fuse.sim_self_ms"] = mean("fuse")
        m["core.client.sim_self_ms.mutation"] = mean("core.client", "mutation")
        m["core.client.sim_self_ms.lookup"] = mean("core.client", "lookup")
        ops = g("client.ops", 0)
        m["core.client.zk_rpcs_per_op"] = (
            (g("client.zk_reads", 0) + g("client.zk_writes", 0)) / ops
            if ops else 0.0)
        m["core.client.backend_ops_per_op"] = (
            g("client.backend_ops", 0) / ops if ops else 0.0)
        lookups = g("mdcache.hits", 0) + g("mdcache.misses", 0) + \
            g("mdcache.coalesced", 0)
        m["mdcache.hit_ratio"] = g("mdcache.hits", 0) / lookups \
            if lookups else 0.0
        m["mdcache.invalidations"] = g("mdcache.invalidations", 0) + \
            g("mdcache.watch_invalidations", 0)
        for k in ("coalesced", "evictions", "overlay_hits"):
            m[f"mdcache.{k}"] = float(g(f"mdcache.{k}", 0))
        m["wblog.acked"] = float(g("wblog.acked", 0))
        m["wblog.stalls"] = float(g("wblog.stalls", 0))
        m["wblog.max_pending"] = float(g("wblog.max_pending", 0))
        cap = g("wblog.capacity", 0)
        flushes = g("wblog.flushes", 0)
        m["wblog.drain_fill"] = (g("wblog.items", 0) / flushes / cap
                                 if flushes and cap else 0.0)
        m["hashing.md5.calls"] = float(self.md5_calls)
        m["hashing.md5.host_s"] = self.md5_s
        m["mds.sim_self_ms"] = mean("mds")
        resolves = g("mds.resolves", 0)
        m["mds.resolve_hops_per_lookup"] = g("mds.resolve_hops", 0) / resolves \
            if resolves else 0.0
        for k in ("cross_shard_ops", "intents_written", "stale_map_retries"):
            m[f"mds.{k}"] = float(g(f"mds.{k}", 0))
        shard_ops = [v for k, v in c.items() if k.startswith("shard_ops.")]
        m["mds.shard_load_max_share"] = (max(shard_ops) / sum(shard_ops)
                                         if shard_ops and sum(shard_ops)
                                         else 0.0)
        for kind in ("read", "write", "resolve"):
            m[f"zk.client.sim_ms.{kind}"] = mean("zk.client", kind, col=1)
        m["zk.client.retries"] = float(self.zk_retries)
        m.update(self._bus_metrics())
        props = g("zk.proposals", 0)
        m["zk.proposals_per_mutation"] = props / mutations if mutations \
            else 0.0
        dh, dm = g("zk.dentry_hits", 0), g("zk.dentry_misses", 0)
        m["zk.dentry_hit_ratio"] = dh / (dh + dm) if dh + dm else 0.0
        m["resilience.hedges"] = float(g("res.hedges", 0))
        m["resilience.hedge_win_ratio"] = (g("res.hedges_won", 0) /
                                           g("res.hedges", 0)
                                           if g("res.hedges", 0) else 0.0)
        m["resilience.retries"] = float(g("res.retries", 0))
        m["resilience.breaker_opens"] = float(g("res.breaker_trips", 0))
        for op in LUSTRE_OPS:
            m[f"pfs.lustre.sim_ms.{op}"] = mean("pfs.lustre", op, col=1)
        m["pfs.lustre.dlm_revokes"] = float(g("lustre.dlm_revokes", 0))
        for name, share in self.sampler.shares().items():
            m[f"{name}.host_self_s"] = share * self.host_s
        return m

    def _bus_metrics(self) -> Dict[str, float]:
        m = {f"zk.server.{w}_ms.{meth}": 0.0
             for w in ("queue_wait", "service") for meth in ZK_SERVER_METHODS}
        m.update({"zk.propose_fill": 0.0, "zk.txnlog_fill": 0.0,
                  "svc.admission_wait_ms": 0.0, "svc.rejected": 0.0,
                  "svc.expired": 0.0})
        bus = self.bus
        if bus is None:
            return m
        sums = defaultdict(lambda: [0, 0.0, 0.0])
        waits, n_waits = 0.0, 0
        for key in bus.keys():
            match = _SERVER_ROW.match(key)
            qw = bus.queue_wait.samples(key)
            sv = bus.service.samples(key)
            if match and match.group(2) in ZK_SERVER_METHODS:
                row = sums[match.group(2)]
                row[0] += len(sv)
                row[1] += sum(qw)
                row[2] += sum(sv)
            if not key.startswith(("zk/dufszk", "dufs/", "mdcache/")):
                waits += sum(qw)
                n_waits += len(qw)
        for meth, (n, qw, sv) in sums.items():
            if n:
                m[f"zk.server.queue_wait_ms.{meth}"] = qw / n * 1e3
                m[f"zk.server.service_ms.{meth}"] = sv / n * 1e3
        m["svc.admission_wait_ms"] = waits / n_waits * 1e3 if n_waits else 0.0
        m["svc.rejected"] = float(sum(bus.rejected.as_dict().values()))
        m["svc.expired"] = float(sum(bus.expired.as_dict().values()))
        occ = bus.batch_occupancy()
        cap = {"proposer": self.counters.get("zk.propose_batch_max", 1),
               "logger": self.counters.get("zk.log_batch_max", 1)}
        for part, metric in (("proposer", "zk.propose_fill"),
                             ("logger", "zk.txnlog_fill")):
            rows = [v for k, v in occ.items()
                    if k.startswith("zk/") and k.endswith("." + part)]
            flushes = sum(r["flushes"] for r in rows)
            items = sum(r["items"] for r in rows)
            if flushes:
                m[metric] = items / flushes / cap[part]
            elif part == "proposer" and self.counters.get("zk.proposals"):
                m[metric] = 1.0   # unbatched: every proposal fills its slot
        return m


def _zk_clients(dep) -> List[ZKClient]:
    out = []
    for c in dep.clients:
        svc = c.zk
        out.extend(svc.clients if isinstance(svc, ShardedMDS) else [svc.zk])
    return out


def deployment_counters(dep) -> Dict[str, float]:
    """Cumulative counters of one DUFS deployment, read from public state."""
    c: Dict[str, float] = defaultdict(float)
    c["wblog.max_pending"] = 0.0
    for cl in dep.clients:
        for k in ("ops", "zk_reads", "zk_writes", "backend_ops"):
            c[f"client.{k}"] += cl.stats.get(k, 0)
        if cl.wblog is not None:
            for k in ("acked", "stalls"):
                c[f"wblog.{k}"] += cl.wblog.stats[k]
            c["wblog.max_pending"] = max(c["wblog.max_pending"],
                                         cl.wblog.stats["max_pending"])
            c["wblog.flushes"] += cl.wblog.batch_stats.get("flushes", 0)
            c["wblog.items"] += cl.wblog.batch_stats.get("items", 0)
            c["wblog.capacity"] = cl.wblog.params.drain_batch_max
        if isinstance(cl.zk, ShardedMDS):
            for k in ("resolves", "resolve_hops", "cross_shard_ops",
                      "intents_written", "stale_map_retries"):
                c[f"mds.{k}"] += cl.zk.stats.get(k, 0)
    for k, v in aggregate_counters([cl.mdcache for cl in dep.clients]).items():
        c[f"mdcache.{k}"] = v
    for shard, ens in enumerate(dep.ensembles):
        for srv in ens.servers:
            for k in ("proposals", "dentry_hits", "dentry_misses"):
                c[f"zk.{k}"] += srv.stats.get(k, 0)
            c[f"shard_ops.{shard}"] += srv.stats.get("ops", 0)
    c["zk.propose_batch_max"] = dep.params.zk.propose_batch_max
    c["zk.log_batch_max"] = dep.params.zk.log_batch_max
    for zkc in _zk_clients(dep):
        c["res.hedges"] += zkc.hedges
        c["res.hedges_won"] += zkc.hedges_won
        c["res.breaker_trips"] += zkc.breakers.trips()
        c["res.retries"] += zkc.retry.budget.spent
    for be in dep.backends:
        dlm = getattr(getattr(be, "mds", None), "dlm", None)
        if dlm is not None:
            c["lustre.dlm_revokes"] += dlm.stats["revokes"]
    return dict(c)
