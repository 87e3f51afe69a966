"""The benchmark's four workloads.

Every workload is a closed loop: simulated processes issue one metadata
op, wait for its reply, issue the next, and meet at a barrier between
phases. All load comes from this single host process; simulated
processes are coroutines of the single-threaded simulator.

A workload has two steps, timed separately by ``run.py``:

- ``setup()`` builds the deployment and populates the scaffold or the
  dataset (``setup_s``);
- ``measure(state, tracer)`` runs the measured phases (``host_s``), then
  checks every result against the expected namespace and audits the
  final state. It returns an :class:`Outcome`.

The seed makes the inputs: the DL epoch shuffles, the mdtest item and
checkpoint names, and the deployment seed. The program under test only
receives the generated paths. mdtest, as the paper ran it, has no random
input: ``mdtest_paper``'s simulated results do not change with the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import stat as statmod
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.bench import figures
from repro.bench.paper_data import PAPER_CURVES
from repro.chaos.audit import audit_dufs
from repro.core.fs import build_dufs_deployment
from repro.models.params import (AsyncParams, CacheParams, ResilienceParams,
                                 ResolveParams, SimParams)
from repro.sim.core import Simulator
from repro.sim.stats import percentile
from repro.workloads.driver import run_phase
from repro.workloads.dltrain import DLTrainSpec
from repro.workloads.mdtest import ALL_PHASES
from repro.workloads.treegen import TreeSpec, item_dir, tree_dirs

MUTATION, LOOKUP = "mutation", "lookup"

#: mdtest phase -> (op class, client method, result check)
_MDTEST_OPS = {
    "dir_create": (MUTATION, "mkdir", None),
    "dir_stat": (LOOKUP, "stat", "dir"),
    "dir_remove": (MUTATION, "rmdir", None),
    "file_create": (MUTATION, "create", None),
    "file_stat": (LOOKUP, "stat", "file"),
    "file_remove": (MUTATION, "unlink", None),
}

#: The paper's testbed: 8 client nodes, 8 co-located ZooKeeper servers,
#: 2 Lustre back-ends, mdtest on a fan-out-10, depth-2 tree.
N_NODES, N_ZK, N_BACKENDS = 8, 8, 2
MDTEST_TREE = TreeSpec(fanout=10, depth=2)
BARRIER_SLACK = 0.05


def _type_ok(want: Optional[str], result) -> bool:
    if want is None:
        return True
    mode = getattr(result, "st_mode", None)
    if mode is None:
        return False
    return statmod.S_ISDIR(mode) if want == "dir" else statmod.S_ISREG(mode)


@dataclass
class Phase:
    name: str
    cls: str            # MUTATION or LOOKUP
    ops: int
    duration: float     # simulated seconds, barrier to barrier
    latencies: List[float] = field(default_factory=list)


@dataclass
class Outcome:
    """What one measured pass produced."""

    host_s: float
    phases: List[Phase]
    attempted: int
    failures: List[str]
    events: int                       # simulator events of the pass
    notes: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated end-to-end metrics; they repeat exactly for a seed."""
        out: Dict[str, float] = {}
        for cls in (MUTATION, LOOKUP):
            ps = [p for p in self.phases if p.cls == cls]
            ops = sum(p.ops for p in ps)
            dur = sum(p.duration for p in ps)
            xs = sorted(x for p in ps for x in p.latencies)
            out[f"sim_{cls}_ops_per_s"] = ops / dur if dur > 0 else 0.0
            out[f"sim_{cls}_p50_ms"] = percentile(xs, 0.50) * 1e3 if xs else 0.0
            out[f"sim_{cls}_p99_ms"] = percentile(xs, 0.99) * 1e3 if xs else 0.0
            out[f"sim_{cls}_samples"] = float(len(xs))
        return out

    def fingerprint(self) -> str:
        """Digest of every per-phase simulated result (and every series
        point for the campaign). Printed, never gated."""
        h = hashlib.sha256()
        for p in self.phases:
            h.update(f"{p.name}|{p.cls}|{p.ops}|{p.duration!r}|".encode())
            h.update(repr(p.latencies).encode())
        for name in sorted(self.series):
            h.update(f"{name}={self.series[name]!r}".encode())
        return h.hexdigest()[:16]


class Recorder:
    """Issues checked, timed ops on behalf of simulated processes.

    A failed op (raised, or returned a wrong result) is recorded and the
    process moves on: failures never abort the run.
    """

    def __init__(self, sim: Simulator, tracer=None):
        self.sim = sim
        self.tracer = tracer
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def op(self, lat: List[float], cls: str, fs, method: str, path: str,
           want: Optional[str] = None) -> Generator:
        self.attempted += 1
        gen = getattr(fs, method)(path)
        if self.tracer is not None:
            gen = self.tracer.op_span(self.sim, cls, gen)
        t0 = self.sim.now
        try:
            result = yield from gen
        except Exception as exc:  # counted as failed; the process goes on
            lat.append(self.sim.now - t0)
            self.fail(f"{method} {path}: {exc!r}")
            return None
        lat.append(self.sim.now - t0)
        if not _type_ok(want, result):
            self.fail(f"{method} {path}: expected a {want}, got {result!r}")
        return result

    def phase(self, name: str, cls: str, nodes, workers: List[Generator],
              lat: List[float], ops: int) -> Phase:
        if BARRIER_SLACK:
            self.sim.run(until=self.sim.now + BARRIER_SLACK)
        res = run_phase(self.sim, name, nodes, workers, 0)
        return Phase(name, cls, ops, res.duration, lat)


def _parallel(sim, nodes, chunks: List[List[Tuple[Callable, str]]],
              name: str) -> None:
    """Set-up helper: run each chunk of ``(op, path)`` calls in its own
    simulated process and wait for all of them."""
    def worker(chunk):
        for fn, path in chunk:
            yield from fn(path)
    run_phase(sim, name, nodes, [worker(c) for c in chunks if c], 0)


def _spread(items: List, n: int) -> List[List]:
    return [items[i::n] for i in range(n)]


def _children_check(rec: Recorder, sim, fs, nodes,
                    expected: Dict[str, set]) -> None:
    """After the measured phases: every listed directory holds exactly the
    expected entries (the remove phases left the tree empty)."""
    def worker():
        for d, want in expected.items():
            rec.attempted += 1
            try:
                names = {e.name for e in (yield from fs.readdir(d))}
            except Exception as exc:  # counted as failed
                rec.fail(f"readdir {d}: {exc!r}")
                continue
            if names != want:
                extra = sorted(names - want)[:3]
                missing = sorted(want - names)[:3]
                rec.fail(f"readdir {d}: extra {extra} missing {missing}")
    run_phase(sim, "check", nodes, [worker()], 0)


def _audit(rec: Recorder, dep, notes: Dict[str, float]) -> None:
    rec.attempted += 1
    report = audit_dufs(dep)
    notes["audit_violations"] = float(len(report.violations))
    notes["lost_unacked"] = float(report.lost_unacked)
    if not report.ok:
        rec.fail(f"audit: {report.to_text()[:400]}")


def paper_error(phases: List[Phase]) -> float:
    """Mean |measured/paper - 1| over the six mdtest phases against the
    paper's 256-proc DUFS-over-Lustre anchors (digitized, ~±20%)."""
    ref = PAPER_CURVES["fig10_256procs"]["dufs-lustre"]
    errs = [abs((p.ops / p.duration) / ref[p.name] - 1.0)
            for p in phases if p.name in ref and p.duration > 0]
    return sum(errs) / len(errs) if errs else float("nan")


# ---------------------------------------------------------------------------
# mdtest: mdtest_paper and mdtest_writeback
# ---------------------------------------------------------------------------

class Mdtest:
    """The six mdtest phases on the shared fan-out-10, depth-2 tree.

    ``paper`` drives the FUSE mounts of the paper config (every feature
    off). ``writeback`` turns on write-behind, the client cache, 4 shards
    and leader group commit, and drives ``DUFSClient`` directly: FUSE has
    no flush op, so through a mount the drain barrier is never found and
    the scaffold fails with ENOENT (see README.md, "Known defect").
    """

    def __init__(self, seed: int, procs: int, items: int, writeback: bool):
        self.seed, self.procs, self.items = seed, procs, items
        self.writeback = writeback
        rng = random.Random(f"mdtest/{seed}")
        tag = f"{rng.getrandbits(24):06x}"
        dirs = tree_dirs(MDTEST_TREE)
        self.scaffold = dirs
        self.paths = {
            kind: [[f"{item_dir(MDTEST_TREE, dirs, p, i)}/m{kind}.{tag}.{p}.{i}"
                    for i in range(items)] for p in range(procs)]
            for kind in "df"}

    def _deployment(self, trace: bool):
        if not self.writeback:
            return build_dufs_deployment(
                n_zk=N_ZK, n_backends=N_BACKENDS, n_client_nodes=N_NODES,
                backend="lustre", seed=self.seed, trace=trace)
        params = SimParams()
        params.zk.propose_batch_max = 8
        return build_dufs_deployment(
            n_zk=N_ZK, n_backends=N_BACKENDS, n_client_nodes=N_NODES,
            backend="lustre", params=params, seed=self.seed, trace=trace,
            cache=CacheParams.caching_on(), n_shards=4,
            awrite=AsyncParams.async_on())

    def fs_for(self, dep, p: int):
        return dep.clients[p % N_NODES] if self.writeback else dep.mount_for(p)

    def _drain(self, fs) -> Generator:
        if self.writeback:
            yield from fs.flush()

    def setup(self, trace: bool = False):
        dep = self._deployment(trace)
        sim = dep.cluster.sim
        nodes = [dep.node_for(p) for p in range(self.procs)]
        by_depth: Dict[int, List[str]] = {}
        for d in self.scaffold:
            by_depth.setdefault(d.count("/"), []).append(d)
        for depth in sorted(by_depth):
            level = _spread(by_depth[depth], min(self.procs,
                                                 len(by_depth[depth])))

            def worker(p, chunk):
                fs = self.fs_for(dep, p)
                for d in chunk:
                    yield from fs.mkdir(d)
                yield from self._drain(fs)
            run_phase(sim, f"scaffold-{depth}", nodes,
                      [worker(p, c) for p, c in enumerate(level)], 0)
        return dep

    def measure(self, dep, tracer=None) -> Outcome:
        sim = dep.cluster.sim
        nodes = [dep.node_for(p) for p in range(self.procs)]
        rec = Recorder(sim, tracer)
        ev0 = sim._eid
        if tracer is not None:
            tracer.begin(dep)
        t0, c0 = time.perf_counter(), time.process_time()
        phases = []
        for name in ALL_PHASES:
            cls, method, want = _MDTEST_OPS[name]
            order = self.paths[name[0]]
            lat: List[float] = []

            def worker(p):
                fs = self.fs_for(dep, p)
                for path in order[p]:
                    yield from rec.op(lat, cls, fs, method, path, want)
                yield from self._drain(fs)
            phases.append(rec.phase(name, cls, nodes,
                                    [worker(p) for p in range(self.procs)],
                                    lat, self.procs * self.items))
        host_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        events = sim._eid - ev0
        if tracer is not None:
            tracer.end(dep)
        notes = {"paper_error": paper_error(phases), "cpu_s": cpu_s}
        expected = {d: set() for d in self.scaffold}
        for d in self.scaffold[1:]:
            parent, name = d.rsplit("/", 1)
            expected[parent].add(name)
        _children_check(rec, sim, self.fs_for(dep, 0), nodes, expected)
        _audit(rec, dep, notes)
        if self.writeback:
            _check_wblog(rec, dep, notes)
        return Outcome(host_s, phases, rec.attempted, rec.failures, events,
                       notes)


def _check_wblog(rec: Recorder, dep, notes: Dict[str, float]) -> None:
    acked = sum(c.wblog.stats["acked"] for c in dep.clients)
    committed = sum(c.wblog.stats["committed"] for c in dep.clients)
    notes["wblog_acked"], notes["wblog_committed"] = acked, committed
    rec.attempted += 2
    if acked != committed:
        rec.fail(f"wblog: acked {acked} != committed {committed}")
    if notes.get("lost_unacked"):
        rec.fail(f"wblog: {notes['lost_unacked']:.0f} acked ops lost")


# ---------------------------------------------------------------------------
# dltrain_stack
# ---------------------------------------------------------------------------

class DLTrain:
    """A read-mostly DL-training namespace through FUSE, read stack on.

    Set-up creates flat shard dirs of samples (more than one client's
    cache holds) and depth-8 checkpoint chains. Each epoch is two phases:

    - ``epochN_lookup``: the sample set, reshuffled from the seed every
      epoch and partitioned over the processes, is stat'ed once; every
      process also stats the depth-8 checkpoint files (cache hits);
    - ``epochN_ckpt``: every process saves its checkpoint as
      ``CKPT_PARTS`` part files in its chain's deepest directory and
      unlinks the previous epoch's parts (keep-last-one rotation).
    """

    CKPT_PARTS = 4

    def __init__(self, seed: int, procs: int, spec: DLTrainSpec,
                 deep_stats: int):
        self.seed, self.procs, self.spec = seed, procs, spec
        self.deep_stats = deep_stats
        rng = random.Random(f"dltrain/{seed}")
        samples = spec.sample_files()
        self.epochs = []
        for _ in range(spec.epochs):
            order = samples[:]
            rng.shuffle(order)
            self.epochs.append(_spread(order, procs))
        chains = spec.chain_files()
        self.deep = [[chains[(p + k) % len(chains)] for k in range(deep_stats)]
                     for p in range(procs)]

    def _deployment(self, trace: bool):
        return build_dufs_deployment(
            n_zk=N_ZK, n_backends=N_BACKENDS, n_client_nodes=N_NODES,
            backend="lustre", seed=self.seed, trace=trace, n_shards=4,
            cache=CacheParams.caching_on(),
            resolve=ResolveParams.resolve_on(),
            resilience=ResilienceParams.resilience_on(hedge_enabled=True))

    def leaf(self, p: int) -> str:
        return self.spec.chain_dirs(p % self.spec.n_chains)[-1]

    def part(self, p: int, epoch: int, k: int) -> str:
        return f"{self.leaf(p)}/ckpt.{self.seed}.e{epoch}.r{p}.{k}"

    def setup(self, trace: bool = False):
        dep = self._deployment(trace)
        sim = dep.cluster.sim
        nodes = [dep.node_for(p) for p in range(self.procs)]
        by_depth: Dict[int, List[str]] = {}
        for d in self.spec.all_dirs():
            by_depth.setdefault(d.count("/"), []).append(d)
        for depth in sorted(by_depth):
            chunks = _spread([(dep.mount_for(i).mkdir, d) for i, d in
                              enumerate(by_depth[depth])], self.procs)
            _parallel(sim, nodes, chunks, f"mkdir-{depth}")
        files = self.spec.all_files()
        chunks = _spread([(dep.mount_for(i).create, f)
                          for i, f in enumerate(files)], self.procs)
        _parallel(sim, nodes, chunks, "populate")
        sim.run(until=sim.now + BARRIER_SLACK)
        return dep

    def measure(self, dep, tracer=None) -> Outcome:
        sim = dep.cluster.sim
        nodes = [dep.node_for(p) for p in range(self.procs)]
        rec = Recorder(sim, tracer)
        ev0 = sim._eid
        if tracer is not None:
            tracer.begin(dep)
        t0, c0 = time.perf_counter(), time.process_time()
        phases = []
        for e, parts in enumerate(self.epochs):
            lat: List[float] = []

            def reader(p):
                m = dep.mount_for(p)
                for path in parts[p]:
                    yield from rec.op(lat, LOOKUP, m, "stat", path, "file")
                for path in self.deep[p]:
                    yield from rec.op(lat, LOOKUP, m, "stat", path, "file")
            n = sum(len(x) for x in parts) + self.procs * self.deep_stats
            phases.append(rec.phase(f"epoch{e}_lookup", LOOKUP, nodes,
                                    [reader(p) for p in range(self.procs)],
                                    lat, n))
            lat = []

            def saver(p):
                m = dep.mount_for(p)
                for k in range(self.CKPT_PARTS):
                    yield from rec.op(lat, MUTATION, m, "create",
                                      self.part(p, e, k))
                if e:
                    for k in range(self.CKPT_PARTS):
                        yield from rec.op(lat, MUTATION, m, "unlink",
                                          self.part(p, e - 1, k))
            n = self.procs * self.CKPT_PARTS * (2 if e else 1)
            phases.append(rec.phase(f"epoch{e}_ckpt", MUTATION, nodes,
                                    [saver(p) for p in range(self.procs)],
                                    lat, n))
        host_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        events = sim._eid - ev0
        if tracer is not None:
            tracer.end(dep)
        last = len(self.epochs) - 1
        expected = {self.leaf(c): {"ckpt"} for c in range(self.spec.n_chains)}
        for p in range(self.procs):
            expected[self.leaf(p)].update(
                self.part(p, last, k).rsplit("/", 1)[1]
                for k in range(self.CKPT_PARTS))
        _children_check(rec, sim, dep.mount_for(0), nodes, expected)
        notes: Dict[str, float] = {"cpu_s": cpu_s}
        _audit(rec, dep, notes)
        return Outcome(host_s, phases, rec.attempted, rec.failures, events,
                       notes)


# ---------------------------------------------------------------------------
# campaign_quick
# ---------------------------------------------------------------------------

#: Every figure target of ``repro all`` except ``claims`` (which forces
#: medium scale), in the CLI's order.
CAMPAIGN_TARGETS = ("fig7", "fig8", "fig9", "fig10", "fig11", "singledir",
                    "cmd", "ablations")

#: Series that count events rather than measure a rate: zero is a valid
#: value (no DLM revocations with the DLM switched off).
COUNT_SERIES = ("lustre_revocations/", "lustre_lookup_rpcs/", "global_locks/")


class EventCount:
    """Counts simulator events across every cluster the campaign builds,
    by wrapping ``Simulator.__init__`` and ``Simulator.run``."""

    def __init__(self):
        self.total = 0
        self._live: Dict[int, int] = {}

    def install(self):
        counter, init, run = self, Simulator.__init__, Simulator.run

        def counted_init(sim, *a, **kw):
            init(sim, *a, **kw)
            counter.total += counter._live.pop(id(sim), 0)

        def counted_run(sim, *a, **kw):
            try:
                return run(sim, *a, **kw)
            finally:
                counter._live[id(sim)] = sim._eid
        Simulator.__init__, Simulator.run = counted_init, counted_run
        return lambda: (setattr(Simulator, "__init__", init),
                        setattr(Simulator, "run", run))

    def value(self) -> int:
        return self.total + sum(self._live.values())


class Campaign:
    """Every quick-scale figure target, serially, in this process.

    Its simulated metrics pool every mdtest run of the sweep (all
    systems, all proc counts); they do not depend on the seed, because
    no-fault figure runs never draw from the seeded random streams.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, trace: bool = False):
        """A user's set-up cost: a fresh interpreter importing the figure
        runners, the step before the first sweep point."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {src!r}); "
                        "import repro.cli"], check=True, timeout=120)
        return None

    def measure(self, _state, tracer=None) -> Outcome:
        from repro.cli import RUNNERS
        phases: List[Phase] = []
        run_mdtest = figures.run_mdtest

        def captured(*a, **kw):
            res = run_mdtest(*a, **kw)
            for name, pr in res.phases.items():
                phases.append(Phase(name, _MDTEST_OPS[name][0], pr.ops,
                                    pr.duration, res.latencies.samples(name)))
            return res
        events = EventCount()
        restore = events.install()
        figures.run_mdtest = captured
        if tracer is not None:
            tracer.begin(None)
        series: Dict[str, List[Tuple[float, float]]] = {}
        notes: Dict[str, float] = {}
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            for target in CAMPAIGN_TARGETS:
                t = time.perf_counter()
                fig = RUNNERS[target](scale="quick", seed=self.seed)
                notes[f"bench.{target}.host_s"] = time.perf_counter() - t
                for name, pts in fig.series.items():
                    series[f"{target}:{name}"] = pts
            host_s = time.perf_counter() - t0
            notes["cpu_s"] = time.process_time() - c0
        finally:
            figures.run_mdtest = run_mdtest
            restore()
            if tracer is not None:
                tracer.end(None)
        failures = []
        attempted = 0
        for name, pts in series.items():
            for x, y in pts:
                attempted += 1
                count = name.split(":", 1)[1].startswith(COUNT_SERIES)
                if not math.isfinite(y) or y < 0 or (y == 0 and not count):
                    failures.append(f"{name} @ {x}: {y!r}")
        return Outcome(host_s, phases, attempted, failures, events.value(),
                       notes, series)


# ---------------------------------------------------------------------------

def make(name: str, seed: int):
    """The named workload at its fixed configuration and run length."""
    if name == "mdtest_paper":
        return Mdtest(seed, procs=256, items=10, writeback=False)
    if name == "mdtest_writeback":
        return Mdtest(seed, procs=256, items=10, writeback=True)
    if name == "dltrain_stack":
        spec = DLTrainSpec(n_shard_dirs=16, samples_per_dir=272, n_chains=16,
                           depth=8, epochs=3)
        return DLTrain(seed, procs=64, spec=spec, deep_stats=8)
    if name == "campaign_quick":
        return Campaign(seed)
    raise KeyError(name)


WORKLOADS = ("mdtest_paper", "dltrain_stack", "mdtest_writeback",
             "campaign_quick")
