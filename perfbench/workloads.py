"""The benchmark's workloads: seeded inputs, oracles, set-up and one job.

Every workload is driven through a public entry point of ``repro``:
:class:`repro.core.session.Session` for batch jobs, and
:class:`repro.service.server.GraphService` with
:class:`repro.service.client.ServiceClient` over loopback TCP for
serving.  The program only ever sees the generated graph file.

A workload object has four steps, called by ``run.py`` in this order:

``prepare(seed, workdir)``
    Generate the graph from the seed, write it to ``workdir`` and
    compute the serial oracle answers.  Never timed.
``setup()``
    One cold set-up: read the file, build the graph, construct the
    entry point until it accepts jobs.  Returns ``(system, spans)``.
``run_job(system, client, step, spec=None)``
    One job, submitted and verified against the oracle; returns a
    :class:`Outcome`.
``close(system)``
    Stop every thread and process the set-up started.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.cliques import max_clique_reference
from repro.algorithms.matching import QueryGraph, count_matches
from repro.algorithms.triangles import count_triangles, list_triangles
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.core.config import GThinkerConfig
from repro.core.session import Session
from repro.graph import generators
from repro.graph.io import read_adjacency, write_adjacency
from repro.service.client import ServiceClient
from repro.service.server import GraphService

#: Seconds a single job may take before it counts as a timeout.
JOB_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one job did, as the benchmark saw it."""

    latency_s: float
    ok: bool
    error: Optional[str] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    cached: bool = False
    executed: bool = True
    submit_rpc_s: Optional[float] = None
    queue_wait_s: Optional[float] = None
    exec_s: Optional[float] = None
    traced: bool = False
    #: Which of the run's input graphs the job ran on.
    input: int = 0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class BatchWorkload:
    """One app through ``Session.submit``, one job at a time.

    A run holds ``inputs`` graphs made from the seed and cycles its jobs
    through them, so the run's median spans that many inputs.  Set-ups
    are timed on the first graph.  Keep ``inputs`` odd: a traced run
    alternates traced and untraced jobs, and an even cycle would trace
    only every other input.
    """

    clients = 1

    def __init__(self, name: str, why: str, runtime: str, app: str,
                 make_graph, config: GThinkerConfig, inputs: int = 1) -> None:
        self.name = name
        self.why = why
        self.runtime = runtime
        self.app = app
        self.make_graph = make_graph
        self.config = config
        self.inputs = inputs
        self.graphs: List = []
        self.paths: List[Path] = []
        self.oracles: List[int] = []

    @property
    def workers(self) -> int:
        """Execution units a job occupies at once (checked against nproc)."""
        if self.runtime in ("process", "cluster"):
            return self.config.num_workers * self.config.compers_per_worker
        return 1

    def prepare(self, seed: int, workdir: Path) -> None:
        for i in range(self.inputs):
            g = self.make_graph(seed * self.inputs + i)
            path = workdir / f"{self.name}-s{seed}-{i}.adj"
            write_adjacency(g, path)
            self.graphs.append(g)
            self.paths.append(path)
            self.oracles.append(count_triangles(g) if self.app == "tc"
                                else len(max_clique_reference(g)))

    def _open(self, i: int) -> Tuple[Session, float]:
        g, read_s = _timed(read_adjacency, self.paths[i])
        session = Session(g, self.config, self.runtime)
        if g.num_edges != self.graphs[i].num_edges:
            session.close()
            raise RuntimeError(f"{self.paths[i]} read back {g.num_edges} "
                               f"edges, wrote {self.graphs[i].num_edges}")
        return session, read_s

    def setup(self):
        t0 = time.perf_counter()
        session, read_s = self._open(0)
        total = time.perf_counter() - t0
        return [session], {"setup_s": total, "graph.read_s": read_s}

    def extend(self, sessions: List[Session]) -> List[Session]:
        """Open the other inputs after the timed set-ups (untimed)."""
        return sessions + [self._open(i)[0] for i in range(1, self.inputs)]

    def _factory(self):
        return TriangleCountComper if self.app == "tc" else MaxCliqueComper

    def verify(self, aggregate, i: int = 0) -> Optional[str]:
        """None when ``aggregate`` is input ``i``'s oracle answer, else why not."""
        want = self.oracles[i]
        if self.app == "tc":
            if aggregate != want:
                return f"triangles {aggregate} != oracle {want}"
            return None
        clique = tuple(aggregate or ())
        if len(clique) != want:
            return f"clique size {len(clique)} != oracle {want}"
        for u, v in itertools.combinations(clique, 2):
            if not self.graphs[i].has_edge(u, v):
                return f"returned set is not a clique: no edge {u}-{v}"
        return None

    def warm_spec(self) -> None:
        """Batch jobs have no spec: the warm-up job is like any other."""
        return None

    def run_job(self, sessions: List[Session], client: int, step: int,
                spec=None) -> Outcome:
        i = step % len(sessions)
        t0 = time.perf_counter()
        try:
            result = sessions[i].submit(self._factory()).result(
                timeout=JOB_TIMEOUT_S)
        except TimeoutError:
            return Outcome(time.perf_counter() - t0, False, "timeout", input=i)
        except Exception as exc:  # a failed job is counted, not fatal
            return Outcome(time.perf_counter() - t0, False,
                           f"{type(exc).__name__}: {exc}", input=i)
        error = self.verify(result.aggregate, i)
        return Outcome(time.perf_counter() - t0, error is None, error,
                       metrics=dict(result.metrics), input=i)

    def close(self, sessions: List[Session]) -> None:
        for session in sessions:
            session.close()


# -- service-mix --------------------------------------------------------------

#: Query shapes of the fresh ``gm`` specs: a triangle and a 2-edge path.
_SHAPES = {
    "tri": [(0, 1), (1, 2), (0, 2)],
    "path": [(0, 1), (1, 2)],
}


def _canonical(shape: str, labels: Tuple[int, ...]) -> Tuple:
    """Labelings of one shape that give the same count share one oracle.

    The triangle is symmetric under every permutation of its vertices and
    the 2-edge path under swapping its ends, so the match count depends
    only on this canonical form.
    """
    if shape == "tri":
        return (shape, tuple(sorted(labels)))
    a, b, c = labels
    return (shape, (min(a, c), b, max(a, c)))


def _label_counts(g, num_labels: int) -> Dict[Tuple, int]:
    """Match counts of every labeled triangle and 2-edge path query.

    A triangle embedding is a triangle whose label multiset is the
    query's; a path ``a-b-c`` embeds once per center labeled ``b`` and
    unordered pair of its neighbors labeled ``a`` and ``c``.  Keys are
    :func:`_canonical` forms.
    """
    counts: Dict[Tuple, int] = {}
    for tri in list_triangles(g):
        key = ("tri", tuple(sorted(g.label(v) for v in tri)))
        counts[key] = counts.get(key, 0) + 1
    labels = range(num_labels)
    for key in itertools.combinations_with_replacement(labels, 3):
        counts.setdefault(("tri", key), 0)
    for y in g.vertices():
        near = [0] * num_labels
        for x in g.neighbors(y):
            near[g.label(x)] += 1
        b = g.label(y)
        for a in labels:
            for c in range(a, num_labels):
                pairs = near[a] * (near[a] - 1) // 2 if a == c else near[a] * near[c]
                key = ("path", (a, b, c))
                counts[key] = counts.get(key, 0) + pairs
    return counts


class ServiceWorkload:
    """Closed-loop clients against a resident ``GraphService``.

    Each client submits a seeded sequence of ``gm`` specs.  Every
    :attr:`repeat_every`-th submission repeats a seeded pick of the specs
    the same client already completed, which the service answers from
    its result cache; the rest are labelings no client has submitted
    yet, which mine, alternating triangle and 2-path.  A fixed schedule
    rather than coin flips keeps the hit share and the shape mix, and so
    the position of the latency median among the misses, the same in
    every run.  The two clients draw fresh specs from disjoint halves of
    the pool, so there is no cross-client dedup.
    """

    runtime = "serial"

    def __init__(self, name: str, why: str, n: int, m: int, num_labels: int,
                 clients: int, repeat_every: int, config: GThinkerConfig) -> None:
        self.name = name
        self.why = why
        self.n = n
        self.m = m
        self.num_labels = num_labels
        self.clients = clients
        self.repeat_every = repeat_every
        self.config = config
        self.graph = None
        self.path: Optional[Path] = None
        self.oracle: Dict[Tuple, int] = {}
        self._pools: List[List[Tuple[str, Tuple[int, ...]]]] = []
        self._warm: Optional[Tuple[str, Tuple[int, ...]]] = None

    @property
    def workers(self) -> int:
        return self.clients

    def prepare(self, seed: int, workdir: Path) -> None:
        # The seed draws the labels and the spec sequence.
        base = _ba_dataset(self.n, self.m)
        self.graph = generators.with_random_labels(base, self.num_labels,
                                                   seed=seed)
        self.path = workdir / f"{self.name}-s{seed}.adj"
        write_adjacency(self.graph, self.path)
        specs = [(shape, labels) for shape in _SHAPES
                 for labels in itertools.product(range(self.num_labels),
                                                 repeat=3)]
        random.Random(seed).shuffle(specs)
        self._warm = specs.pop()
        by_shape = [[sp for sp in specs if sp[0] == shape] for shape in _SHAPES]
        self._pools = [list(itertools.chain.from_iterable(
            zip(*(same[c::self.clients] for same in by_shape))))
            for c in range(self.clients)]
        self.oracle = _label_counts(self.graph, self.num_labels)
        # Cross-check the tallies against the serial matcher on one spec
        # of each shape, so a wrong tally cannot pass for a wrong answer.
        for shape in _SHAPES:
            spec = next(sp for sp in specs if sp[0] == shape)
            want = count_matches(self.graph, self._query(*spec))
            if self.oracle[_canonical(*spec)] != want:
                raise RuntimeError(f"label tally {spec}: "
                                   f"{self.oracle[_canonical(*spec)]} != {want}")
        self._history: List[List] = [[] for _ in range(self.clients)]
        self._rngs = [random.Random(seed * 1000 + c) for c in range(self.clients)]
        self._fresh = [iter(pool) for pool in self._pools]

    @staticmethod
    def _query(shape: str, labels: Tuple[int, ...]) -> QueryGraph:
        return QueryGraph(_SHAPES[shape], labels=dict(enumerate(labels)))

    @staticmethod
    def _params(shape: str, labels: Tuple[int, ...]) -> Dict[str, Any]:
        return {"query_edges": [list(e) for e in _SHAPES[shape]],
                "query_labels": {str(i): l for i, l in enumerate(labels)}}

    def setup(self):
        t0 = time.perf_counter()
        g, read_s = _timed(read_adjacency, self.path)
        service = GraphService(g, self.config, runtime=self.runtime,
                               worker_budget=self.clients,
                               max_workers_per_job=self.config.num_workers)
        service.start()
        clients = [ServiceClient(service.address) for _ in range(self.clients)]
        for client in clients:
            client.server_info()
        total = time.perf_counter() - t0
        system = (service, clients)
        if g.num_edges != self.graph.num_edges:
            self.close(system)
            raise RuntimeError(f"{self.path} read back {g.num_edges} edges, "
                               f"wrote {self.graph.num_edges}")
        return system, {"setup_s": total, "graph.read_s": read_s}

    def extend(self, system):
        return system

    def next_spec(self, client: int, step: int):
        """The client's next spec: a repeat (cache hit) or a fresh one."""
        history = self._history[client]
        if history and step % self.repeat_every == self.repeat_every - 1:
            return history[self._rngs[client].randrange(len(history))]
        spec = next(self._fresh[client], None)
        if spec is None:
            raise RuntimeError(
                f"client {client} used all {len(self._pools[client])} fresh "
                f"specs; enlarge the label alphabet")
        return spec

    def warm_spec(self):
        """A spec outside both clients' pools, for the warm-up job."""
        return self._warm

    def run_job(self, system, client: int, step: int, spec=None) -> Outcome:
        _service, clients = system
        spec = spec or self.next_spec(client, step)
        shape, labels = spec
        expected = self.oracle[_canonical(shape, labels)]
        conn = clients[client]
        t0 = time.perf_counter()
        try:
            handle = conn.submit("gm", self._params(shape, labels))
            submit_s = time.perf_counter() - t0
            record, result = conn.result(handle.job_id, timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # rejections and errors are counted
            return Outcome(time.perf_counter() - t0, False,
                           f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if record["status"] != "done":
            return Outcome(latency, False, f"job ended {record['status']}")
        if client < len(self._history):
            self._history[client].append(spec)
        cached = bool(record["cached"])
        ok = result.aggregate == expected
        error = None if ok else f"matches {result.aggregate} != oracle {expected}"
        out = Outcome(latency, ok, error, cached=cached, executed=not cached,
                      submit_rpc_s=submit_s)
        if not cached:
            out.metrics = dict(result.metrics)
            out.queue_wait_s = record["started_at"] - record["submitted_at"]
            out.exec_s = record["finished_at"] - record["started_at"]
        return out

    def close(self, system) -> None:
        service, clients = system
        for client in clients:
            client.close()
        service.close()


def _rmat(scale: int, seed: int):
    return generators.rmat(scale, edge_factor=8, seed=seed)


@functools.lru_cache(maxsize=1)
def _ba_dataset(n: int, m: int):
    """A fixed BA graph (generator seed 0), built once per process.

    Hub degrees of a BA graph vary so much between generator seeds that
    MCF's task count moved 33% (IQR) across ten of them, against 7%
    across clique placements on one graph; so the seed varies what is
    planted on it, not the graph.  Callers copy before changing it.
    """
    return generators.barabasi_albert(n, m, seed=0)


def _ba_clique(n: int, m: int, size: int, seed: int):
    return generators.plant_clique(_ba_dataset(n, m), size, seed=seed)[0]


def _er(n: int, degree: float, seed: int):
    return generators.erdos_renyi(n, degree / n, seed=seed)


def build() -> Dict[str, Any]:
    """Name -> workload, in the order ``BENCHMARK.json`` lists them."""
    two = dict(num_workers=2, compers_per_worker=1)
    workloads = [
        BatchWorkload(
            "tc-rmat-process",
            "TC on skewed R-MAT, 2 worker processes: many small tasks, "
            "remote pulls over GTWIRE1 IPC, steals driven by hub skew",
            "process", "tc", functools.partial(_rmat, 13),
            GThinkerConfig(**two)),
        BatchWorkload(
            "mcf-ba-evict",
            "MCF on BA with a planted clique, serial runtime, small vertex "
            "cache: B&B compute plus eviction and task spill/refill, no IPC",
            "serial", "mcf", functools.partial(_ba_clique, 3000, 4, 12),
            GThinkerConfig(cache_capacity=300, **two), inputs=21),
        ServiceWorkload(
            "service-mix",
            "GraphService with 2 closed-loop TCP clients, 1 in 4 submissions "
            "repeated: admission, control channel, result cache read and fill",
            n=3000, m=4, num_labels=6, clients=2, repeat_every=4,
            config=GThinkerConfig(num_workers=1, compers_per_worker=1)),
        BatchWorkload(
            "tc-er-cluster",
            "TC on uniform-degree Erdos-Renyi over a 2-node localhost "
            "cluster: the TCP data path and cluster boot, few steals",
            "cluster", "tc", functools.partial(_er, 10_000, 10.0),
            GThinkerConfig(**two)),
    ]
    return {w.name: w for w in workloads}
