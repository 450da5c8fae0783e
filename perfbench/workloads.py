"""The benchmark's three workloads.

Each workload is one closed loop: the next request is sent only after the
previous reply arrived, and the loop repeats a fixed cycle of requests.
``prepare(seed)`` generates every input before timing starts;
``start()``/``stop()`` bring up and tear down what a workload keeps between
requests (its inputs, sessions, a server) and record how long each unit of
that set-up took in ``setup_samples`` (unit -> seconds); ``run()`` measures
for a fixed number of seconds and checks every answer it gets.

Why each workload exists, and which layers it should load, is recorded in
``predictions.json`` next to this file.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

from repro import FairCliqueQuery, FairCliqueSession, SolveReport, make_model, solve
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import community_graph, quasi_clique_blobs
from repro.incremental.delta import apply_ops
from repro.service.app import FairCliqueService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.server import ServerHandle

from tracing import ROOT


@dataclass
class Outcome:
    """What one measured phase did, keyed by ``(client, request index)``.

    ``latency`` holds solve requests; mutation batches go to ``writes``.
    ``repeats`` keeps every completed request's latency again under its
    slot, ``(client, position in the client's request cycle)``: the same
    request repeated once per pass over the cycle.
    """

    latency: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    writes: list = field(default_factory=list)
    repeats: dict = field(default_factory=dict)
    write_slots: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    #: Per-layer counts read from public outputs (reports, cache_info, /metrics).
    counts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def record(self, slot: tuple, elapsed: float) -> None:
        self.repeats.setdefault(slot, []).append(elapsed)


@dataclass(frozen=True)
class GraphInput:
    """A generated graph as plain arrays: what the program is handed."""

    vertices: tuple
    attributes: tuple
    edges: array  # flat: u0, v0, u1, v1, ...

    @classmethod
    def capture(cls, graph: AttributedGraph) -> "GraphInput":
        vertices = tuple(graph.vertices())
        edges = array("i")
        for u, v in graph.edges():
            edges.append(u)
            edges.append(v)
        return cls(vertices, tuple(graph.attribute(v) for v in vertices), edges)

    def build(self) -> AttributedGraph:
        graph = AttributedGraph()
        for vertex, attribute in zip(self.vertices, self.attributes):
            graph.add_vertex(vertex, attribute)
        edges = self.edges
        for index in range(0, len(edges), 2):
            graph.add_edge(edges[index], edges[index + 1])
        return graph


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class QuietCPU:
    """Starts each request on a CPU that no neighbour is slowing down.

    On a shared host a neighbour often slows one or both of the container's
    CPUs to about half speed, for a fraction of a second up to minutes.
    Before each request and each set-up unit, :meth:`settle` times a fixed
    spin on every CPU the process may use.  If the CPU the work will run on
    spins more than ``tolerance`` times slower than the fastest spin seen in
    this run, it waits, for at most ``max_wait`` seconds, for the slowdown
    to pass.  With ``pin``, for workloads whose work runs on one CPU at a
    time, every thread of the process then moves to the fastest CPU; the
    parallel search needs every CPU, so there the slowest CPU is judged and
    nothing moves.  Requests are still timed exactly as they run.
    """

    tolerance = 1.2
    max_wait = 1.0

    def __init__(self, pin: bool) -> None:
        self.pin = pin
        self.cpus = sorted(os.sched_getaffinity(0))
        self.floor = float("inf")

    @staticmethod
    def _spin() -> float:
        started = time.perf_counter()
        total = 0
        for step in range(20_000):
            total += step
        return time.perf_counter() - started

    def _time_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(self._spin(), self._spin())

    def _pin(self, cpus: set) -> None:
        for task in os.listdir("/proc/self/task"):
            with contextlib.suppress(OSError):  # the thread may have exited
                os.sched_setaffinity(int(task), cpus)

    def settle(self) -> None:
        if len(self.cpus) < 2:
            return
        give_up = time.perf_counter() + self.max_wait
        while True:
            timings = {cpu: self._time_on(cpu) for cpu in self.cpus}
            fastest = min(timings, key=timings.get)
            self.floor = min(self.floor, timings[fastest])
            judged = timings[fastest] if self.pin else max(timings.values())
            if judged <= self.tolerance * self.floor or time.perf_counter() > give_up:
                break
            time.sleep(0.02)
        self._pin({fastest} if self.pin else set(self.cpus))

    def release(self) -> None:
        self._pin(set(self.cpus))


def count_report(counts: Counter, report: SolveReport) -> None:
    """Accumulate the per-layer counters one exact solve reports."""
    stats = report.stats
    counts["branches"] += stats.branches_explored
    counts["bound_evaluations"] += stats.bound_evaluations
    counts["pruned_by_bound"] += stats.pruned_by_bound
    seed = stats.extra.get("heuristic_size")
    if seed is not None:
        counts["seeded"] += 1
        counts["seed_gap"] += report.size - seed
    metadata = report.metadata
    if "reduction_cache_hit" in metadata:
        counts["reduction_lookups"] += 1
        counts["reduction_hits"] += int(bool(metadata["reduction_cache_hit"]))
    parallel = metadata.get("parallel")
    if parallel:
        counts["shards"] += parallel.get("shards", 0)
        counts["shm_bytes"] += parallel.get("shm_bytes", 0)
        counts["retries"] += parallel.get("shards_retried", 0) + parallel.get("pool_respawns", 0)


def check_answer(out: Outcome, report: SolveReport, query: FairCliqueQuery,
                 graph: AttributedGraph, where: str) -> bool:
    """A request fails unless its answer is optimal and a fair clique of ``graph``."""
    model = make_model(query.model, query.k, query.delta, graph)
    if not report.optimal:
        out.fail(f"{where}: answer not optimal")
    elif not model.verify(graph, report.clique):
        out.fail(f"{where}: answer of size {report.size} fails verification")
    else:
        return True
    return False


# --------------------------------------------------------------------------- #
# cold-dense
# --------------------------------------------------------------------------- #
class ColdDense:
    """One client; every request builds a fresh graph and solves it cold.

    The run makes passes over a small pool of inputs, so every input is
    solved several times, each time from scratch.
    """

    setup_repeats = 2
    pool = 8
    query = FairCliqueQuery(model="relative", k=2, delta=1)

    def __init__(self) -> None:
        self.seed = 0
        self.inputs: list[GraphInput] = []
        self.setup_samples: dict = {}
        self.cpu = QuietCPU(pin=True)

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def start(self) -> None:
        # Set-up, once per input: generate it from its seed.
        self.inputs = []
        self.cpu.settle()
        for index in range(self.pool):
            started = time.perf_counter()
            graph = community_graph(5, 100, intra_probability=0.35, inter_edges=4,
                                    seed=self.seed * 1000 + index)
            self.inputs.append(GraphInput.capture(graph))
            self.setup_samples.setdefault(index, []).append(time.perf_counter() - started)

    def stop(self) -> None:
        self.cpu.release()

    def run(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        if tracer is not None:
            tracer.clear()
        began = time.perf_counter()
        deadline = began + seconds
        index = 0
        while time.perf_counter() < deadline:
            self.cpu.settle()
            out.attempted += 1
            started = time.perf_counter()
            try:
                with _span(tracer, ROOT):
                    with _span(tracer, "graph.build"):
                        graph = self.inputs[index % len(self.inputs)].build()
                    report = solve(graph, self.query)
            except Exception as error:  # noqa: BLE001 - a failed request is counted
                out.fail(f"request {index}: {type(error).__name__}: {error}")
            else:
                elapsed = time.perf_counter() - started
                out.latency[(0, index)] = elapsed
                out.record((0, index % len(self.inputs)), elapsed)
                out.sizes[(0, index)] = report.size
                if check_answer(out, report, self.query, graph, f"request {index}"):
                    count_report(out.counts, report)
            # Free this request's graph before the next one is built, so the
            # peak RSS is one request's footprint.
            graph = report = None
            index += 1
        out.wall = time.perf_counter() - began
        return out


# --------------------------------------------------------------------------- #
# warm-sweep
# --------------------------------------------------------------------------- #
class WarmSweep:
    """One client, one warm session per graph; every query runs the parallel search.

    Requests rotate over several graphs of the same family, so one run
    averages over instances instead of resting on a single graph.
    """

    setup_repeats = 1
    graphs = 4
    workers = 2
    queries = (
        FairCliqueQuery(model="relative", k=2, delta=0, workers=workers),
        FairCliqueQuery(model="relative", k=2, delta=1, workers=workers),
        FairCliqueQuery(model="relative", k=2, delta=2, workers=workers),
        FairCliqueQuery(model="weak", k=2, workers=workers),
        FairCliqueQuery(model="strong", k=2, workers=workers),
    )

    def __init__(self) -> None:
        self.inputs: list[GraphInput] = []
        self.sessions: list[FairCliqueSession] = []
        self.setup_samples: dict = {}
        self.setup_failures: list[str] = []
        self.cpu = QuietCPU(pin=False)

    def prepare(self, seed: int) -> None:
        self.inputs = [
            GraphInput.capture(
                quasi_clique_blobs(AttributedGraph(), 5, 200, 0.36, seed=seed * 1000 + index)
            )
            for index in range(self.graphs)
        ]

    def start(self) -> None:
        # Set-up, once per graph: open the session and run the first solve.
        for index, graph_input in enumerate(self.inputs):
            self.cpu.settle()
            started = time.perf_counter()
            graph = graph_input.build()
            session = FairCliqueSession(graph)
            self.sessions.append(session)
            report = session.solve(self.queries[1])
            self.setup_samples.setdefault(index, []).append(time.perf_counter() - started)
            check = Outcome()
            if not check_answer(check, report, self.queries[1], graph, "set-up solve"):
                self.setup_failures.extend(check.problems)

    def stop(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []

    def run(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        before = [session.cache_info() for session in self.sessions]
        expected: dict[tuple, int] = {}
        if tracer is not None:
            tracer.clear()
        began = time.perf_counter()
        deadline = began + seconds
        index = 0
        while time.perf_counter() < deadline:
            slot = (index % self.graphs, index // self.graphs % len(self.queries))
            session = self.sessions[slot[0]]
            query = self.queries[slot[1]]
            self.cpu.settle()
            out.attempted += 1
            started = time.perf_counter()
            try:
                with _span(tracer, ROOT):
                    report = session.solve(query)
            except Exception as error:  # noqa: BLE001 - a failed request is counted
                out.fail(f"request {index}: {type(error).__name__}: {error}")
            else:
                elapsed = time.perf_counter() - started
                out.latency[(0, index)] = elapsed
                out.record((0, *slot), elapsed)
                out.sizes[(0, index)] = report.size
                if expected.setdefault(slot, report.size) != report.size:
                    out.fail(f"request {index}: size {report.size} differs from "
                             f"{expected[slot]} for the same query on the same graph")
                elif check_answer(out, report, query, session.graph, f"request {index}"):
                    count_report(out.counts, report)
            index += 1
        out.wall = time.perf_counter() - began
        for session, old in zip(self.sessions, before):
            new = session.cache_info()
            for key in ("reductions_repeeled", "reductions_reused", "warm_start_hits"):
                out.counts[key] += new[key] - old[key]
        out.problems.extend(self.setup_failures)
        out.failed += len(self.setup_failures)
        return out


# --------------------------------------------------------------------------- #
# service-mixed
# --------------------------------------------------------------------------- #
@dataclass
class ServiceClientState:
    """One service client: its connection, its graph's mirror, its place in the cycle."""

    number: int
    graph_id: str
    client: ServiceClient
    mirror: AttributedGraph
    rng: random.Random
    new_vertex: int
    index: int = 0


class ServiceMixed:
    """Four clients against an in-process server with a WAL data directory.

    Each client owns one uploaded graph and keeps a local mirror of it, so
    every answer is verified on exactly the graph the server solved.  Two
    graphs of each family average the figures over instances; the blobs
    graphs are sized so that their solves cost about what the community
    graphs' do, which keeps the median solve away from a gap between two
    clusters.  The clients take turns in one closed loop rather than running
    on threads of their own: on a host with few cores, concurrent clients in
    one process would time the scheduler as much as the server.
    """

    setup_repeats = 3
    queries = (
        FairCliqueQuery(model="relative", k=2, delta=0),
        FairCliqueQuery(model="relative", k=2, delta=1),
        FairCliqueQuery(model="relative", k=2, delta=2),
        FairCliqueQuery(model="weak", k=2),
        FairCliqueQuery(model="strong", k=2),
        FairCliqueQuery(model="relative", k=3, delta=1),
    )
    #: Every client repeats this request cycle: ``None`` is a mutation batch,
    #: a number indexes ``queries``.  80% solves and 20% writes; every write
    #: starts a new graph version and two queries repeat within a version,
    #: so a quarter of the solves are result-cache hits.  A fixed, short
    #: cycle keeps the request mix identical from run to run and measures
    #: every position many times.
    cycle = (0, 1, 0, 2, None, 3, 4, 3, 5, None)

    def __init__(self, out_dir) -> None:
        self.out_dir = out_dir
        self.seed = 0
        self.inputs: dict[str, GraphInput] = {}
        self.mirrors: dict[str, AttributedGraph] = {}
        self.handle: ServerHandle | None = None
        self.data_dir: str | None = None
        self.setup_samples: dict = {}
        self.cpu = QuietCPU(pin=True)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.inputs = {}
        for copy in range(2):
            self.inputs[f"blobs-{copy}"] = GraphInput.capture(
                quasi_clique_blobs(AttributedGraph(), 12, 80, 0.45, seed=seed * 10 + copy)
            )
            self.inputs[f"community-{copy}"] = GraphInput.capture(
                community_graph(10, 100, 0.35, inter_edges=0, seed=seed * 10 + copy)
            )

    def start(self) -> None:
        self.cpu.settle()
        started = time.perf_counter()
        self.data_dir = tempfile.mkdtemp(prefix="service-", dir=self.out_dir)
        service = FairCliqueService(ServiceConfig(port=0, data_dir=self.data_dir))
        self.handle = ServerHandle.start(service)
        client = ServiceClient(self.handle.address, retries=0)
        self.mirrors = {}
        for graph_id, graph_input in self.inputs.items():
            graph = graph_input.build()
            client.upload_graph(graph_id, graph)
            self.mirrors[graph_id] = graph
        self.setup_samples.setdefault("server", []).append(time.perf_counter() - started)

    def stop(self) -> None:
        try:
            self.handle.stop()
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.handle = None
            self.cpu.release()

    @staticmethod
    def mutation(graph: AttributedGraph, rng: random.Random, new_vertex: int) -> list:
        """Two edge removals and a new vertex with three edges, around one vertex."""
        hubs = sorted(v for v in graph.vertices() if graph.degree(v) >= 5)
        hub = rng.choice(hubs)
        cut_a, cut_b, join_a, join_b = rng.sample(sorted(graph.neighbors(hub)), 4)
        attribute = rng.choice(graph.attribute_values())
        return [
            ("remove_edge", hub, cut_a),
            ("remove_edge", hub, cut_b),
            ("add_vertex", new_vertex, attribute, None),
            ("add_edge", new_vertex, hub),
            ("add_edge", new_vertex, join_a),
            ("add_edge", new_vertex, join_b),
        ]

    def _request(self, state: ServiceClientState, tracer, out: Outcome) -> None:
        """Send ``state``'s next request of the cycle and check the reply."""
        graph_id, mirror, index = state.graph_id, state.mirror, state.index
        state.index += 1
        position = index % len(self.cycle)
        write = self.cycle[position] is None
        if write:
            ops = self.mutation(mirror, state.rng, state.new_vertex)
            state.new_vertex += 1
        else:
            query = self.queries[self.cycle[position]]
        out.attempted += 1
        started = time.perf_counter()
        try:
            with _span(tracer, ROOT) as root:
                if tracer is not None:
                    tracer.link(graph_id, root)
                if write:
                    reply = state.client.mutate_graph(graph_id, ops)
                else:
                    reply = state.client.solve_raw(graph_id, query)
        except Exception as error:  # noqa: BLE001 - refused or failed request
            out.fail(f"{graph_id} request {index}: {type(error).__name__}: {error}")
            return
        elapsed = time.perf_counter() - started
        slot = (state.number, position)
        out.record(slot, elapsed)
        if write:
            out.write_slots.add(slot)
            with mirror.mutate() as target:
                apply_ops(target, ops)
            out.writes.append(elapsed)
            out.sizes[(state.number, index)] = "write"
            out.counts["promoted"] += reply.get("results_promoted", 0)
            if (reply.get("applied"), reply.get("n"), reply.get("m")) != (
                len(ops), mirror.num_vertices, mirror.num_edges
            ):
                out.fail(f"{graph_id} request {index}: server graph diverged "
                         f"from the client mirror")
        else:
            out.latency[(state.number, index)] = elapsed
            report = SolveReport.from_wire(reply["report"])
            out.sizes[(state.number, index)] = report.size
            if check_answer(out, report, query, mirror, f"{graph_id} request {index}"):
                if not reply.get("cached"):
                    count_report(out.counts, report)

    def final_check(self, out: Outcome) -> None:
        """Server answers on the final graphs must match an in-process session."""
        client = ServiceClient(self.handle.address, retries=0)
        for graph_id, mirror in self.mirrors.items():
            info = client.graph_info(graph_id)
            if (info["n"], info["m"]) != (mirror.num_vertices, mirror.num_edges):
                out.fail(f"{graph_id}: final server graph differs from the mirror")
                continue
            with FairCliqueSession(mirror.copy()) as local:
                for query in self.queries:
                    remote = client.solve(graph_id, query).size
                    expected = local.solve(query).size
                    if remote != expected:
                        out.fail(f"{graph_id} final {query.label()}: server size "
                                 f"{remote}, in-process size {expected}")

    def run(self, seconds: float, tracer=None) -> Outcome:
        client = ServiceClient(self.handle.address, retries=0)
        before = client.metrics()
        states = [
            ServiceClientState(number, graph_id, ServiceClient(self.handle.address, retries=0),
                               self.mirrors[graph_id], random.Random(self.seed * 1000 + number),
                               new_vertex=1_000_000 * (number + 1))
            for number, graph_id in enumerate(self.inputs)
        ]
        out = Outcome()
        if tracer is not None:
            tracer.clear()
        began = time.perf_counter()
        deadline = began + seconds
        turn = 0
        while time.perf_counter() < deadline:
            state = states[turn % len(states)]
            turn += 1
            self.cpu.settle()
            try:
                self._request(state, tracer, out)
            except Exception as error:  # noqa: BLE001 - reported as a failed request
                out.fail(f"client {state.graph_id}: {type(error).__name__}: {error}")
        out.wall = time.perf_counter() - began
        after = client.metrics()
        self._count_metrics(out.counts, before, after)
        self.final_check(out)
        return out

    @staticmethod
    def _count_metrics(counts: Counter, before: dict, after: dict) -> None:
        """Per-layer counts from the difference of two ``/metrics`` snapshots."""

        def server_seconds(snapshot: dict) -> float:
            latency = snapshot["http"]["latency_by_endpoint"]
            return sum(
                latency.get(endpoint, {}).get("sum_seconds", 0.0)
                for endpoint in ("POST /solve", "POST /graphs")
            )

        def fsyncs(snapshot: dict) -> int:
            durability = snapshot["durability"]
            return durability["graphs"]["fsyncs"] + durability["results"]["fsyncs"]

        def session_total(snapshot: dict, key: str) -> int:
            return sum(info[key] for info in snapshot["sessions"]["sessions"].values())

        counts["server_seconds"] += server_seconds(after) - server_seconds(before)
        counts["fsyncs"] += fsyncs(after) - fsyncs(before)
        counts["rejected"] += (
            after["admission"]["rejected_total"] - before["admission"]["rejected_total"]
        )
        for key in ("hits", "misses"):
            counts[f"cache_{key}"] += after["result_cache"][key] - before["result_cache"][key]
        for key in ("reductions_repeeled", "reductions_reused", "warm_start_hits"):
            counts[key] += session_total(after, key) - session_total(before, key)


WORKLOADS = {
    "cold-dense": lambda out_dir: ColdDense(),
    "warm-sweep": lambda out_dir: WarmSweep(),
    "service-mixed": ServiceMixed,
}
