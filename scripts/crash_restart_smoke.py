#!/usr/bin/env python3
"""CI durability smoke: SIGKILL a real server, restart it, lose nothing acked.

This drives the deployment path (``repro serve --data-dir`` in a
subprocess) through the two crashes the WAL + checkpoint design exists
for, with ``REPRO_FAULT_PLAN`` freezing the server at exactly the wrong
moment::

    PYTHONPATH=src python scripts/crash_restart_smoke.py

Scenarios (any failure exits non-zero):

1. **SIGKILL mid-upload**: a ``wal.append`` sleep fault stalls the fifth
   graph's WAL write; the server is SIGKILLed inside it and garbage bytes
   are stamped onto the log tail for good measure.  The restarted server
   must serve exactly the four acknowledged graphs, report the torn tail
   it truncated, and solve normally.
2. **SIGKILL mid-solve**: a ``shard.run`` sleep fault slows a ``workers=2``
   exact solve so shard checkpoints land on disk; the server is SIGKILLed
   once a checkpoint holds at least one completed shard.  Its pool workers
   (read from ``/proc`` on Linux) must exit with it rather than linger
   reparented.  After restart the identical query must *resume* —
   ``resumed: true``, ``shards_skipped >= 1`` — and return exactly the
   from-scratch (serial) answer; success then discards the checkpoint.
3. **SIGKILL mid-mutation-batch**: after an upload and one acknowledged
   mutation batch, a ``wal.append`` sleep fault stalls the *delta record*
   of a second batch and the server is SIGKILLed inside the write.  The
   restarted replay must land on exactly the pre-batch or the post-batch
   graph — version, n, and m from one state or the other, never a torn
   mix — because the delta is a single checksummed WAL record written
   before the live graph mutates.
4. SIGINT drains the final server with exit code 0.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.api import FairCliqueQuery                    # noqa: E402
from repro.graph.generators import community_graph       # noqa: E402
from repro.resilience.faults import ENV_PLAN, FaultPlan  # noqa: E402
from repro.service import ServiceClient, ServiceError    # noqa: E402

QUERY = FairCliqueQuery(model="relative", k=2, delta=1)
PARALLEL_QUERY = FairCliqueQuery(model="relative", k=2, delta=1, workers=2)

#: Scenario 1: stall the WAL append of the fifth graph record (the tail
#: holds 4 records when it fires) long enough to SIGKILL the server inside.
UPLOAD_STALL_PLAN = FaultPlan(specs=(
    {"point": "wal.append", "action": "sleep", "delay": 30.0,
     "when": {"log": "graphs", "records": 4}, "times": 1},
), seed=7)

#: Scenario 2: make every shard slow enough that checkpoints hit the disk
#: while the solve is demonstrably still in flight.
SLOW_SHARD_PLAN = FaultPlan(specs=(
    {"point": "shard.run", "action": "sleep", "delay": 1.5,
     "times": None, "scope": "worker"},
), seed=7)

#: Scenario 3: stall the second mutation batch's delta append (the graphs
#: log holds the upload + the first batch's delta when it fires).
MUTATION_STALL_PLAN = FaultPlan(specs=(
    {"point": "wal.append", "action": "sleep", "delay": 30.0,
     "when": {"log": "graphs", "records": 2}, "times": 1},
), seed=7)


def chaos_graph():
    """Three dense components: three shards with real search work in each."""
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=21)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def boot(data_dir: Path, plan: FaultPlan | None) -> tuple[subprocess.Popen, ServiceClient]:
    port = free_port()
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    if plan is not None:
        env[ENV_PLAN] = plan.to_json()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--data-dir", str(data_dir)],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return server, ServiceClient(f"http://127.0.0.1:{port}", retries=0)


def wait_for_health(client: ServiceClient, deadline_s: float = 30.0) -> dict:
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        try:
            return client.healthz()
        except (OSError, ServiceError):
            time.sleep(0.2)
    raise RuntimeError("server did not become healthy within the deadline")


def check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        raise AssertionError(f"{label} failed {detail}".strip())
    print(f"[crash] {label}: ok {detail}".rstrip(), flush=True)


def hard_kill(server: subprocess.Popen) -> None:
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=10)


def live_children(pid: int) -> dict[int, str]:
    """``{child pid: start time}`` of ``pid``'s live children (Linux ``/proc``)."""
    children = {}
    for listing in Path(f"/proc/{pid}/task").glob("*/children"):
        for child in listing.read_text().split():
            start = start_time(int(child))
            if start is not None:
                children[int(child)] = start
    return children


def start_time(pid: int) -> str | None:
    """Start time of a live, non-zombie ``pid`` (None when gone or a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return None if fields[0] == "Z" else fields[19]


def wait_for_orphans(children: dict[int, str], deadline_s: float = 5.0) -> list[int]:
    """Pids in ``children`` still alive after ``deadline_s``; SIGKILLs them."""
    started = time.monotonic()
    while True:
        alive = [pid for pid, start in children.items() if start_time(pid) == start]
        if not alive or time.monotonic() - started > deadline_s:
            break
        time.sleep(0.05)
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return alive


def dump_on_failure(server: subprocess.Popen) -> None:
    server.kill()
    try:
        output, _ = server.communicate(timeout=10)
    except (ValueError, OSError):  # pipes already gone
        output = None
    print("[crash] server output on failure:\n" + (output or "<none>"),
          file=sys.stderr, flush=True)


def scenario_upload_crash() -> None:
    """SIGKILL mid-upload: only acknowledged graphs survive the restart."""
    data_dir = Path(tempfile.mkdtemp(prefix="repro-crash-upload-"))
    graph = chaos_graph()
    server, client = boot(data_dir, UPLOAD_STALL_PLAN)
    try:
        wait_for_health(client)
        for index in range(4):
            client.upload_graph(f"g{index}", graph)
        check("4 uploads acked", set(client.graphs()) >= {"g0", "g1", "g2", "g3"})

        # The fifth upload stalls inside the WAL append; fire it from a
        # helper thread and SIGKILL the server mid-write.
        def doomed_upload():
            try:
                client.upload_graph("g4", graph)
            except (OSError, ServiceError):
                pass  # the server died under this request, as planned

        uploader = threading.Thread(target=doomed_upload, daemon=True)
        uploader.start()
        time.sleep(1.5)  # let the request reach the stalled append
        hard_kill(server)
        uploader.join(timeout=10)
        check("server SIGKILLed mid-upload", server.returncode != 0)
    except BaseException:
        dump_on_failure(server)
        raise

    # Stamp garbage onto the tail: the crash-torn-write worst case.
    with open(data_dir / "graphs.wal", "ab") as tail:
        tail.write(b'{"lsn": 99, "type": "graph.put", "data": {"half a rec')

    server, client = boot(data_dir, plan=None)
    try:
        health = wait_for_health(client)
        recovery = health["durability"]["recovery"]
        check("acked graphs recovered", recovery["graphs_recovered"] == 4,
              f"recovered={recovery['graphs_recovered']}")
        check("torn tail truncated", recovery["truncated_bytes"] > 0,
              f"bytes={recovery['truncated_bytes']}")
        served = set(client.graphs())
        check("unacked graph absent", "g4" not in served, str(sorted(served)))
        answer = client.solve_raw("g0", QUERY, tier="unlimited")
        check("restarted server solves", answer["report"]["optimal"],
              f"size={len(answer['report']['clique'])}")
        server.send_signal(signal.SIGINT)
        check("upload-crash drain", server.wait(timeout=30) == 0)
    except BaseException:
        dump_on_failure(server)
        raise


def wait_for_checkpoint(data_dir: Path, deadline_s: float = 60.0) -> dict:
    """Poll until a checkpoint holding at least one completed shard lands."""
    checkpoints = data_dir / "checkpoints"
    started = time.monotonic()
    while time.monotonic() - started < deadline_s:
        for path in checkpoints.glob("*.ckpt"):
            try:
                state = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # mid-replace; the next poll sees the full file
            if state.get("shards"):
                return state
        time.sleep(0.05)
    raise RuntimeError("no shard checkpoint appeared within the deadline")


def scenario_solve_crash() -> None:
    """SIGKILL mid-solve: the restarted server resumes from the checkpoint."""
    data_dir = Path(tempfile.mkdtemp(prefix="repro-crash-solve-"))
    graph = chaos_graph()
    server, client = boot(data_dir, SLOW_SHARD_PLAN)
    try:
        wait_for_health(client)
        client.upload_graph("chaos", graph)

        def doomed_solve():
            try:
                client.solve_raw("chaos", PARALLEL_QUERY, tier="unlimited")
            except (OSError, ServiceError):
                pass  # the server died under this request, as planned

        solver = threading.Thread(target=doomed_solve, daemon=True)
        solver.start()
        state = wait_for_checkpoint(data_dir)
        workers = live_children(server.pid) if sys.platform.startswith("linux") else {}
        hard_kill(server)
        solver.join(timeout=10)
        check("server SIGKILLed mid-solve",
              0 < len(state["shards"]) < 3,
              f"checkpointed shards={sorted(state['shards'])}")
        if sys.platform.startswith("linux"):
            check("pool workers seen before the kill", len(workers) >= 1,
                  f"workers={sorted(workers)}")
            orphans = wait_for_orphans(workers)
            check("pool workers exited with the server", not orphans,
                  f"orphans={orphans}")
    except BaseException:
        dump_on_failure(server)
        raise

    server, client = boot(data_dir, plan=None)
    try:
        health = wait_for_health(client)
        recovery = health["durability"]["recovery"]
        check("checkpoint survived the crash", recovery["checkpoints_found"] >= 1)

        serial = client.solve_raw("chaos", QUERY, tier="unlimited")
        reference = len(serial["report"]["clique"])

        resumed = client.solve_raw("chaos", PARALLEL_QUERY, tier="unlimited")
        report = resumed["report"]
        telemetry = report["metadata"]["parallel"]
        check("solve resumed from checkpoint", telemetry.get("resumed") is True)
        check("checkpointed shards skipped",
              telemetry.get("shards_skipped", 0) >= 1,
              f"skipped={telemetry.get('shards_skipped')}")
        check("resume parity with from-scratch",
              len(report["clique"]) == reference and report["optimal"],
              f"size={len(report['clique'])} reference={reference}")

        metrics = client.metrics()
        check("checkpoint discarded after success",
              metrics["durability"]["checkpoints"] == 0)
        server.send_signal(signal.SIGINT)
        check("solve-crash drain", server.wait(timeout=30) == 0)
    except BaseException:
        dump_on_failure(server)
        raise


def scenario_mutation_crash() -> None:
    """SIGKILL mid-mutation-batch: replay lands pre- or post-batch, not torn."""
    data_dir = Path(tempfile.mkdtemp(prefix="repro-crash-mutate-"))
    graph = chaos_graph()
    edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    server, client = boot(data_dir, MUTATION_STALL_PLAN)
    try:
        wait_for_health(client)
        client.upload_graph("g", graph)
        first = client.mutate_graph("g", [["remove_edge", *edges[0]]])
        check("first batch acked", first["applied"] == 1,
              f"version={first['version']}")
        pre = client.graph_info("g")

        # The doomed batch stalls inside its delta's WAL append; fire it
        # from a helper thread and SIGKILL the server mid-write.
        def doomed_batch():
            try:
                client.mutate_graph("g", [
                    ["remove_edge", *edges[1]],
                    ["add_vertex", "crashed", "a"],
                ])
            except (OSError, ServiceError):
                pass  # the server died under this request, as planned

        mutator = threading.Thread(target=doomed_batch, daemon=True)
        mutator.start()
        time.sleep(1.5)  # let the request reach the stalled append
        hard_kill(server)
        mutator.join(timeout=10)
        check("server SIGKILLed mid-batch", server.returncode != 0)
    except BaseException:
        dump_on_failure(server)
        raise

    server, client = boot(data_dir, plan=None)
    try:
        wait_for_health(client)
        info = client.graph_info("g")
        pre_state = (pre["version"], pre["n"], pre["m"])
        # The doomed batch removed one edge and added one vertex.
        post_state = (pre["version"] + 1, pre["n"] + 1, pre["m"] - 1)
        replayed = (info["version"], info["n"], info["m"])
        check("replay landed pre- or post-batch, never torn",
              replayed in (pre_state, post_state),
              f"replayed={replayed} pre={pre_state} post={post_state}")
        answer = client.solve_raw("g", QUERY, tier="unlimited")
        check("restarted server solves the mutated graph",
              answer["report"]["optimal"],
              f"size={len(answer['report']['clique'])}")
        server.send_signal(signal.SIGINT)
        check("mutation-crash drain", server.wait(timeout=30) == 0)
    except BaseException:
        dump_on_failure(server)
        raise


def main() -> int:
    scenario_upload_crash()
    scenario_solve_crash()
    scenario_mutation_crash()
    print("[crash] crash/restart smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
