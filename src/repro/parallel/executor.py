"""The component-sharded parallel branch-and-bound executor.

:class:`ParallelMaxRFC` is a drop-in :class:`~repro.search.maxrfc.MaxRFC`
whose component loop fans out over a ``ProcessPoolExecutor``:

1. the Algorithm 2 reduction and the model's heuristic incumbent seed run
   **once**, in the coordinator (they are cheap and their artifacts are
   shared);
2. the reduced graph is compiled into an immutable, picklable
   :class:`~repro.kernel.compile.GraphKernel` snapshot;
3. :func:`~repro.parallel.sharding.plan_shards` turns the surviving
   components into independent tasks, splitting oversized components one
   branch level deep into root-subtree shards;
4. the snapshot reaches each worker exactly once, as the pool
   *initializer*'s argument: under ``fork`` the worker inherits it
   copy-on-write and nothing is pickled; without ``fork`` the pool uses
   ``spawn`` and the snapshot pickles once per worker.  Shards reference it
   by component index;
5. the same ``initargs`` hand every worker the solve's shared values
   (``multiprocessing.Value`` objects created from the pool's own context,
   so every start method accepts them): the incumbent-size channel — a
   clique found in one shard tightens the pruning threshold in all others
   within :data:`~repro.parallel.worker.POLL_INTERVAL` branches — the
   global branch counter, and the stop flag the coordinator raises when the
   caller's ``stop_event`` fires.  The fairness model ships inside the
   payload as a bound :class:`~repro.models.base.ActiveModel`, so every
   model — including ``multi_weak`` over arbitrary attribute domains —
   shards identically;
6. the coordinator merges the per-shard incumbents and counters; a shard
   that hit the time/branch budget contributes its best-so-far clique and
   flags the merged result as truncated (``optimal=False``).

Parallelism never changes the *answer*: every shard explores a sound
superset of what the serial search would explore under the same incumbent,
so the merged maximum has the same size as the serial optimum (the parity
suite pins this across models and worker counts).  What it changes is
wall-clock on multi-core machines — and on tiny graphs it *loses* to serial,
because forking and polling cost more than the search itself; see the
README's "Parallel execution" section for guidance.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.graph.attributed_graph import AttributedGraph
from repro.models.base import ActiveModel
from repro.parallel import worker as worker_module
from repro.parallel.sharding import Shard, ShardPlan, plan_shards
from repro.parallel.worker import WorkerPayload
from repro.resilience import SolveCrashedError, faults
from repro.resilience.deadline import Deadline
from repro.search.maxrfc import MaxRFC, MaxRFCConfig, _TimeBudgetExceeded
from repro.search.result import SearchResult
from repro.search.statistics import SearchStats

#: How many times a failed shard is resubmitted to a (possibly respawned)
#: pool before the coordinator runs it serially in-process.  Shards are pure
#: functions of the kernel snapshot, so a retry can never change the answer
#: — only recover it.
MAX_SHARD_RETRIES = 2

#: Wire schema tag of persisted solve checkpoints.
CHECKPOINT_SCHEMA = "repro-solve-checkpoint/v1"


def _plan_signature(kernel, model: ActiveModel, plan: ShardPlan, seed_size: int) -> str:
    """Fingerprint of one solve's shard plan.

    A checkpoint may only resume a solve whose plan is *identical* — same
    kernel, same bound model, same shard decomposition, same heuristic seed
    size (shard planning prunes components against it).  Anything else and
    the persisted incumbent/shard set could be unsound, so a signature
    mismatch makes the executor silently start from scratch.
    """
    basis = json.dumps(
        {
            "n": kernel.n,
            "m": kernel.num_edges,
            "seed": seed_size,
            "model": [
                model.name,
                list(model.lower),
                model.gap,
                model.bound_delta,
                model.min_size,
            ],
            "shards": [
                [
                    shard.index,
                    shard.component_index,
                    shard.component_size,
                    None
                    if shard.root_positions is None
                    else list(shard.root_positions),
                ]
                for shard in plan.shards
            ],
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


def _pool_context():
    """The pool's multiprocessing context: ``fork`` where available, else ``spawn``.

    The shared values are created from the same context, because a lock made
    in a fork context refuses to be shared with a spawned process.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


class _Poller(threading.Thread):
    """Coordinator-side thread between the caller and the workers.

    Every ``interval`` seconds it calls ``notify(size, None)`` for every
    strictly larger value observed on the incumbent ``channel`` (when
    ``notify`` is given), and raises the shared ``stop`` flag once
    ``stop_event`` is set (when given).  A final tick after :meth:`stop`
    catches an improvement that landed between the last poll and pool
    completion.  Sizes are monotone by construction (workers only ever
    publish strictly larger values).
    """

    def __init__(self, channel, notify, stop_event, stop, interval: float = 0.02):
        super().__init__(daemon=True)
        self._channel = channel
        self._last = channel.value
        self._notify = notify
        self._stop_event = stop_event
        self._stop_flag = stop
        self._interval = interval
        # Not named _stop: threading.Thread uses that name internally.
        self._halt = threading.Event()

    def _tick(self) -> None:
        if self._stop_event is not None and self._stop_event.is_set():
            self._stop_flag.value = 1
        if self._notify is not None:
            size = self._channel.value
            if size > self._last:
                self._last = size
                self._notify(size, None)

    def run(self) -> None:  # pragma: no cover - timing-dependent loop body
        self._tick()
        while not self._halt.wait(self._interval):
            self._tick()

    def stop(self) -> None:
        self._halt.set()
        self.join()
        self._tick()


class ParallelMaxRFC(MaxRFC):
    """Exact maximum relative fair clique solver, sharded over a process pool.

    Same answer as :class:`MaxRFC` (clique sizes are always identical; the
    specific clique may be a different one of equal size, since the incumbent
    race is worker-order dependent), same reduction/heuristic/budget
    plumbing — only the component loop is parallel.
    """

    def __init__(
        self,
        config: MaxRFCConfig | None = None,
        workers: int = 2,
        *,
        checkpoint=None,
    ) -> None:
        super().__init__(config)
        #: Pool size.  ``<= 1`` runs the serial search — the coordinator
        #: never spawns a pool it cannot use.
        self.workers = workers
        #: Optional checkpoint sink (``save(state)/load()/discard()``, e.g. a
        #: :class:`repro.durability.CheckpointHandle`).  When set, the pool
        #: run persists ``(incumbent, completed shards, partial stats)`` after
        #: every shard completion and a later solve with an identical plan
        #: resumes from it: completed shards are skipped and the persisted
        #: incumbent becomes the initial lower bound, tightening the ubAD
        #: prune from the very first branch.  Checkpoints are best-effort —
        #: any save/load failure is counted in telemetry, never raised.
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------ #
    # Component loop override
    # ------------------------------------------------------------------ #
    def _search_components(
        self,
        graph: AttributedGraph,
        model: ActiveModel,
        best: frozenset,
        stats: SearchStats,
        deadline: Deadline,
    ) -> frozenset:
        workers = self.workers
        if workers <= 1 or graph.num_vertices == 0:
            return super()._search_components(graph, model, best, stats, deadline)
        kernel = graph.compile()
        plan = plan_shards(
            kernel, model, incumbent_size=len(best), workers=workers
        )
        telemetry = dict(plan.summary())
        telemetry["workers"] = workers
        stats.extra["parallel"] = telemetry
        if not plan.shards:
            return best
        # Build every planned component's layout now, so forked workers
        # inherit the kernel's cache instead of each building its own.
        for shard in plan.shards:
            kernel.component_layout(shard.component_index, self.config.ordering, graph)
        try:
            return self._run_pool(
                kernel, plan, model, best, stats, deadline, telemetry
            )
        except OSError as error:
            # Spawning the *first* pool can fail in constrained environments
            # (fork EAGAIN, fd/memory exhaustion) — the serial path is always
            # available and answers identically, so fall back and note it.
            # Worker-side crashes (a killed process, BrokenProcessPool, an
            # exception escaping a shard) never reach here: _run_pool
            # respawns the pool and retries failed shards itself, falling
            # back to per-shard serial execution only once the retry budget
            # is spent, and raises SolveCrashedError only when even that
            # fails.
            telemetry["fallback"] = f"serial ({type(error).__name__}: {error})"
            return super()._search_components(graph, model, best, stats, deadline)

    def _run_pool(
        self,
        kernel,
        plan: ShardPlan,
        model: ActiveModel,
        best: frozenset,
        stats: SearchStats,
        deadline: Deadline,
        telemetry: dict,
    ) -> frozenset:
        """Run the shard plan crash-tolerantly and merge whatever completed.

        Control flow: submit every pending shard to a pool; a shard whose
        future raises (worker exception, or ``BrokenProcessPool`` after a
        worker died mid-flight) is retried on a fresh pool up to
        :data:`MAX_SHARD_RETRIES` times, then executed serially in the
        coordinator (shards are pure functions of the snapshot, so a rerun
        is always sound).  Retries never run past ``deadline`` — when the
        budget expires first, the completed shards are merged and the
        result is flagged aborted, exactly like a serial budget abort.
        Only a shard that fails *even serially* makes the solve raise
        :class:`~repro.resilience.SolveCrashedError`.

        With a checkpoint sink attached, progress is persisted after every
        completed shard and a matching prior checkpoint is resumed first:
        its completed shards never re-run and its incumbent is installed
        *before* the payload/channel are built, so every worker prunes
        against it from branch one.  The resume incumbent is deliberately
        applied after :func:`plan_shards` ran (in ``_search_components``)
        — planning prunes components against the incumbent size, so
        planning with the checkpoint's (larger) incumbent would build a
        different, signature-incompatible shard set.
        """
        results: dict[int, object] = {}
        signature = _plan_signature(kernel, model, plan, len(best))
        resumed = self._load_checkpoint(signature, plan, telemetry)
        if resumed is not None:
            incumbent, restored = resumed
            if len(incumbent) > len(best):
                best = incumbent
            results.update(restored)
        persist = None
        if self.checkpoint is not None:
            seed_best = best

            def persist() -> None:
                self._persist_checkpoint(signature, seed_best, results, telemetry)

        payload = WorkerPayload(
            kernel=kernel,
            model=model,
            ordering=self.config.ordering,
            deadline=deadline,
            branch_limit=self.config.branch_limit,
        )
        context = _pool_context()
        shared = {
            # Starts at the seed, so every shard prunes against it.
            "channel": context.Value("q", len(best)),
            "branch_counter": context.Value("q", 0),
            # Written only by the poller; a byte needs no lock.
            "stop": context.Value("b", 0, lock=False),
        }
        stop = shared["stop"]

        def stopping() -> bool:
            return deadline.expired() or bool(stop.value)

        pool_size = min(self.workers, len(plan.shards))
        started = time.monotonic()
        poller = None
        if self.on_improve is not None or self.stop_event is not None:
            # Streaming tap: workers publish incumbent *sizes* to the
            # shared channel; a coordinator-side thread surfaces every
            # increase through on_improve.  The clique itself stays in
            # the worker until its shard returns, so channel events
            # carry ``clique=None`` — the merged final result delivers
            # the vertices.  The same thread turns stop_event into the
            # workers' stop flag.  One poller spans every retry round:
            # respawned pools receive the same shared values.
            notify = self._notify_improve if self.on_improve is not None else None
            poller = _Poller(shared["channel"], notify, self.stop_event, stop)
            poller.start()

        attempts: dict[int, int] = {shard.index: 0 for shard in plan.shards}
        failures: dict[int, str] = {}
        retried: set[int] = set()
        serial_queue: list[Shard] = []
        pending: list[Shard] = [
            shard for shard in plan.shards if shard.index not in results
        ]
        pools_created = 0
        pool_breaks = 0
        budget_stop = False
        serial_failures: dict[int, str] = {}
        try:
            while pending:
                if pools_created > 0 and stopping():
                    # Out of budget (or stopped) before the retry round:
                    # keep what completed, report the truncation honestly.
                    budget_stop = True
                    pending = []
                    break
                try:
                    failed, broke = self._run_batch(
                        pending, payload, context, shared, pool_size,
                        attempts, results, failures, on_result=persist,
                    )
                except OSError:
                    if pools_created == 0:
                        # First pool never came up: the caller's serial
                        # fallback answers identically.
                        raise
                    # A respawn failed mid-recovery (fd/memory pressure):
                    # finish the survivors in-process instead.
                    serial_queue.extend(pending)
                    pending = []
                    break
                pools_created += 1
                if broke:
                    pool_breaks += 1
                next_round: list[Shard] = []
                for shard in failed:
                    if attempts[shard.index] > MAX_SHARD_RETRIES:
                        serial_queue.append(shard)
                    else:
                        retried.add(shard.index)
                        next_round.append(shard)
                pending = next_round
            if serial_queue and not budget_stop:
                # Same guard the serial component loop applies; the worker
                # initializer is not run in the coordinator.
                sys.setrecursionlimit(
                    max(sys.getrecursionlimit(), kernel.n + 1000)
                )
                for shard in serial_queue:
                    if stopping():
                        budget_stop = True
                        break
                    attempts[shard.index] += 1
                    try:
                        results[shard.index] = worker_module.solve_shard(
                            payload, shard, **shared,
                            attempt=attempts[shard.index],
                        )
                        if persist is not None:
                            persist()
                    except Exception as error:  # noqa: BLE001 - terminal per-shard
                        serial_failures[shard.index] = (
                            f"{type(error).__name__}: {error}"
                        )
        finally:
            # Without the stop the daemon poller would keep polling the
            # shared values for the life of the process.
            if poller is not None:
                poller.stop()

        aborted = False
        worker_seconds = 0.0
        for result in results.values():
            worker_seconds += result.seconds
            aborted = aborted or result.aborted
            stats.merge(result.stats)
            if len(result.clique) > len(best):
                best = result.clique
        missing = sorted(index for index in attempts if index not in results)
        telemetry["pool_size"] = pool_size
        telemetry["worker_seconds"] = worker_seconds
        telemetry["pool_seconds"] = time.monotonic() - started
        telemetry["aborted_shards"] = sum(
            1 for r in results.values() if r.aborted
        )
        telemetry["shards_retried"] = len(retried)
        telemetry["pool_respawns"] = max(0, pools_created - 1)
        telemetry["pool_breaks"] = pool_breaks
        telemetry["serial_fallbacks"] = len(serial_queue)
        # Degraded = the merged answer is missing shards (never merely
        # "recovered after retries": a retried or serially-rerun shard
        # contributes its full exact result).
        telemetry["degraded"] = bool(missing)
        if failures:
            telemetry["shard_failures"] = {
                str(index): message for index, message in sorted(failures.items())
            }
        # Mirror the incumbent before (maybe) signalling the abort so solve()
        # returns the merged best-so-far, exactly like the serial path.
        self._incumbent = best
        if serial_failures:
            detail = "; ".join(
                f"shard {index}: {message}"
                for index, message in sorted(serial_failures.items())
            )
            raise SolveCrashedError(
                f"{len(serial_failures)} shard(s) failed beyond the retry "
                f"budget and the serial fallback ({detail})",
                telemetry,
            )
        if aborted or missing:
            # The checkpoint survives a budget abort on purpose: a retry of
            # the same query picks up where this attempt stopped.
            raise _TimeBudgetExceeded()
        if self.checkpoint is not None:
            try:
                self.checkpoint.discard()
            except Exception:  # noqa: BLE001 - cleanup is best-effort
                pass
        return best

    # ------------------------------------------------------------------ #
    # Checkpoint persistence (best-effort by design)
    # ------------------------------------------------------------------ #
    def _load_checkpoint(self, signature: str, plan: ShardPlan, telemetry: dict):
        """``(incumbent, restored_results)`` from a matching checkpoint.

        ``None`` when there is no sink, no persisted state, the signature
        differs (foreign solve), or the state is malformed — every one of
        those means "start from scratch", never an error.
        """
        if self.checkpoint is None:
            return None
        try:
            state = self.checkpoint.load()
        except Exception as error:  # noqa: BLE001 - resume must never block a solve
            self._note_checkpoint_error(telemetry, error)
            return None
        if not state:
            return None
        if (
            state.get("schema") != CHECKPOINT_SCHEMA
            or state.get("signature") != signature
        ):
            telemetry["checkpoint_mismatch"] = True
            return None
        valid = {shard.index for shard in plan.shards}
        restored: dict[int, worker_module.ShardResult] = {}
        try:
            for key, wire in (state.get("shards") or {}).items():
                index = int(key)
                if index not in valid:
                    continue
                restored[index] = worker_module.ShardResult(
                    shard_index=index,
                    clique=frozenset(wire["clique"]),
                    stats=SearchStats.from_wire(wire["stats"]),
                    aborted=False,
                    seconds=float(wire.get("seconds", 0.0)),
                )
            incumbent = frozenset(state.get("incumbent") or ())
        except (KeyError, TypeError, ValueError):
            telemetry["checkpoint_mismatch"] = True
            return None
        telemetry["resumed"] = True
        telemetry["shards_skipped"] = len(restored)
        return incumbent, restored

    def _persist_checkpoint(
        self,
        signature: str,
        seed_best: frozenset,
        results: dict,
        telemetry: dict,
    ) -> None:
        """Persist ``(incumbent, completed shards, partial stats)`` now."""
        checkpoint = self.checkpoint
        if checkpoint is None:
            return
        incumbent = seed_best
        shards: dict[str, dict] = {}
        for index, result in sorted(results.items()):
            if result.aborted:
                # An aborted shard's subtree is NOT fully explored; resuming
                # past it would silently drop solutions.
                continue
            if len(result.clique) > len(incumbent):
                incumbent = result.clique
            shards[str(index)] = {
                "clique": sorted(result.clique, key=repr),
                "stats": result.stats.to_wire(),
                "seconds": result.seconds,
            }
        state = {
            "schema": CHECKPOINT_SCHEMA,
            "signature": signature,
            "incumbent": sorted(incumbent, key=repr),
            "shards": shards,
        }
        try:
            checkpoint.save(state)
        except Exception as error:  # noqa: BLE001 - losing a checkpoint is survivable
            self._note_checkpoint_error(telemetry, error)
        else:
            telemetry["checkpoints_written"] = (
                telemetry.get("checkpoints_written", 0) + 1
            )

    @staticmethod
    def _note_checkpoint_error(telemetry: dict, error: Exception) -> None:
        telemetry["checkpoint_errors"] = telemetry.get("checkpoint_errors", 0) + 1
        telemetry["checkpoint_error"] = f"{type(error).__name__}: {error}"

    def _run_batch(
        self,
        shards: list[Shard],
        payload: WorkerPayload,
        context,
        shared: dict,
        pool_size: int,
        attempts: dict[int, int],
        results: dict,
        failures: dict[int, str],
        on_result=None,
    ) -> tuple[list[Shard], bool]:
        """One pool round: submit ``shards``, gather, classify failures.

        Returns ``(failed_shards, pool_broke)``.  Completed shard results
        land in ``results`` keyed by shard index; per-shard error strings
        land in ``failures``.  A fresh pool per round keeps recovery simple
        and is cheap under fork; ``BrokenProcessPool`` marks the round
        broken (the pool lost a process, so un-finished futures of healthy
        shards fail too — they simply retry next round).
        """
        failed: list[Shard] = []
        broke = False
        with ProcessPoolExecutor(
            max_workers=min(pool_size, len(shards)),
            mp_context=context,
            initializer=worker_module._init_worker,
            initargs=(payload, shared),
        ) as pool:
            futures = []
            for position, shard in enumerate(shards):
                attempts[shard.index] += 1
                faults.maybe_fire(
                    "pool.submit",
                    shard=shard.index,
                    attempt=attempts[shard.index],
                )
                try:
                    futures.append(pool.submit(
                        worker_module.run_shard, shard, attempts[shard.index],
                    ))
                except BrokenProcessPool:
                    # A worker died during pool start-up (the pool starts
                    # its workers lazily, so an initializer crash can
                    # surface *synchronously* on a later submit).
                    # Everything not yet submitted fails this round and
                    # retries like any other broken-pool loss.
                    broke = True
                    for missed in shards[position:]:
                        failed.append(missed)
                        failures[missed.index] = (
                            "BrokenProcessPool: a worker process died "
                            "before submit"
                        )
                    break
            # futures align with the submitted prefix of ``shards``; the
            # unsubmitted tail is already in ``failed``.
            for shard, future in zip(shards, futures):
                try:
                    results[shard.index] = future.result()
                    if on_result is not None:
                        on_result()
                except BrokenProcessPool:
                    broke = True
                    failed.append(shard)
                    failures[shard.index] = (
                        "BrokenProcessPool: a worker process died"
                    )
                except Exception as error:  # noqa: BLE001 - classified for retry
                    failed.append(shard)
                    failures[shard.index] = f"{type(error).__name__}: {error}"
        return failed, broke


def solve_parallel(
    graph: AttributedGraph,
    k: int,
    delta: int,
    *,
    workers: int = 2,
    config: MaxRFCConfig | None = None,
) -> SearchResult:
    """Convenience wrapper: solve with the parallel executor.

    Equivalent to ``ParallelMaxRFC(config, workers).solve(...)``; the
    unified API reaches the same code through ``workers=N`` on a
    :class:`~repro.api.query.FairCliqueQuery`.
    """
    return ParallelMaxRFC(config, workers).solve(graph, k, delta)
