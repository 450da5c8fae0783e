"""Checkpoint/resume parity of the parallel executor.

The headline guarantee: a solve resumed from any persisted checkpoint
returns exactly the clique size a from-scratch solve returns, for every
fairness model and worker count.  Resuming skips the checkpointed shards
and installs the persisted incumbent as the initial lower bound; neither
may change the answer, only the work.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import community_graph
from repro.models import make_model
from repro.parallel import ParallelMaxRFC
from repro.parallel.executor import CHECKPOINT_SCHEMA

MODELS = ("relative", "weak", "strong", "multi_weak")
WORKERS = (1, 2, 4)


def _graph():
    """Three dense components: three shards with real search work in each."""
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=21)


def _spec(graph, model: str, k: int = 2):
    return make_model(model, k, 1 if model == "relative" else None, graph)


class RecordingSink:
    """An in-memory checkpoint sink capturing every persisted state."""

    def __init__(self, state: dict | None = None):
        self.state = state
        self.history: list[dict] = []
        self.discards = 0

    def save(self, state: dict) -> None:
        self.state = state
        self.history.append(state)

    def load(self) -> dict | None:
        return self.state

    def discard(self) -> None:
        self.discards += 1
        self.state = None


class FailingSink(RecordingSink):
    def save(self, state: dict) -> None:  # noqa: ARG002 - interface
        raise OSError(28, "No space left on device")


def _solver(workers: int, checkpoint=None) -> ParallelMaxRFC:
    return ParallelMaxRFC(None, workers, checkpoint=checkpoint)


class TestResumeParityMatrix:
    """4 fairness models × 1/2/4 workers: resumed size == from-scratch size."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_resume_from_every_checkpoint_matches_scratch(self, model, workers):
        graph = _graph()
        spec = _spec(graph, model)
        scratch = _solver(workers).solve_model(graph, spec)

        recorder = RecordingSink()
        recorded = _solver(workers, checkpoint=recorder).solve_model(graph, spec)
        assert recorded.size == scratch.size

        if workers <= 1:
            # The serial path never shards, so it neither writes nor reads
            # checkpoints — resume must be a clean no-op.
            assert recorder.history == []
            resumed = _solver(workers, checkpoint=RecordingSink()).solve_model(
                graph, spec
            )
            assert resumed.size == scratch.size
            return

        assert len(recorder.history) >= 1
        assert recorder.discards == 1  # completed solves clean up after themselves
        for state in recorder.history:
            assert state["schema"] == CHECKPOINT_SCHEMA
            resumed = _solver(
                workers, checkpoint=RecordingSink(state=dict(state))
            ).solve_model(graph, spec)
            assert resumed.size == scratch.size
            assert resumed.optimal
            telemetry = resumed.stats.extra["parallel"]
            assert telemetry["resumed"] is True
            assert telemetry["shards_skipped"] == len(state["shards"])

    def test_resumed_incumbent_is_the_initial_lower_bound(self):
        graph = _graph()
        spec = _spec(graph, "relative")
        recorder = RecordingSink()
        reference = _solver(2, checkpoint=recorder).solve_model(graph, spec)
        # The final checkpoint carries the optimum incumbent and all but the
        # last shard; resuming from it re-searches at most one shard under
        # an already-optimal bound.
        final = recorder.history[-1]
        assert len(final["incumbent"]) == reference.size
        resumed = _solver(2, checkpoint=RecordingSink(state=final)).solve_model(
            graph, spec
        )
        assert resumed.size == reference.size


class TestCheckpointSafety:
    def test_foreign_checkpoint_is_ignored(self):
        graph = _graph()
        recorder = RecordingSink()
        _solver(2, checkpoint=recorder).solve_model(graph, _spec(graph, "relative"))
        state = recorder.history[0]
        # Same graph, different k: a different shard plan — the signature
        # must reject the state and the solve must start (and answer) fresh.
        other_spec = _spec(graph, "relative", k=3)
        scratch = _solver(2).solve_model(graph, other_spec)
        resumed = _solver(2, checkpoint=RecordingSink(state=state)).solve_model(
            graph, other_spec
        )
        assert resumed.size == scratch.size
        telemetry = resumed.stats.extra["parallel"]
        assert telemetry.get("resumed") is None
        assert telemetry["checkpoint_mismatch"] is True

    def test_corrupt_state_is_ignored(self):
        graph = _graph()
        spec = _spec(graph, "relative")
        recorder = RecordingSink()
        reference = _solver(2, checkpoint=recorder).solve_model(graph, spec)
        state = dict(recorder.history[0])
        state["shards"] = {"0": {"clique": None, "stats": None}}
        resumed = _solver(2, checkpoint=RecordingSink(state=state)).solve_model(
            graph, spec
        )
        assert resumed.size == reference.size
        assert resumed.stats.extra["parallel"]["checkpoint_mismatch"] is True

    def test_save_failures_never_fail_the_solve(self):
        graph = _graph()
        spec = _spec(graph, "relative")
        scratch = _solver(2).solve_model(graph, spec)
        result = _solver(2, checkpoint=FailingSink()).solve_model(graph, spec)
        assert result.size == scratch.size
        telemetry = result.stats.extra["parallel"]
        assert telemetry["checkpoint_errors"] >= 1
        assert "OSError" in telemetry["checkpoint_error"]

    def test_resumed_stats_are_merged(self):
        graph = _graph()
        spec = _spec(graph, "relative")
        recorder = RecordingSink()
        _solver(2, checkpoint=recorder).solve_model(graph, spec)
        final = recorder.history[-1]
        resumed = _solver(2, checkpoint=RecordingSink(state=final)).solve_model(
            graph, spec
        )
        # The checkpointed shards' branch counters ride along into the
        # merged stats: the resumed run reports at least as many branches
        # as the checkpoint recorded.
        recorded_branches = sum(
            shard["stats"].get("branches_explored", 0)
            for shard in final["shards"].values()
        )
        assert resumed.stats.branches_explored >= recorded_branches
