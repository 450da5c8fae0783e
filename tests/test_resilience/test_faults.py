"""FaultPlan/FaultSpec semantics: matching, budgets, determinism, wire form."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.api import FairCliqueQuery, solve
from repro.graph.generators import community_graph
from repro.resilience import faults
from repro.resilience.faults import (
    ENV_PLAN,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    fault_injection,
    install_from_env,
    maybe_fire,
)


class TestSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(point="shard.run", action="explode")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scope"):
            FaultSpec(point="shard.run", scope="everywhere")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(point="shard.run", probability=1.5)

    def test_when_dict_normalised_to_tuple(self):
        spec = FaultSpec(point="shard.run", when={"shard": 3, "attempt": 1})
        assert spec.when == (("attempt", 1), ("shard", 3))

    def test_from_wire_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec field"):
            FaultSpec.from_wire({"point": "shard.run", "typo": True})


class TestFiring:
    def test_disabled_is_noop(self):
        assert active_plan() is None
        maybe_fire("shard.run", shard=0)  # nothing installed: must not raise

    def test_raise_action_fires_with_context(self):
        plan = FaultPlan(specs=(FaultSpec(point="shard.run"),))
        with fault_injection(plan):
            with pytest.raises(InjectedFault) as excinfo:
                maybe_fire("shard.run", shard=2, attempt=1)
        assert excinfo.value.point == "shard.run"
        assert excinfo.value.context == {"shard": 2, "attempt": 1}
        assert plan.snapshot() == {"shard.run": 1}

    def test_when_filter_selects_context(self):
        plan = FaultPlan(specs=(
            FaultSpec(point="shard.run", when={"shard": 1, "attempt": 1}),
        ))
        with fault_injection(plan):
            maybe_fire("shard.run", shard=0, attempt=1)   # wrong shard
            maybe_fire("shard.run", shard=1, attempt=2)   # wrong attempt
            with pytest.raises(InjectedFault):
                maybe_fire("shard.run", shard=1, attempt=1)

    def test_times_budget_caps_firing(self):
        plan = FaultPlan(specs=(FaultSpec(point="shard.run", times=2, when={}),))
        fired = 0
        with fault_injection(plan):
            for _ in range(5):
                try:
                    maybe_fire("shard.run")
                except InjectedFault:
                    fired += 1
        assert fired == 2

    def test_unlimited_times(self):
        plan = FaultPlan(specs=(FaultSpec(point="shard.run", times=None),))
        with fault_injection(plan):
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    maybe_fire("shard.run")

    def test_disconnect_action(self):
        plan = FaultPlan(specs=(FaultSpec(point="http.stream", action="disconnect"),))
        with fault_injection(plan):
            with pytest.raises(ConnectionResetError):
                maybe_fire("http.stream", event=0)

    def test_sleep_action_delays(self):
        plan = FaultPlan(specs=(
            FaultSpec(point="shard.run", action="sleep", delay=0.05),
        ))
        with fault_injection(plan):
            started = time.monotonic()
            maybe_fire("shard.run")
            assert time.monotonic() - started >= 0.04

    def test_kill_degrades_to_raise_in_coordinator(self):
        # os._exit in the test process would take pytest down; the scope
        # guard means a coordinator-side kill raises instead.
        plan = FaultPlan(specs=(FaultSpec(point="shard.run", action="kill"),))
        with fault_injection(plan):
            with pytest.raises(InjectedFault):
                maybe_fire("shard.run")

    def test_worker_scope_never_fires_in_coordinator(self):
        plan = FaultPlan(specs=(
            FaultSpec(point="shard.run", scope="worker", times=None),
        ))
        with fault_injection(plan):
            maybe_fire("shard.run")  # no raise: this process is no worker
        assert plan.snapshot() == {}

    def test_seeded_probability_is_deterministic(self):
        def run() -> list[bool]:
            plan = FaultPlan(
                specs=(FaultSpec(point="shard.run", probability=0.5, times=None),),
                seed=7,
            )
            outcomes = []
            with fault_injection(plan):
                for _ in range(20):
                    try:
                        maybe_fire("shard.run")
                        outcomes.append(False)
                    except InjectedFault:
                        outcomes.append(True)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)  # the coin actually flips


class TestInstall:
    def test_context_manager_restores_previous(self):
        outer = FaultPlan()
        inner = FaultPlan()
        with fault_injection(outer):
            with fault_injection(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_wire_roundtrip(self):
        plan = FaultPlan(
            specs=(FaultSpec(point="shard.run", when={"shard": 0}, times=3),),
            seed=11,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.specs == plan.specs

    def test_install_from_env(self):
        plan = FaultPlan(specs=(FaultSpec(point="service.solve"),), seed=3)
        try:
            installed = install_from_env({ENV_PLAN: plan.to_json()})
            assert installed is not None
            assert installed.specs == plan.specs
            assert active_plan() is installed
        finally:
            from repro.resilience.faults import install
            install(None)

    def test_install_from_env_absent(self):
        assert install_from_env({}) is None


def _three_component_graph():
    """Three components, so a 2-worker pool runs one shard per component."""
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=21)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the plan only by fork",
)
class TestSeamsInSolves:
    """The seams a solve crosses, serially and in a 2-worker pool.

    ``FaultPlan.fire`` is patched to count its calls into shared values, so
    calls made in forked pool workers are counted too.  No timing: a
    disarmed seam must not reach the plan at all, and an armed plan whose
    only spec never matches must be consulted yet change nothing.
    """

    #: Matches a reduction stage that does not exist, so it never fires.
    INERT = FaultSpec(point="reduction.stage", action="raise",
                      when={"stage": "__inert__"}, times=None)

    @staticmethod
    def _count_fire_calls(monkeypatch):
        """Patch ``FaultPlan.fire``; return its (all, worker-side) call counts."""
        context = multiprocessing.get_context("fork")
        calls = context.Value("i", 0)
        worker_calls = context.Value("i", 0)
        original = FaultPlan.fire

        def counting(self, point, seam_context):
            with calls.get_lock():
                calls.value += 1
            if faults._IN_WORKER:
                with worker_calls.get_lock():
                    worker_calls.value += 1
            return original(self, point, seam_context)

        monkeypatch.setattr(FaultPlan, "fire", counting)
        return calls, worker_calls

    @staticmethod
    def _solve(graph, workers):
        report = solve(graph, FairCliqueQuery(
            model="relative", k=2, delta=1, workers=workers,
        ))
        assert report.optimal
        if workers:
            assert report.metadata["parallel"]["pool_size"] == workers
        return report

    def test_disarmed_solves_never_enter_the_plan(self, monkeypatch):
        calls, _ = self._count_fire_calls(monkeypatch)
        graph = _three_component_graph()
        assert active_plan() is None
        for workers in (None, 2):
            assert self._solve(graph, workers).size > 0
        assert calls.value == 0

    def test_inert_plan_is_consulted_and_changes_nothing(self, monkeypatch):
        graph = _three_component_graph()
        plain = {workers: self._solve(graph, workers).size for workers in (None, 2)}
        calls, worker_calls = self._count_fire_calls(monkeypatch)
        plan = FaultPlan(specs=(self.INERT,), seed=0)
        with fault_injection(plan):
            serial = self._solve(graph, None)
            assert calls.value >= 1
            assert worker_calls.value == 0
            pooled = self._solve(graph, 2)
        assert serial.size == plain[None]
        assert pooled.size == plain[2]
        # worker.init and shard.run ran in the workers under the plan.
        assert worker_calls.value >= 1
        assert sum(plan.fired.values()) == 0
