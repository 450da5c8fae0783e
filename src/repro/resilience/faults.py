"""Deterministic, seeded fault injection for chaos tests.

The stack has a handful of *seams* where real deployments fail: worker
process entry, shard execution, reduction stages, HTTP connection handling,
executor submission.  Each seam calls :func:`maybe_fire` with a point name
and a little context; when no plan is installed that call is a single
module-global ``is None`` check — a no-op cheap enough to leave compiled in
everywhere (``tests/test_resilience/test_faults.py`` checks that a disarmed
solve never reaches a plan).

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules.  A spec matches
a point by name, by an optional ``when`` context filter (``{"shard": 0,
"attempt": 1}``), by a fire budget (``times``), and — for probabilistic
chaos — by a seeded coin flip, so every scenario is a reproducible unit
test rather than a flaky e2e run.

Actions
-------
``raise``
    Raise :class:`InjectedFault` at the seam (a worker exception, a failed
    submission, a crashed solve — whatever the seam maps it to).
``kill``
    Hard-kill the *worker* process (``os._exit``), the way OOM killers and
    segfaults do; this is what produces a real ``BrokenProcessPool`` in the
    parallel executor.  In a non-worker process ``kill`` degrades to
    ``raise`` — chaos must never take down the coordinator or the server.
``disconnect``
    Raise ``ConnectionResetError``, modelling a peer that went away.
``sleep``
    Block for ``delay`` seconds (slow-shard / slow-peer scenarios).

Plans propagate into pool workers automatically: the executor forks, and
children inherit the installed plan (each child keeps its own fire
counters — specs that must fire once globally should match on context,
e.g. ``when={"shard": 3, "attempt": 1}``, not on counters).

``REPRO_FAULT_PLAN`` (a JSON list of spec dicts) lets the CLI server boot
with a plan installed — the chaos smoke test drives a real deployment that
way.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Environment variable holding a JSON-encoded plan for subprocess chaos.
ENV_PLAN = "REPRO_FAULT_PLAN"

#: The seam names used by the stack (specs may name others; unknown points
#: simply never fire).  Kept in one place so tests and docs can enumerate.
POINTS = (
    "worker.init",       # pool worker initializer ran
    "shard.run",         # a shard is about to execute (worker or serial fallback)
    "reduction.stage",   # one reduction-pipeline stage is about to run
    "http.request",      # a parsed HTTP request is about to be routed
    "http.stream",       # one streamed event is about to be written
    "pool.submit",       # the coordinator is about to submit a shard
    "backend.submit",    # the service executor accepted a callable
    "service.solve",     # the service is about to dispatch a solve
    "wal.append",        # a WAL record is about to be written
    "wal.fsync",         # a WAL batch is about to be fsynced
    "checkpoint.write",  # a solve checkpoint is about to be persisted
)

_ACTIONS = ("raise", "kill", "disconnect", "sleep")
_SCOPES = ("any", "worker", "coordinator")


class FaultPlanError(ValueError):
    """``REPRO_FAULT_PLAN`` held something that is not a valid plan.

    The message is a single actionable line — the CLI prints it and exits
    instead of booting a server with a half-understood chaos plan (or
    spewing a traceback at an operator who fat-fingered some JSON).
    """


class InjectedFault(Exception):
    """The error a ``raise`` (or coordinator-side ``kill``) fault produces.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: an injected
    fault models infrastructure failure, not a malformed question, so the
    service maps it to the 5xx family, never to 422.
    """

    def __init__(self, point: str, context: dict | None = None) -> None:
        detail = f" {context}" if context else ""
        super().__init__(f"injected fault at {point!r}{detail}")
        self.point = point
        self.context = dict(context or {})


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault rule.

    Attributes
    ----------
    point:
        Seam name this spec listens on (see :data:`POINTS`).
    action:
        ``raise`` | ``kill`` | ``disconnect`` | ``sleep``.
    when:
        Context filter: every key must be present in the seam's context and
        equal the given value.  Empty = match every hit.
    times:
        Fire at most this many times *per process* (``None`` = unlimited).
    probability:
        Chance of firing on a matching hit; drawn from the plan's seeded
        RNG, so a given plan fires identically run after run.
    delay:
        Seconds to sleep for the ``sleep`` action.
    scope:
        ``worker`` fires only inside pool worker processes, ``coordinator``
        only outside them, ``any`` everywhere.  Lets a chaos test kill
        workers repeatedly while the coordinator's serial fallback stays
        clean (or deliberately doesn't).
    """

    point: str
    action: str = "raise"
    when: tuple = ()
    times: int | None = 1
    probability: float = 1.0
    delay: float = 0.0
    scope: str = "any"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; one of {_ACTIONS}")
        if self.scope not in _SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}; one of {_SCOPES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if isinstance(self.when, dict):  # ergonomic constructor input
            object.__setattr__(self, "when", tuple(sorted(self.when.items())))

    def matches(self, context: dict) -> bool:
        return all(context.get(key) == value for key, value in self.when)

    def to_wire(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "when": dict(self.when),
            "times": self.times,
            "probability": self.probability,
            "delay": self.delay,
            "scope": self.scope,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "FaultSpec":
        known = {"point", "action", "when", "times", "probability", "delay", "scope"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec field(s): {sorted(unknown)}")
        return cls(**payload)


@dataclass
class FaultPlan:
    """A seeded set of fault rules plus per-process firing telemetry."""

    specs: tuple = ()
    seed: int = 0
    fired: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_wire(spec)
            for spec in self.specs
        )
        self._rng = random.Random(self.seed)
        self._counts = [0] * len(self.specs)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Firing
    # ------------------------------------------------------------------ #
    def fire(self, point: str, context: dict) -> None:
        """Evaluate every spec against one seam hit (called by maybe_fire)."""
        for index, spec in enumerate(self.specs):
            if spec.point != point or not spec.matches(context):
                continue
            with self._lock:
                if spec.times is not None and self._counts[index] >= spec.times:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                if spec.scope == "worker" and not _IN_WORKER:
                    continue
                if spec.scope == "coordinator" and _IN_WORKER:
                    continue
                self._counts[index] += 1
                self.fired[point] = self.fired.get(point, 0) + 1
            self._act(spec, point, context)

    def _act(self, spec: FaultSpec, point: str, context: dict) -> None:
        if spec.action == "sleep":
            time.sleep(spec.delay)
            return
        if spec.action == "disconnect":
            raise ConnectionResetError(f"injected disconnect at {point!r} {context}")
        if spec.action == "kill" and _IN_WORKER:
            # The way real workers die: no exception, no cleanup, no unwind.
            os._exit(86)
        raise InjectedFault(point, context)

    # ------------------------------------------------------------------ #
    # Introspection / wire
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Per-point fire counts recorded in *this* process."""
        with self._lock:
            return dict(self.fired)

    def to_wire(self) -> dict:
        return {"seed": self.seed, "specs": [spec.to_wire() for spec in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_wire())

    @classmethod
    def from_wire(cls, payload: dict) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec.from_wire(spec) for spec in payload.get("specs", ())),
            seed=payload.get("seed", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_wire(json.loads(text))


# --------------------------------------------------------------------------- #
# The global switch (one pointer read on the disabled fast path)
# --------------------------------------------------------------------------- #
_ACTIVE: FaultPlan | None = None
_IN_WORKER = False


def maybe_fire(point: str, **context) -> None:
    """Seam entry point: no-op unless a plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(point, context)


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def fault_injection(plan: FaultPlan):
    """Scoped install for tests: the plan is active inside the ``with``."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def mark_worker_process() -> None:
    """Called by pool-worker initializers so ``kill`` knows it may exit."""
    global _IN_WORKER
    _IN_WORKER = True


def plan_from_env_value(raw: str) -> FaultPlan:
    """Parse an ``REPRO_FAULT_PLAN`` value strictly.

    Unlike programmatic :class:`FaultSpec` construction (where unknown
    points are tolerated so plans can outlive seam renames), an env plan
    naming a point the binary does not export is almost certainly a typo —
    the operator believes a fault is armed when nothing will ever fire.
    Every failure mode maps to :class:`FaultPlanError` with a one-line,
    actionable message.
    """
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise FaultPlanError(
            f"{ENV_PLAN} is not valid JSON ({error.msg} at char {error.pos}); "
            'expected e.g. {"specs": [{"point": "shard.run", "action": "raise"}]}'
        ) from error
    if not isinstance(payload, dict):
        raise FaultPlanError(
            f"{ENV_PLAN} must be a JSON object with a 'specs' list, "
            f"got {type(payload).__name__}"
        )
    try:
        plan = FaultPlan.from_wire(payload)
    except (ValueError, TypeError, AttributeError, KeyError) as error:
        raise FaultPlanError(f"{ENV_PLAN} holds an invalid spec: {error}") from error
    for spec in plan.specs:
        if spec.point not in POINTS:
            raise FaultPlanError(
                f"{ENV_PLAN} names unknown fault point {spec.point!r}; "
                f"known points: {', '.join(POINTS)}"
            )
    return plan


def install_from_env(environ=os.environ) -> FaultPlan | None:
    """Install the plan carried by ``REPRO_FAULT_PLAN``, if any.

    Used by the CLI server so subprocess deployments (the chaos smoke test)
    can boot with injection armed.  Returns the installed plan.  Raises
    :class:`FaultPlanError` — never a raw traceback — when the value is
    malformed or names an unknown point/action.
    """
    raw = environ.get(ENV_PLAN)
    if not raw:
        return None
    plan = plan_from_env_value(raw)
    install(plan)
    return plan
