"""The one deadline object threaded through every layer of a solve.

Before this module each layer re-derived its own budget arithmetic: the
solver computed ``time.monotonic() + time_limit``, workers compared against
a raw float, the service clamped a relative ``time_limit`` and hoped queue
wait was negligible.  :class:`Deadline` replaces all of that with a single
absolute point in monotonic time created once — at the outermost boundary
that owns the budget — and passed down verbatim (service request → quota
clamp → query → session → solver → shard payload → retry decisions).

Design notes
------------
* The deadline is *absolute* (``CLOCK_MONOTONIC`` timestamp).  On Linux the
  monotonic clock is machine-wide, so a :class:`Deadline` handed to a
  forked (or spawned, same host) worker still means the same instant —
  which is what lets the parallel executor's retry loop refuse to retry
  past the caller's budget.
* ``Deadline.start(None)`` is the *unbounded* deadline: a real object, so
  callers never juggle ``Deadline | None``, and :meth:`expired` stays a
  two-comparison fast path.
* Frozen + picklable: it rides inside
  :class:`~repro.parallel.worker.WorkerPayload` unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Deadline:
    """An absolute point in monotonic time after which work must stop.

    ``expires_at`` is a ``time.monotonic()`` timestamp, or ``None`` for the
    unbounded deadline (never expires).
    """

    expires_at: float | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def start(cls, seconds: float | None) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` = unbounded)."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    @classmethod
    def unbounded(cls) -> "Deadline":
        """The deadline that never expires."""
        return cls(None)

    @staticmethod
    def tightest(*deadlines: "Deadline | None") -> "Deadline":
        """The earliest of the given deadlines (``None`` entries ignored)."""
        stamps = [
            d.expires_at for d in deadlines
            if d is not None and d.expires_at is not None
        ]
        return Deadline(min(stamps)) if stamps else Deadline(None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def bounded(self) -> bool:
        return self.expires_at is not None

    def expired(self) -> bool:
        """True once the deadline has passed (always False when unbounded)."""
        expires_at = self.expires_at
        return expires_at is not None and time.monotonic() > expires_at

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0.0), or ``None`` when unbounded."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - time.monotonic())

    def clamp_seconds(self, seconds: float | None) -> float | None:
        """Clamp a relative budget to what this deadline still allows.

        Used where a layer speaks relative seconds (e.g. a quota tier's
        ``time_limit``) but an absolute deadline is already in force.
        """
        remaining = self.remaining()
        if remaining is None:
            return seconds
        if seconds is None:
            return remaining
        return min(seconds, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.expires_at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
