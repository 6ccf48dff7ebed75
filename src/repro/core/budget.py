"""Resource budgets: bounded exploration that degrades gracefully.

Every search in this repository — state-graph expansion, exhaustive
protocol enumeration, adversary-fuzzing campaigns — is in principle
unbounded: the interesting questions live right at the edge of what a
machine can enumerate.  A :class:`Budget` makes the edge explicit.  It
caps three resources:

* ``max_steps`` — simulation steps / candidate checks / campaign runs;
* ``max_states`` — distinct states a graph exploration may discover;
* ``max_seconds`` — wall-clock time.

A budget is an immutable *policy*; calling :meth:`Budget.meter` starts a
:class:`BudgetMeter` — the mutable *account* a single activity charges
against.  When a charge overdraws the account the meter raises
:class:`BudgetExceeded`, and every budget-aware consumer is written so
that the abort is **graceful and resumable**: explorations return a
partial result whose shared frontier picks up exactly where the budget
ran out (see :func:`repro.core.exploration.explore`), exhaustive searches
return a census with a resume cursor, and chaos campaigns return a
partial report carrying per-target resume indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import SearchBudgetExceeded


class BudgetExceeded(SearchBudgetExceeded):
    """A budgeted activity overdrew one of its capped resources.

    Carries which ``resource`` overflowed (``"steps"``, ``"states"`` or
    ``"seconds"``), how much was ``spent`` and what the ``limit`` was, so
    callers can report the abort structurally instead of parsing a
    message.  Subclasses :class:`SearchBudgetExceeded`, so existing
    ``except SearchBudgetExceeded`` handlers keep working.
    """

    def __init__(self, resource: str, spent, limit, context: str = ""):
        self.resource = resource
        self.spent = spent
        self.limit = limit
        self.context = context
        where = f" in {context}" if context else ""
        super().__init__(
            f"budget exceeded{where}: {resource} spent {spent} > limit {limit}"
        )


@dataclass(frozen=True)
class Budget:
    """An immutable cap on steps, states and wall-clock seconds.

    ``None`` means "unlimited" for that resource; ``Budget()`` is the
    unlimited budget (a meter on it never raises).
    """

    max_steps: Optional[int] = None
    max_states: Optional[int] = None
    max_seconds: Optional[float] = None

    @property
    def unlimited(self) -> bool:
        return (
            self.max_steps is None
            and self.max_states is None
            and self.max_seconds is None
        )

    def meter(self, context: str = "") -> "BudgetMeter":
        """Open a fresh account against this budget."""
        return BudgetMeter(self, context)


class BudgetMeter:
    """The running account of one budgeted activity.

    Consumers call :meth:`charge_steps` / :meth:`charge_states` as they
    work and :meth:`check_time` at loop heads; any of the three raises
    :class:`BudgetExceeded` on overdraft.  The clock starts when the
    meter is created.
    """

    __slots__ = ("budget", "context", "steps", "states", "_started")

    def __init__(self, budget: Budget, context: str = ""):
        self.budget = budget
        self.context = context
        self.steps = 0
        self.states = 0
        self._started = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def check_time(self) -> None:
        limit = self.budget.max_seconds
        if limit is not None and self.elapsed > limit:
            raise BudgetExceeded(
                "seconds", round(self.elapsed, 3), limit, self.context
            )

    def charge_steps(self, k: int = 1) -> None:
        self.steps += k
        limit = self.budget.max_steps
        if limit is not None and self.steps > limit:
            raise BudgetExceeded("steps", self.steps, limit, self.context)
        self.check_time()

    def charge_states(self, k: int = 1) -> None:
        self.states += k
        limit = self.budget.max_states
        if limit is not None and self.states > limit:
            raise BudgetExceeded("states", self.states, limit, self.context)
        self.check_time()

    def snapshot(self) -> Dict[str, float]:
        """What has been spent so far (for reports and partial results)."""
        return {
            "steps": self.steps,
            "states": self.states,
            "seconds": round(self.elapsed, 3),
        }

    def throughput(self) -> Dict[str, float]:
        """Spend *rates* since the meter opened (steps/s, states/s).

        The accounting behind "cases per second" in mega-campaign reports
        and the BENCH trajectory: a campaign charges one step per case,
        so the campaign meter's step rate *is* campaign throughput.  The
        clock always runs (not only under a wall-clock cap), so any meter
        doubles as a throughput probe.
        """
        dt = self.elapsed
        if dt <= 0:
            return {"steps_per_s": 0.0, "states_per_s": 0.0, "seconds": 0.0}
        return {
            "steps_per_s": round(self.steps / dt, 3),
            "states_per_s": round(self.states / dt, 3),
            "seconds": round(dt, 3),
        }


class TandemMeter:
    """Charge several meters as one (campaign account + a run's own cap).

    Only the stepping interface — exactly what the simulators use.  Any
    member's overdraft raises that member's structured
    :class:`BudgetExceeded`.
    """

    def __init__(self, *meters: Optional[BudgetMeter]):
        self.meters = [m for m in meters if m is not None]

    def charge_steps(self, k: int = 1) -> None:
        for m in self.meters:
            m.charge_steps(k)
