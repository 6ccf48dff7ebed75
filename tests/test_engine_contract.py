"""The engine contract, checked the same way for every circumvention engine.

Every ``run_*`` engine takes ``(atoms, seed, ..., meter=, budget=,
resume=)`` and honours one budget convention:

* a ``budget=`` overdraft returns a partial run (``complete=False``)
  whose ``resume`` handle finishes it, and the finished trace is
  byte-identical to an uninterrupted run;
* a completed run is not resumable (``ValueError``);
* an overdraft on an external ``meter=`` raises the structured
  :class:`~repro.core.budget.BudgetExceeded`;
* a completed trace carries a replayer that reproduces it.
"""

import pytest

from repro.circumvention import (
    blackout_atoms,
    run_ben_or_traced,
    run_gst_consensus,
    run_heartbeat_detector,
    run_quorum_lease,
    run_rotating_consensus,
)
from repro.core.budget import Budget, BudgetExceeded

#: name -> (engine, atoms, seed, keyword parameters); every schedule runs
#: well past the small step budgets below.
ENGINES = {
    "rotating-consensus": (
        run_rotating_consensus,
        tuple(("suspect", r, p) for r in range(4) for p in range(3)),
        0,
        {},
    ),
    "gst-consensus": (run_gst_consensus, blackout_atoms(5, 4), 0, {"t": 1}),
    "heartbeat-detector": (
        run_heartbeat_detector,
        tuple(("split", t, 0b1100) for t in range(3, 9)) + (("down", 6, 3),),
        0,
        {},
    ),
    "quorum-lease": (
        run_quorum_lease,
        tuple(("split", t, 0b1100) for t in range(6, 12)),
        0,
        {},
    ),
    "ben-or": (
        run_ben_or_traced,
        (3, 1, 4, 1, 5, 9, 2, 6, ("crash", 5, 2)),
        0,
        {"t": 1, "inputs": (0, 1, 0, 1)},
    ),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    return ENGINES[request.param]


def test_budget_overdraft_resumes_to_the_uninterrupted_trace(engine):
    run, atoms, seed, params = engine
    full = run(atoms, seed, **params)
    assert full.complete
    partial = run(atoms, seed, budget=Budget(max_steps=6), **params)
    assert not partial.complete
    assert isinstance(partial.interrupted, BudgetExceeded)
    assert partial.trace.replayer is None
    resumed = run(atoms, seed, resume=partial, **params)
    assert resumed.complete
    assert resumed.trace.fingerprint() == full.trace.fingerprint()


def test_completed_run_is_not_resumable(engine):
    run, atoms, seed, params = engine
    full = run(atoms, seed, **params)
    with pytest.raises(ValueError):
        run(atoms, seed, resume=full, **params)


def test_external_meter_overdraft_raises(engine):
    run, atoms, seed, params = engine
    with pytest.raises(BudgetExceeded):
        run(atoms, seed, meter=Budget(max_steps=5).meter(), **params)


def test_completed_trace_replays_to_itself(engine):
    run, atoms, seed, params = engine
    trace = run(atoms, seed, **params).trace
    assert trace.replayer is not None
    assert trace.replayer().fingerprint() == trace.fingerprint()
