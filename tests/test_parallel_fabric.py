"""The parallel fabric's headline guarantee: workers never change answers.

:meth:`repro.parallel.WorkerPool.map_stream` is the one parallel
primitive; its consumers — chaos campaigns here, the Ben-Or
``expected_rounds`` sweep in ``test_benor.py`` and the query service's
batched misses in ``test_service_query.py`` — must produce results
*bit-identical* to their serial twins, including under budget
overdrafts and across resume boundaries.  Hypothesis drives the
campaign equivalence over seeds, shard widths and roster subsets; a
fixed-seed test pins the budget and resume path; a subprocess test
proves the whole pipeline is independent of ``PYTHONHASHSEED``.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import run_campaign
from repro.chaos.targets import (
    AlternatingBitTarget,
    FloodSetCrashTarget,
    LCRRingTarget,
    default_targets,
)
from repro.core.budget import Budget
from repro.parallel import WorkerPool, resolve_workers


def _campaign_summary(report):
    return (
        report.results,
        [cx.fingerprint for cx in report.counterexamples],
        [cx.trace.fingerprint() for cx in report.counterexamples],
        report.complete,
        report.resume_at,
    )


# ---------------------------------------------------------------------------
# Primitives


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers("auto") >= 1
    assert resolve_workers("2") == 2
    assert resolve_workers("0") == 1
    with pytest.raises(ValueError):
        resolve_workers(-2)
    with pytest.raises(ValueError):
        resolve_workers("abc")


def test_worker_pool_serial_fallback_runs_in_process():
    seen = []

    def record(item):  # a closure: it could not be pickled to a worker
        seen.append(item)
        return len(item)

    with WorkerPool(1) as pool:
        assert list(pool.map_stream(record, [(1, 2), (3,), ()])) == [
            ((1, 2), 2), ((3,), 1), ((), 0),
        ]
    assert seen == [(1, 2), (3,), ()]  # workers=1 never leaves the parent


# ---------------------------------------------------------------------------
# Sharded campaigns == serial campaigns


@settings(max_examples=6, deadline=None)
@given(
    master_seed=st.integers(0, 2**16),
    runs=st.integers(1, 5),
    workers=st.integers(2, 4),
    roster=st.sampled_from(
        [
            (FloodSetCrashTarget,),
            (AlternatingBitTarget, LCRRingTarget),
            (FloodSetCrashTarget, AlternatingBitTarget),
        ]
    ),
)
def test_campaign_equivalence(master_seed, runs, workers, roster):
    targets = [cls() for cls in roster]
    serial = run_campaign(
        targets=targets, runs=runs, master_seed=master_seed, shrink_checks=8
    )
    sharded = run_campaign(
        targets=[cls() for cls in roster],
        runs=runs,
        master_seed=master_seed,
        shrink_checks=8,
        workers=workers,
    )
    assert _campaign_summary(sharded) == _campaign_summary(serial)


def test_campaign_budget_fanin_and_resume_match_serial():
    """Overdraft mid-campaign, then resume — both legs identical."""
    roster = lambda: default_targets()[:3]  # noqa: E731
    budget = Budget(max_steps=7)
    serial = run_campaign(targets=roster(), runs=4, master_seed=1, budget=budget)
    sharded = run_campaign(
        targets=roster(), runs=4, master_seed=1, budget=budget, workers=3
    )
    assert not serial.complete and serial.resume_at
    assert _campaign_summary(sharded) == _campaign_summary(serial)

    serial_rest = run_campaign(
        targets=roster(), runs=4, master_seed=1, resume=serial
    )
    sharded_rest = run_campaign(
        targets=roster(), runs=4, master_seed=1, resume=sharded, workers=2
    )
    assert serial_rest.complete
    assert _campaign_summary(sharded_rest) == _campaign_summary(serial_rest)


# ---------------------------------------------------------------------------
# PYTHONHASHSEED hardening

_HASHSEED_PROBE = """\
import json
from repro.chaos.campaign import run_campaign
from repro.chaos.targets import FloodSetCrashTarget, LCRRingTarget

report = run_campaign(
    targets=[FloodSetCrashTarget(), LCRRingTarget()],
    runs=6, master_seed=0, shrink_checks=16, workers=2,
)
print(json.dumps({
    "verdicts": [r.verdict for r in report.results],
    "seeds": [r.seed for r in report.results],
    "counterexamples": [cx.trace.fingerprint() for cx in report.counterexamples],
}, sort_keys=True))
"""


def test_campaign_independent_of_pythonhashseed(tmp_path):
    """The same sharded campaign under three hash seeds, three processes.

    ``derive_seed`` is sha256-based and every ordering the fabric relies
    on is explicit, so set-iteration scrambling from a different
    ``PYTHONHASHSEED`` must not leak into verdicts, seeds or artifacts.
    """
    import os

    outputs = set()
    for hashseed in ("0", "1", "31337"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, "campaign output varies with PYTHONHASHSEED"
