"""Parallel fabric — serial-vs-parallel speedup.

Benchmarks a sharded chaos campaign, the largest consumer of
:meth:`repro.parallel.WorkerPool.map_stream`, at ``workers=4`` against
its serial twin, recording the measured speedup in ``extra_info`` so
the BENCH trajectory tracks it.  (The exhaustive register search is
serial: at ~50 ms for depth 2 it measured slower on a pool.)

The benchmark *also* asserts bit-identical results between the serial
and parallel runs — a speedup that changed an answer is a bug, not a
win.  Speedups are honest measurements on the current machine
(``cpu_count`` is recorded): on a single-core box the parallel run is
expected to be *slower* than serial and the recorded speedup < 1; the
≥ 2x target is for ≥ 4 hardware threads.
"""

import os
import time

from conftest import record

from repro.chaos import run_campaign
from repro.chaos.targets import default_targets

WORKERS = 4
CAMPAIGN_RUNS = 60


def _best_of(fn, reps: int = 2) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _fingerprints(report):
    return [cx.fingerprint for cx in report.counterexamples]


def test_parallel_campaign_workers4(benchmark):
    """Sharded chaos campaign at workers=4 vs serial, full roster."""
    serial = run_campaign(
        targets=default_targets(), runs=CAMPAIGN_RUNS, master_seed=0
    )
    serial_s = _best_of(
        lambda: run_campaign(
            targets=default_targets(), runs=CAMPAIGN_RUNS, master_seed=0
        ),
        reps=1,
    )
    parallel_s = _best_of(
        lambda: run_campaign(
            targets=default_targets(), runs=CAMPAIGN_RUNS, master_seed=0,
            workers=WORKERS,
        ),
        reps=1,
    )
    report = benchmark(
        lambda: run_campaign(
            targets=default_targets(), runs=CAMPAIGN_RUNS, master_seed=0,
            workers=WORKERS,
        )
    )
    assert report.results == serial.results
    assert _fingerprints(report) == _fingerprints(serial)
    record(
        benchmark,
        workers=WORKERS,
        cpu_count=os.cpu_count(),
        cases=len(report.results),
        counterexamples=len(report.counterexamples),
        serial_s=round(serial_s, 4),
        parallel_s=round(parallel_s, 4),
        speedup=round(serial_s / parallel_s, 3),
        identical_to_serial=True,
    )
