"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: set-up is repeated and its median reported, then whole rounds
(a certification pass, a query epoch, a campaign) run until the timed
phase has lasted ``--seconds``.  Its times are reference seconds from
``speedclock.py``: wall time corrected for the host's changing speed.  ``--trace 1`` is the separate traced
run: one untraced round, then the same round with the layer wrappers
of ``tracing.py`` installed, reported as per-layer metrics together
with the tracing overhead.  Outputs are checked either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the details (sample counts, the tail percentile, the
environment, any failed checks).
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from speedclock import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3

#: The timed phase runs at least this many rounds.  With times in
#: reference seconds the rounds of a run agree within a few percent
#: (certification passes within 2%), so two suffice, and a third
#: certification pass would cost 17 s in each of the benchmark's runs.
MIN_ROUNDS = 2

#: Candidate tail percentiles, highest chosen that leaves >= 10 samples
#: beyond it in one round.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_BEYOND = 10


def process_age_s() -> Optional[float]:
    """Seconds since this process started, from the kernel's records."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None


# ---------------------------------------------------------------------------
# Memory and environment
# ---------------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark so earlier work cannot set it."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # no reset available: ru_maxrss below still bounds the peak


def peak_rss_mb() -> float:
    """Max of this process's peak RSS and that of its finished children
    (pool workers, once joined)."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024


def git_commit(root: str) -> str:
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def filesystem_of(path: str) -> str:
    """The type of the filesystem mounted under ``path`` (fsync cost
    depends on it)."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1].replace("\\040", " ")
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment(seed: int, workers: int, workdir: str) -> Dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workers": workers,
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "store_and_corpus_filesystem": filesystem_of(workdir),
    }


# ---------------------------------------------------------------------------
# Latency statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with >= 10 of ``samples`` beyond it;
    100 (the maximum) when no ladder percentile has."""
    chosen = 100.0
    for pct in TAIL_LADDER:
        if samples * (1 - pct / 100) >= TAIL_BEYOND:
            chosen = pct
    return chosen


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * pct // 100)
    return ordered[min(len(ordered), max(1, int(rank))) - 1]


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _measure(workload, seconds: float) -> Tuple[List, List, List[float], float]:
    """The workload's untimed warm-up rounds, then whole rounds until the
    timed phase has lasted ``seconds``, and at least ``MIN_ROUNDS`` of
    them; also each timed round's wall time."""
    warmups = [workload.run_round(i) for i in range(workload.warmup_rounds)]
    reset_peak_rss()
    rounds: List = []
    walls: List[float] = []
    busy = 0.0
    while len(rounds) < MIN_ROUNDS or busy < seconds:
        gc.collect()
        start = time.perf_counter()
        result = workload.run_round(len(warmups) + len(rounds))
        walls.append(time.perf_counter() - start)
        rounds.append(result)
        busy += result.busy_s
    return warmups, rounds, walls, peak_rss_mb()


def _end_to_end(rounds, setup_s: float, peak_mb: float) -> Dict:
    """Each rate and latency is taken per round, then the median over
    rounds is reported: every round does identical work, so the median
    sheds rounds that other load on the machine slowed down."""
    per_round = min(len(r.latencies_ms) for r in rounds)
    pct = tail_percentile(per_round)
    rates = [r.ops / r.busy_s for r in rounds]
    p50s = [statistics.median(r.latencies_ms) for r in rounds]
    tails = [percentile(r.latencies_ms, pct) for r in rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "ops/s",
                      "ops": sum(r.ops for r in rounds), "per_round": rates},
        "op_p50_ms": {"value": statistics.median(p50s), "unit": "ms",
                      "samples_per_round": per_round, "per_round": p50s},
        "op_tail_ms": {"value": statistics.median(tails), "unit": "ms",
                       "percentile": pct, "samples_per_round": per_round,
                       "per_round": tails},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _traced(workload, spans_path: str, tracing) -> Tuple[List, Dict, List[str]]:
    """One untraced round, then the same round traced, both at the
    workload's traced worker count."""
    workload.workers = workload.traced_workers
    gc.collect()
    untraced = workload.run_round(0)
    recorder = tracing.SpanRecorder()
    gc.collect()
    start = time.perf_counter()
    with tracing.installed(recorder):
        traced = workload.run_round(0, recorder)
    wall = time.perf_counter() - start
    spans = recorder.finished()
    recorder.write_jsonl(spans_path)
    counters = {
        **workload.counters(),
        "registers.candidates": recorder.register_candidates,
    }
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracing.layer_metrics(spans, counters).items()
    }
    self_sum = sum(tracing.self_times(spans))
    traced_rate = traced.ops / traced.busy_s
    untraced_rate = untraced.ops / untraced.busy_s
    metrics.update({
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.self_sum_s": {"value": self_sum, "unit": "s"},
        "trace.ops_per_s": {"value": traced_rate, "unit": "ops/s"},
        "trace.untraced_ops_per_s": {"value": untraced_rate, "unit": "ops/s"},
        "trace.ops_per_s_ratio": {"value": traced_rate / untraced_rate,
                                  "unit": "ratio"},
    })
    problems = []
    if self_sum > wall:
        problems.append(
            f"self times sum to {self_sum:.6f} s, above the traced wall "
            f"time {wall:.6f} s"
        )
    return [untraced, traced], metrics, problems


def run(args, startup_s: float, workdir: str,
        speed: Optional[SpeedClock]) -> int:
    import tracing
    from workloads import WORKLOADS

    clock = speed.now if speed else time.perf_counter
    workload = WORKLOADS[args.workload](args.seed, workdir, clock=clock)
    workload.prepare()
    samples = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        samples.append(clock() - start)
    setup_s = startup_s + statistics.median(samples)

    problems: List[str] = []
    extra: Dict = {}
    if args.trace:
        spans_path = os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        checked, metrics, problems = _traced(workload, spans_path, tracing)
    else:
        warmups, rounds, walls, peak_mb = _measure(workload, args.seconds)
        speed.stop()
        metrics = _end_to_end(rounds, setup_s, peak_mb)
        checked = warmups + rounds
        extra = {"warmup_rounds": len(warmups), "wall_s_per_round": walls,
                 "speed": speed.summary()}
    # Warm-up rounds are checked like timed ones.
    late_failed, late_problems = workload.verify()
    problems += [p for r in checked for p in r.problems] + late_problems
    attempted = sum(r.ops for r in checked)
    failed = sum(r.failed for r in checked) + late_failed
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "setup_samples_s": samples,
        "startup_s": startup_s,
        "metrics": metrics,
        "environment": environment(args.seed, workload.workers, workdir),
        "problems": problems[:50],
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "query-mix", "chaos-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    # Start-up is the interpreter's own, in wall seconds from process
    # start, plus the imports, on the clock of the run.
    booted = process_age_s() or 0.0
    speed = None if args.trace else SpeedClock()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if speed:
            speed.start()
        clock = speed.now if speed else time.perf_counter
        start = clock()
        sys.path[:0] = [SRC, HERE]
        import repro  # noqa: F401  (start-up: the whole package, as users import it)
        import workloads  # noqa: F401

        startup_s = booted + clock() - start
        os.makedirs(workdir)
        tempfile.tempdir = workdir
        return run(args, startup_s, workdir, speed)
    finally:
        if speed:
            speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
