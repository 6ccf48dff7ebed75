"""The benchmark's own tests: seeded inputs, the query-mix oracle, and
the tracing arithmetic and the speed clock.

    python3 -m pytest perfbench -q
"""

import os
import time

import pytest

import run
import tracing
import workloads
from tracing import Span
from workloads import QueryMix

# A small universe and stream keep the oracle and one epoch quick.
SMALL = {"runs_per_kind": 4, "requests": 300}


def _epoch(seed, workdir):
    mix = QueryMix(seed, str(workdir), **SMALL)
    mix.prepare()
    mix.setup()
    return mix, mix.run_round(0)


def test_same_seed_same_stream_and_split(tmp_path):
    first, one = _epoch(7, tmp_path / "a")
    second, two = _epoch(7, tmp_path / "b")
    assert first.stream == second.stream
    assert first.prepopulated == second.prepopulated
    assert first.corrupt == second.corrupt
    split = ("service.store.hits", "service.store.misses",
             "service.store.corrupt", "service.store.puts")
    counts = first.counters()
    assert [counts[k] for k in split] == [second.counters()[k] for k in split]
    assert counts["service.store.corrupt"] > 0
    assert one.failed == two.failed == 0


def test_different_seed_different_stream(tmp_path):
    first = QueryMix(7, str(tmp_path), **SMALL)
    second = QueryMix(8, str(tmp_path), **SMALL)
    first.prepare()
    second.prepare()
    assert first.stream != second.stream
    assert first.prepopulated != second.prepopulated


def test_store_serving_unverified_bytes_fails_ops(tmp_path, monkeypatch):
    """A store that skips the digest check serves the tampered entries;
    the oracle must count those requests as failed, not fast."""
    from repro.service.store import CertificateStore

    monkeypatch.setattr(
        CertificateStore, "_verify_entry", lambda self, entry, key: entry["result"]
    )
    monkeypatch.setattr(workloads, "CORRUPT_SHARE", 0.5)
    mix, result = _epoch(7, tmp_path)
    assert "tamper" in mix.corrupt.values()
    assert result.failed > 0
    assert result.ops == SMALL["requests"]


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),        # overlaps a: the union counts once
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),    # clipped to the root's end
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    table = tracing.aggregate(spans)
    assert table["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}


def test_self_times_of_nested_spans_sum_to_root():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_trace_points_patch_the_caller_binding_and_restore():
    import repro.consensus.lower_bounds as lower_bounds
    from repro.consensus import FloodSet, round_lower_bound_certificate

    original = lower_bounds.run_synchronous
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert lower_bounds.run_synchronous is not original
        cert = round_lower_bound_certificate(
            lambda r: FloodSet(rounds_override=r), n=3, t=1
        )
    assert lower_bounds.run_synchronous is original
    table = tracing.aggregate(recorder.finished())
    runs = table["consensus.run_synchronous"]["calls"]
    assert runs >= cert.details["full_protocol_runs_checked"]
    parents = {
        recorder.spans[span.parent].name
        for span in recorder.finished()
        if span.name == "consensus.run_synchronous"
    }
    assert parents == {"consensus.find_round_bound_violation"}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 99.0
    assert run.tail_percentile(20000) == 99.9
    assert run.tail_percentile(1) == 100.0
    assert run.percentile([3.0, 1.0, 2.0], 100.0) == 3.0
    assert run.percentile(list(range(1, 101)), 99.0) == 99


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(str(tmp_path), "src"))
    code = run.main(["--workload", "certify", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_speed_clock_credits_wall_time_at_the_probed_speed(monkeypatch):
    """A host probed at half the reference speed: a wall second counts
    as half a reference second, and the clock never runs backwards."""
    import speedclock

    monkeypatch.setattr(
        speedclock, "time_probe", lambda: 2 * speedclock.PROBE_REFERENCE_S
    )
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        readings = []
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            readings.append(clock.now())
        wall = time.perf_counter() - start
    finally:
        clock.stop()
    assert readings == sorted(readings)
    assert readings[-1] - readings[0] == pytest.approx(wall / 2, rel=0.05)
    assert clock.summary()["probes"] > 3


def test_speed_clock_credits_each_fsync_at_the_reference_cost(
    tmp_path, monkeypatch
):
    import speedclock

    monkeypatch.setattr(
        speedclock, "time_probe", lambda: speedclock.PROBE_REFERENCE_S
    )
    monkeypatch.setattr(speedclock, "FSYNC_REFERENCE_S", 10.0)
    original = os.fsync
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        before = clock.now()
        with open(tmp_path / "entry", "w") as handle:
            handle.write("x")
            handle.flush()
            os.fsync(handle.fileno())
        after = clock.now()
    finally:
        clock.stop()
    assert os.fsync is original
    assert 10.0 <= after - before < 10.5
    assert clock.summary()["fsyncs"] == 1
