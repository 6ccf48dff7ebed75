"""Span tracing for the traced benchmark run.

The traced run wraps the public functions of each layer *where their
callers look them up* (a module global for a function bound at import,
the class attribute for a method) and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
written out once, when the run ends.  Nothing under ``src/`` changes:
the wrappers are installed by :func:`installed` and removed on exit,
and they are never active in a run that produces end-to-end numbers.

Self time is a span's duration minus the part of its interval that its
child spans cover; :func:`self_times` computes it and
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: The span every benchmark op is wrapped in; its self time is the time
#: spent outside every instrumented layer.
OP_SPAN = "perfbench.op"

#: The one span whose return value is also counted (its candidates).
REGISTER_SEARCH = "registers.search_register_consensus"

_CIRCUMVENTION_ENGINES = (
    ("repro.circumvention.detectors", "run_heartbeat_detector"),
    ("repro.circumvention.leases", "run_quorum_lease"),
    ("repro.circumvention.randomized", "run_ben_or_traced"),
    ("repro.circumvention.gst", "run_gst_consensus"),
)

#: (module, attribute path, span name, how to wrap).  Each entry names the
#: binding a caller actually resolves: ``lower_bounds`` binds
#: ``run_synchronous`` at import, so the patch goes on
#: ``repro.consensus.lower_bounds``; the service imports the engines
#: lazily from their defining modules, while the chaos roster binds them
#: at import — so both bindings are patched.
TRACE_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.shared_memory.lower_bounds", "search_two_process_protocols",
     "shared_memory.search_two_process_protocols", "call"),
    ("repro.shared_memory.lower_bounds", "check_candidate",
     "shared_memory.check_candidate", "call"),
    ("repro.shared_memory.mutex.base", "MutexSystem.check_mutual_exclusion",
     "shared_memory.MutexSystem.check", "call"),
    ("repro.shared_memory.mutex.base", "MutexSystem.check_deadlock_freedom",
     "shared_memory.MutexSystem.check", "call"),
    ("repro.shared_memory.mutex.base", "MutexSystem.check_lockout_freedom",
     "shared_memory.MutexSystem.check", "call"),
    ("repro.consensus.lower_bounds", "find_round_bound_violation",
     "consensus.find_round_bound_violation", "call"),
    ("repro.consensus.lower_bounds", "run_synchronous",
     "consensus.run_synchronous", "call"),
    ("repro.asynchronous.flp", "flp_analysis",
     "asynchronous.flp_analysis", "call"),
    ("repro.impossibility.bivalence", "ValencyAnalyzer.valency",
     "impossibility.ValencyAnalyzer", "call"),
    ("repro.impossibility.bivalence", "ValencyAnalyzer.classify_initial",
     "impossibility.ValencyAnalyzer", "call"),
    ("repro.impossibility.bivalence", "ValencyAnalyzer.find_agreement_violation",
     "impossibility.ValencyAnalyzer", "call"),
    # A class-level alias of find_agreement_violation, bound separately.
    ("repro.impossibility.bivalence", "ValencyAnalyzer.find_disagreement",
     "impossibility.ValencyAnalyzer", "call"),
    ("repro.registers.exhaustive", "search_register_consensus",
     REGISTER_SEARCH, "call"),
    *(
        (module, name, "circumvention.engines", "call")
        for module, name in _CIRCUMVENTION_ENGINES
    ),
    *(
        ("repro.chaos.circumvention_targets", name, "circumvention.engines",
         "call")
        for _module, name in _CIRCUMVENTION_ENGINES
    ),
    ("repro.service.keys", "QueryKey.fingerprint",
     "service.QueryKey.fingerprint", "call"),
    ("repro.service.store", "CertificateStore.get",
     "service.CertificateStore.get", "call"),
    ("repro.service.store", "CertificateStore.put",
     "service.CertificateStore.put", "call"),
    ("repro.chaos.campaign", "CampaignFold.fold",
     "chaos.CampaignFold.fold", "call"),
    ("repro.chaos.campaign", "shrink_schedule",
     "chaos.shrink_schedule", "call"),
    ("repro.chaos.corpus", "ScheduleCorpus.add",
     "chaos.ScheduleCorpus.add", "call"),
    ("repro.parallel.pool", "WorkerPool.map_stream",
     "parallel.WorkerPool.map_stream", "generator"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]


class SpanRecorder:
    """In-memory span sink with a stack of open spans (single thread)."""

    def __init__(self):
        self.spans: List[Span] = []
        self.request: Optional[int] = None
        self._stack: List[int] = []
        #: Candidates examined by the register searches, read off their
        #: return values.
        self.register_candidates = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.request)
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")
        self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def finished(self) -> List[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return self.spans

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.finished()):
                handle.write(json.dumps([index, *span]) + "\n")


def _wrap_call(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if name == REGISTER_SEARCH:
            recorder.register_candidates += result.candidates
        return result

    return traced


def _wrap_generator(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    """One span per ``next()``: the time the consumer waits for an item."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = recorder.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(index)
                yield item
        finally:
            inner.close()

    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every trace point for the duration of the block."""
    originals = []
    try:
        for module_name, path, name, how in TRACE_POINTS:
            owner, attr = _resolve(module_name, path)
            # vars(): a method's own function, not a bound or inherited one.
            original = vars(owner)[attr]
            wrap = _wrap_generator if how == "generator" else _wrap_call
            originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name, recorder))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), never below zero."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, (span.end - span.start) - covered))
    return out


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return table


def _mean(row: Dict[str, float], scale: float) -> float:
    if not row["calls"]:
        return 0.0
    return row["total_s"] / row["calls"] * scale


def layer_metrics(
    spans: Sequence[Span],
    counters: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Derive the per-layer metrics from spans plus counted facts.

    ``counters`` carries the counts read off return values and program
    counters (store, service, intern table, campaign reports).
    """
    table = aggregate(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name: str) -> Dict[str, float]:
        return table.get(name, empty)

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in (
        "shared_memory.search_two_process_protocols",
        "shared_memory.MutexSystem.check",
        "consensus.find_round_bound_violation",
        "asynchronous.flp_analysis",
        "impossibility.ValencyAnalyzer",
        REGISTER_SEARCH,
        "circumvention.engines",
        "chaos.CampaignFold.fold",
        "chaos.shrink_schedule",
        OP_SPAN,
    ):
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for name in (
        "shared_memory.check_candidate",
        "consensus.run_synchronous",
        "service.QueryKey.fingerprint",
        "service.CertificateStore.get",
    ):
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
        metrics[f"{name}.mean_us"] = (_mean(row(name), 1e6), "us")
    put = row("service.CertificateStore.put")
    metrics["service.CertificateStore.put.calls"] = (put["calls"], "count")
    metrics["service.CertificateStore.put.mean_ms"] = (_mean(put, 1e3), "ms")
    metrics["chaos.shrink_schedule.calls"] = (
        row("chaos.shrink_schedule")["calls"], "count"
    )
    metrics["chaos.ScheduleCorpus.add.mean_ms"] = (
        _mean(row("chaos.ScheduleCorpus.add"), 1e3), "ms"
    )
    metrics["parallel.WorkerPool.map_stream.wait_s"] = (
        row("parallel.WorkerPool.map_stream")["total_s"], "s"
    )
    for name, unit in COUNTED_METRICS:
        metrics[name] = (counters.get(name, 0), unit)
    return metrics


#: Per-layer metrics read off program counters and return values rather
#: than spans (filled by the workloads).
COUNTED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.freeze.intern_misses", "count"),
    ("core.freeze.intern_hit_rate", "ratio"),
    ("core.freeze.intern_size", "count"),
    ("registers.candidates", "count"),
    ("service.store.hits", "count"),
    ("service.store.misses", "count"),
    ("service.store.corrupt", "count"),
    ("service.store.puts", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.live", "count"),
    ("service.deduped", "count"),
    ("chaos.cases", "count"),
    ("chaos.counterexamples", "count"),
    ("chaos.corpus_added", "count"),
    ("chaos.exemplar_ratio", "ratio"),
)
