"""The benchmark's three workloads, each a closed loop with one client.

Every workload is built from ``--seed`` alone and exposes the same
steps, which ``run.py`` drives:

* ``prepare()`` — checker-side work outside every timed number (the
  query-mix oracle);
* ``setup()`` — the user-visible set-up, repeated so its median can be
  reported;
* ``run_round(index, recorder)`` — one unit of timed work (a
  certification pass, a query epoch, a campaign), checked as it goes
  and timed with the workload's ``clock`` (wall seconds unless the
  caller passes another, as the end-to-end run does);
* ``warmup_rounds`` — how many rounds run untimed, but checked, before
  the timed ones;
* ``verify()`` — checks that need work outside the timed phase (the
  chaos reference runs);
* ``counters()`` — program counters read after the last round, for the
  traced run's per-layer metrics.

Why these three: ``certify`` spends nearly all its time in
``shared_memory`` and ``consensus`` and touches no store, chaos or
pool; ``query-mix`` puts verified store reads beside live engine runs
and fsync'd writes; ``chaos-sweep`` is the one workload where the
parallel fabric and the store's write path (corpus puts) matter.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.asynchronous.flp import ALL_CANDIDATES, flp_certificate
from repro.chaos import generators
from repro.chaos.campaign import (
    BUDGET_EXCEEDED,
    CRASH,
    VIOLATION,
    report_to_payload,
    run_campaign,
)
from repro.chaos.targets import default_targets
from repro.consensus import FloodSet, round_lower_bound_certificate
from repro.core.freeze import clear_intern_table, intern_table_stats
from repro.core.runtime import derive_seed
from repro.core.stategraph import clear_state_graphs
from repro.registers.exhaustive import register_consensus_certificate
from repro.service import (
    CertificateStore,
    QueryKey,
    QueryService,
    benor_run_key,
    campaign_key,
    detector_run_key,
    flp_key,
    gst_run_key,
    lease_run_key,
    payload_fingerprint,
    register_search_key,
    valency_key,
)
from repro.shared_memory.lower_bounds import cremers_hibbard_certificate

from tracing import OP_SPAN, SpanRecorder

#: Popularity exponent of the query-mix stream (rank r has weight 1/r**s).
ZIPF_S = 1.0

#: The query-mix stream is cut into this many phases, each with its own
#: seeded order of popularity: keys cost differently even within a
#: stratum (a Ben-Or run's trace length depends on its atoms), so with
#: one order per stream the seed alone moved an epoch's cost by 13%.
POPULARITY_PHASES = 10

#: Share of the pre-populated query-mix entries that set-up corrupts.
CORRUPT_SHARE = 0.05


@dataclass
class RoundResult:
    """What one round did: ops, failures, and the timed-phase clock."""

    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


@contextlib.contextmanager
def _op(recorder: Optional[SpanRecorder], request: int):
    """The root span of one op (a no-op when tracing is off)."""
    if recorder is None:
        yield
        return
    recorder.request = request
    with recorder.span(OP_SPAN):
        yield


def _cold_start() -> None:
    """Drop the two process-global caches that would warm later rounds."""
    clear_intern_table()
    clear_state_graphs()


def _intern_counters() -> Dict[str, float]:
    stats = intern_table_stats()
    return {
        "core.freeze.intern_misses": stats["misses"],
        "core.freeze.intern_hit_rate": stats["hit_rate"],
        "core.freeze.intern_size": stats["size"],
    }


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _expect(cert, **pinned) -> List[str]:
    """Compare certificate fields against pinned numbers."""
    seen = {
        "candidates_checked": cert.candidates_checked,
        "witnesses": len(cert.witnesses),
        **cert.details,
    }
    return [
        f"{name}={seen.get(name)!r}, expected {value!r}"
        for name, value in pinned.items()
        if seen.get(name) != value
    ]


def _floodset(rounds):
    return FloodSet(rounds_override=rounds)


def certify_roster() -> List[Tuple[str, Callable[[], Any], Dict[str, Any]]]:
    """The eight exhaustive-search certificates with their pinned numbers."""
    modes = {
        "wait-for-all": "blocks-under-crash",
        "first-message-wins": "agreement-violation",
        "quorum-vote": "agreement-violation",
    }
    roster = [
        (
            "cremers-hibbard(2,1,asymmetric)",
            lambda: cremers_hibbard_certificate(2, 1, symmetric=False),
            {"candidates_checked": 4096, "fair_solutions": 0,
             "unfair_solutions": 4, "mutual_exclusion_holders": 2016},
        ),
        (
            "cremers-hibbard(2,2,symmetric)",
            lambda: cremers_hibbard_certificate(2, 2, symmetric=True),
            {"candidates_checked": 5184, "fair_solutions": 0,
             "unfair_solutions": 100, "mutual_exclusion_holders": 2478},
        ),
        (
            "round-lower-bound(n=4,t=2)",
            lambda: round_lower_bound_certificate(_floodset, n=4, t=2),
            {"witnesses": 2, "full_protocol_runs_checked": 56848},
        ),
        (
            "round-lower-bound(n=3,t=1)",
            lambda: round_lower_bound_certificate(_floodset, n=3, t=1),
            {"witnesses": 1, "full_protocol_runs_checked": 200},
        ),
    ]
    for protocol in ALL_CANDIDATES:
        roster.append((
            f"flp({protocol.name},n=3)",
            lambda protocol=protocol: flp_certificate(protocol(), n=3),
            {"failure_mode": modes[protocol.name]},
        ))
    roster.append((
        "register-consensus(depth=2)",
        lambda: register_consensus_certificate(depth=2),
        # register_consensus_certificate raises if any solution exists.
        {"candidates_checked": 1124, "agreement_failures": 290,
         "validity_failures": 834, "wait_freedom_failures": 0},
    ))
    return roster


class Certify:
    """One cold pass over the exhaustive-search certificates, no store.

    An op is one certificate; the request a user waits on is the whole
    pass, so the pass is the latency sample.  The seed fixes the order
    of the certificates in the pass.
    """

    name = "certify"
    workers = traced_workers = 1
    # Every pass starts cold by design; there is nothing to warm.
    warmup_rounds = 0

    def __init__(self, seed: int, workdir: str, clock=time.perf_counter):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.roster: List = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        roster = certify_roster()
        random.Random(self.seed).shuffle(roster)
        self.roster = roster

    def run_round(
        self, index: int, recorder: Optional[SpanRecorder] = None
    ) -> RoundResult:
        result = RoundResult()
        _cold_start()
        for op, (label, build, pinned) in enumerate(self.roster):
            start = self.clock()
            try:
                with _op(recorder, op):
                    cert = build()
            except Exception as exc:  # an op that raises is a failed op
                result.busy_s += self.clock() - start
                result.ops += 1
                result.failed += 1
                result.problems.append(f"{label}: raised {exc!r}")
                continue
            result.busy_s += self.clock() - start
            result.ops += 1
            mismatches = _expect(cert, **pinned)
            if mismatches:
                result.failed += 1
                result.problems.extend(f"{label}: {m}" for m in mismatches)
        result.latencies_ms.append(result.busy_s * 1e3)
        return result

    def verify(self) -> Tuple[int, List[str]]:
        return 0, []

    def counters(self) -> Dict[str, float]:
        return _intern_counters()


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------


def build_universe(runs_per_kind: int) -> List[Tuple[str, QueryKey]]:
    """Every key the query stream can ask for, tagged with its stratum.

    A stratum groups keys of like cost (same kind and size), so the
    pre-populated half can be taken per stratum: which keys miss then
    depends on the seed, but the cost profile of the misses does not.
    All 8 query kinds appear; the circumvention runs draw their atoms
    from the chaos generators.  The universe is the same for every
    seed, so a seed moves which questions are hot, stored or corrupt,
    not what the questions cost.
    """
    rng = random.Random(derive_seed(0, "perfbench-universe"))
    universe: List[Tuple[str, QueryKey]] = []
    for protocol in ALL_CANDIDATES:
        for n in (2, 3):
            for stages in (24, 12):
                universe.append(
                    (f"flp/{protocol.name}/{n}",
                     flp_key(protocol.name, n=n, stall_stages=stages))
                )
            for bits in range(2 ** n):
                inputs = tuple((bits >> i) & 1 for i in range(n))
                universe.append(
                    (f"valency/{protocol.name}/{n}",
                     valency_key(protocol.name, n, inputs))
                )
    for depth in (1, 2):
        universe.append(("register", register_search_key(depth)))
    for target in default_targets():
        for _ in range(2):
            universe.append((
                f"campaign/{target.name}",
                campaign_key(
                    (target.name,), runs=4, master_seed=rng.randrange(2 ** 31)
                ),
            ))
    for _ in range(runs_per_kind):
        universe.append(("detector", detector_run_key(
            generators.random_partition_atoms(rng, n=4, horizon=16),
            seed=rng.randrange(2 ** 31),
        )))
        universe.append(("lease", lease_run_key(
            generators.random_partition_atoms(rng, n=4, horizon=48),
            seed=rng.randrange(2 ** 31),
        )))
        universe.append(("benor", benor_run_key(
            generators.random_benor_atoms(rng, n=4, t=1),
            seed=rng.randrange(2 ** 31),
        )))
        universe.append(("gst", gst_run_key(
            generators.random_gst_atoms(rng, n=4, max_gst=12),
            seed=rng.randrange(2 ** 31),
        )))
    return universe


def build_stream(
    seed: int, universe: List[Tuple[str, QueryKey]], requests: int
) -> List[Tuple[int, ...]]:
    """The request stream: universe indices, mostly single keys, some
    batches of 2-4.

    Popularity is Zipf-like within each stratum, over a seeded order of
    its members, while each stratum's share of the traffic is fixed by
    its size: the seed picks which keys are hot, but not which strata.
    The order is drawn afresh for each of ``POPULARITY_PHASES`` equal
    phases of the stream, as a hot set drifts, so an epoch's cost
    depends little on which keys one order made hot.
    """
    rng = random.Random(derive_seed(seed, "perfbench-stream"))
    strata = _strata(universe)
    population = range(len(universe))
    stream = []
    for phase in range(POPULARITY_PHASES):
        weights = [0.0] * len(universe)
        for members in strata.values():
            rng.shuffle(members)
            zipf = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(members))]
            total = sum(zipf)
            for index, weight in zip(members, zipf):
                weights[index] = len(members) * weight / total
        cumulative = list(itertools.accumulate(weights))
        end = requests * (phase + 1) // POPULARITY_PHASES
        while len(stream) < end:
            size = 1 if rng.random() < 0.8 else rng.randint(2, 4)
            stream.append(
                tuple(rng.choices(population, cum_weights=cumulative, k=size))
            )
    return stream


def _strata(universe: List[Tuple[str, QueryKey]]) -> Dict[str, List[int]]:
    """Universe indices grouped by stratum, in a seed-independent order."""
    strata: Dict[str, List[int]] = {}
    for index, (stratum, _key) in enumerate(universe):
        strata.setdefault(stratum, []).append(index)
    return dict(sorted(strata.items()))


def split_prepopulated(
    seed: int, universe: List[Tuple[str, QueryKey]], sizes: List[int]
) -> Tuple[List[int], Dict[int, str]]:
    """A seeded half of every stratum to pre-populate, and a seeded few
    of those to corrupt (``index -> "tamper" | "truncate"``).

    Each stratum's keys are paired by the size of their answers
    (``sizes``, a proxy for what a key costs live and to read back) and
    the seed stores one key of each pair, so the stored and the missing
    halves cost alike.  With a plain random half, the seed alone moved
    an epoch's p99 latency by 13% of its median over ten seeds.
    """
    rng = random.Random(derive_seed(seed, "perfbench-prepopulate"))
    chosen: List[int] = []
    for members in _strata(universe).values():
        ordered = sorted(members, key=lambda index: (sizes[index], index))
        for start in range(0, len(ordered), 2):
            pair = ordered[start:start + 2]
            if len(pair) == 2 or rng.random() < 0.5:
                chosen.append(rng.choice(pair))
    chosen.sort()
    count = max(1, round(CORRUPT_SHARE * len(chosen)))
    corrupt = {
        index: rng.choice(("tamper", "truncate"))
        for index in rng.sample(chosen, count)
    }
    return chosen, corrupt


class _NullStore:
    """A store that holds nothing: every get misses, every put is dropped.

    A :class:`QueryService` over it resolves every request live, which is
    the store-less resolution the query-mix oracle needs.
    """

    def get(self, key):
        return None

    def put(self, key, result):
        return ""


def corrupt_entry(path: str, mode: str) -> None:
    """Damage one stored entry: ``tamper`` keeps valid JSON but changes
    the result (only the digest check can catch it); ``truncate`` cuts
    the file mid-document."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if mode == "tamper":
        entry = json.loads(text)
        entry["result"] = {"tampered": True, "was": entry["result"]}
        text = json.dumps(entry, sort_keys=True)
    else:
        text = text[: len(text) // 2]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def copy_synced(source: str, target: str) -> None:
    """Copy a store directory and flush the copy to disk, as a store
    written long ago would be, so that the kernel's writeback of the copy
    does not land in the timed phase."""
    shutil.copytree(source, target)
    for folder, _dirs, files in os.walk(target):
        for name in files:
            with open(os.path.join(folder, name), "rb") as handle:
                os.fsync(handle.fileno())
        fd = os.open(folder, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class QueryMix:
    """A seeded request stream against ``QueryService.resolve_many``.

    One round is an *epoch*: the stream replayed against a fresh copy of
    the pre-populated store, with engine caches cleared, so every epoch
    sees the same misses (live runs plus fsync'd puts), corrupt entries
    (verify-or-miss) and hits (verified reads).  A store that outlived
    the epoch would turn every key into a hit after one pass and the
    tail would vanish.
    """

    name = "query-mix"
    workers = traced_workers = 1
    # A process's first epoch ran its p99 about 25% above the later ones.
    warmup_rounds = 1

    def __init__(
        self,
        seed: int,
        workdir: str,
        runs_per_kind: int = 64,
        requests: int = 8000,
        clock=time.perf_counter,
    ):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.runs_per_kind = runs_per_kind
        self.requests = requests
        self.universe: List[Tuple[str, QueryKey]] = []
        self.stream: List[Tuple[int, ...]] = []
        self.prepopulated: List[int] = []
        self.corrupt: Dict[int, str] = {}
        #: Per universe index: the live answer's payload fingerprint and
        #: whether it was complete.
        self.oracle: List[Tuple[str, bool]] = []
        self._payloads: Dict[int, Any] = {}
        self._template = os.path.join(workdir, "store-template")
        self._setups = 0
        self._last: Optional[Tuple[CertificateStore, QueryService]] = None

    def _build(self) -> None:
        self.universe = build_universe(self.runs_per_kind)
        self.stream = build_stream(self.seed, self.universe, self.requests)

    def prepare(self) -> None:
        """Store-less live resolution of the whole universe (the oracle),
        and the seeded choice of the keys to store, which pairs keys by
        the size of their answers."""
        self._build()
        service = QueryService(_NullStore())
        payloads = []
        for _stratum, key in self.universe:
            answer = service.resolve(key)
            self.oracle.append(
                (payload_fingerprint(answer.result), answer.complete)
            )
            payloads.append(answer.result)
        sizes = [len(json.dumps(p, sort_keys=True)) for p in payloads]
        self.prepopulated, self.corrupt = split_prepopulated(
            self.seed, self.universe, sizes
        )
        self._payloads = {i: payloads[i] for i in self.prepopulated}

    def setup(self) -> None:
        """Build the key universe and request stream, pre-populate a fresh
        store directory with the chosen half and corrupt a seeded few of
        its entries."""
        self._build()
        self._setups += 1
        root = os.path.join(self.workdir, f"store-setup-{self._setups}")
        store = CertificateStore(root)
        for index in self.prepopulated:
            path = store.put(self.universe[index][1], self._payloads[index])
            if index in self.corrupt:
                corrupt_entry(path, self.corrupt[index])
        if os.path.isdir(self._template):
            shutil.rmtree(self._template)
        os.replace(root, self._template)

    def run_round(
        self, index: int, recorder: Optional[SpanRecorder] = None
    ) -> RoundResult:
        root = os.path.join(self.workdir, f"store-epoch-{index}")
        copy_synced(self._template, root)
        _cold_start()
        store = CertificateStore(root)
        service = QueryService(store)
        result = RoundResult()
        keys = [key for _stratum, key in self.universe]
        for op, request in enumerate(self.stream):
            # Fresh key objects: a key's fingerprint is memoized on the
            # instance, and a real client sends new ones.
            batch = [QueryKey(keys[i].kind, keys[i].params) for i in request]
            start = self.clock()
            try:
                with _op(recorder, op):
                    answers = service.resolve_many(batch)
            except Exception as exc:  # an op that raises is a failed op
                result.busy_s += self.clock() - start
                result.ops += 1
                result.failed += 1
                result.problems.append(f"request {op}: raised {exc!r}")
                continue
            elapsed = self.clock() - start
            result.busy_s += elapsed
            result.latencies_ms.append(elapsed * 1e3)
            result.ops += 1
            wrong = self._check(request, answers)
            if wrong:
                result.failed += 1
                if len(result.problems) < 20:
                    result.problems.append(f"request {op}: {wrong}")
        self._last = (store, service)
        shutil.rmtree(root)
        return result

    def _check(self, request: Tuple[int, ...], answers) -> str:
        """Compare each answer with the oracle entry of its universe
        index (no key is fingerprinted here, so the traced service
        metrics count the program's calls alone)."""
        if len(answers) != len(request):
            return f"{len(answers)} answers for {len(request)} keys"
        for index, answer in zip(request, answers):
            expected, complete = self.oracle[index]
            stratum = self.universe[index][0]
            if complete and not answer.complete:
                return f"{stratum} came back incomplete"
            if payload_fingerprint(answer.result) != expected:
                return f"{stratum} answer differs from the live oracle"
        return ""

    def verify(self) -> Tuple[int, List[str]]:
        return 0, []

    def counters(self) -> Dict[str, float]:
        store, service = self._last
        lookups = store.hits + store.misses
        return {
            **_intern_counters(),
            "service.store.hits": store.hits,
            "service.store.misses": store.misses,
            "service.store.corrupt": store.corrupt,
            "service.store.puts": store.puts,
            "service.hit_ratio": store.hits / lookups if lookups else 0.0,
            "service.live": service.live,
            "service.deduped": service.deduped,
        }


# ---------------------------------------------------------------------------
# chaos-sweep
# ---------------------------------------------------------------------------


class ChaosSweep:
    """Streaming ``run_campaign`` sweeps over the full default roster.

    An op is a case folded; the request a user waits on is one campaign.
    Every round runs the same campaign (``master_seed`` is the seed) into
    a fresh corpus directory, so one reference run checks them all.

    The timed campaigns run serially.  With the pool at 2 workers on a
    2-CPU host both CPUs are busy, so any other load on the host slows
    the sweep: over ten seeds its ``ops_per_s`` spread (0.26 of the
    median) exceeded the benchmark's bound, against 0.14 serially.  The
    traced run, which need not be steady, runs on the pool
    (``traced_workers``) so that ``map_stream``'s wait is a real wait on
    workers.  Either way a reference campaign at the other worker count,
    outside the timed phase, must give the same report byte for byte.
    """

    name = "chaos-sweep"
    runs_per_target = 60
    mutations = 2

    workers = 1
    # A process's first campaign ran about 12% slower than the later ones.
    warmup_rounds = 1

    def __init__(self, seed: int, workdir: str, clock=time.perf_counter):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.traced_workers = min(2, os.cpu_count() or 1)
        self.roster: List = []
        self._reports: List[Tuple[int, Any]] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.roster = default_targets()
        os.makedirs(self.workdir, exist_ok=True)

    def _campaign(self, index: int, workers: int, tag: str):
        corpus = os.path.join(self.workdir, f"corpus-{tag}-{index}")
        try:
            return run_campaign(
                targets=self.roster,
                runs=self.runs_per_target,
                master_seed=self.seed,
                shrink=True,
                corpus=corpus,
                mutations=self.mutations,
                keep_results=False,
                workers=workers,
            )
        finally:
            shutil.rmtree(corpus, ignore_errors=True)

    def run_round(
        self, index: int, recorder: Optional[SpanRecorder] = None
    ) -> RoundResult:
        _cold_start()
        result = RoundResult()
        start = self.clock()
        with _op(recorder, index):
            report = self._campaign(index, self.workers, "timed")
        result.busy_s = self.clock() - start
        result.latencies_ms.append(result.busy_s * 1e3)
        result.ops = report.cases
        self._reports.append((index, report))
        return result

    def verify(self) -> Tuple[int, List[str]]:
        """A reference run at the other worker count (the pool for a
        serial sweep, serial for a pool sweep) plus per-target
        expectations; a mismatch fails every case of the campaign (or
        target) at fault."""
        failed = 0
        problems: List[str] = []
        reference = 1 if self.workers > 1 else self.traced_workers
        expected = payload_fingerprint(report_to_payload(
            self._campaign(0, reference, "reference")
        ))
        for index, report in self._reports:
            if payload_fingerprint(report_to_payload(report)) != expected:
                failed += report.cases
                problems.append(
                    f"campaign {index}: report differs from the "
                    f"workers={reference} run"
                )
                continue
            for target in self.roster:
                bad = self._target_problem(report, target)
                if bad:
                    failed += sum(report.tallies.get(target.name, {}).values())
                    problems.append(f"campaign {index}: {target.name}: {bad}")
        return failed, problems

    @staticmethod
    def _target_problem(report, target) -> str:
        tally = report.tallies.get(target.name, {})
        if getattr(target, "expect_stall", False):
            if not tally.get(BUDGET_EXCEEDED):
                return "stall target never stalled"
            if tally.get(VIOLATION) or tally.get(CRASH):
                return "stall target broke safety or crashed"
        elif target.expect_violation:
            found = report.counterexamples_for(target.name)
            if not found:
                return "planted bug has no counterexample"
            if not all(cx.replay_verified for cx in found):
                return "a counterexample failed its replay check"
        elif tally.get(VIOLATION) or tally.get(CRASH):
            return "honest target violated or crashed"
        return ""

    def counters(self) -> Dict[str, float]:
        _index, report = self._reports[-1]
        violating = sum(
            per.get(VIOLATION, 0) for per in report.tallies.values()
        )
        return {
            **_intern_counters(),
            "chaos.cases": report.cases,
            "chaos.counterexamples": len(report.counterexamples),
            "chaos.corpus_added": report.corpus_added,
            "chaos.exemplar_ratio": (
                len(report.counterexamples) / violating if violating else 0.0
            ),
        }


WORKLOADS = {cls.name: cls for cls in (Certify, QueryMix, ChaosSweep)}
