"""Impossibility-as-a-service: the query layer over the certificate store.

A :class:`QueryService` answers the repository's standing questions —

* ``flp-analysis`` — which way does this protocol fail FLP (the E6
  dichotomy: agreement violation or crash-blocking)?
* ``valency`` — the valency of the initial configuration for one input
  vector of one protocol;
* ``register-search`` — the exhaustive failure census over the bounded
  register-consensus program class at a given depth;
* ``chaos-campaign`` — a full seeded chaos campaign, counterexamples and
  all;
* ``detector-run``, ``lease-run``, ``benor-run`` and ``gst-run`` — one
  run of a circumvention engine (heartbeat detector, quorum lease,
  Ben-Or, DLS under GST) on one adversary schedule and seed, keyed by
  every engine parameter

— from the :class:`~repro.service.store.CertificateStore` when a
verified entry exists, and by running the live engine on a miss.  The
justification is the repository's determinism invariant: every one of
these results is a pure function of its canonicalized request, so a
stored answer *is* the answer, provided its integrity verifies (the
store's job).  Incomplete results (budget overdrafts) are returned to
the caller but never stored — the store only holds answers, not
progress.

Batching: :meth:`QueryService.submit` returns a shared
:class:`PendingQuery` handle, deduplicating identical in-flight requests
by key fingerprint; :meth:`~QueryService.drain` (or any handle's
``result()``) resolves every pending request at once, checking the store
first and streaming two or more remaining misses through
:meth:`~repro.parallel.pool.WorkerPool.map_stream`, one engine run per
worker, when the service was built with ``workers > 1``.  A single miss
instead threads ``workers`` into the engine itself, so one big chaos
campaign shards internally; every other engine runs serially.  The
service's :class:`~repro.core.budget.Budget` is threaded into every
live fallback that accepts one.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.budget import Budget
from ..parallel.pool import WorkerPool, resolve_workers
from .keys import QueryKey, decode_canonical, encode_canonical
from .store import CertificateStore

# ---------------------------------------------------------------------------
# Key constructors (one per query kind; every default lands in the key)
# ---------------------------------------------------------------------------


def flp_key(protocol: str, n: int = 2, stall_stages: int = 24) -> QueryKey:
    """Key for the full FLP analysis of one candidate protocol."""
    return QueryKey.make(
        "flp-analysis", protocol=protocol, n=n, stall_stages=stall_stages
    )


def valency_key(protocol: str, n: int, inputs: Tuple) -> QueryKey:
    """Key for the valency of one initial configuration."""
    return QueryKey.make("valency", protocol=protocol, n=n, inputs=inputs)


def register_search_key(depth: int = 2) -> QueryKey:
    """Key for the exhaustive register-consensus census at ``depth``."""
    return QueryKey.make("register-search", depth=depth)


def campaign_key(
    targets: Optional[Tuple[str, ...]],
    runs: int = 40,
    master_seed: int = 0,
    shrink: bool = True,
    shrink_checks: int = 256,
) -> QueryKey:
    """Key for one seeded chaos campaign (``targets=None`` = full roster)."""
    return QueryKey.make(
        "chaos-campaign",
        targets=targets,
        runs=runs,
        master_seed=master_seed,
        shrink=shrink,
        shrink_checks=shrink_checks,
    )


def _engine_run_key(kind: str, atoms, seed, params) -> QueryKey:
    """Key for one engine run: every engine parameter except the run
    controls ``meter``/``budget``/``resume``, with defaults filled in
    from the engine's own signature."""
    signature = inspect.signature(_engine(kind))
    signature = signature.replace(parameters=[
        p for p in signature.parameters.values()
        if p.name not in ("meter", "budget", "resume")
    ])
    bound = signature.bind(tuple(atoms), seed, **params)
    bound.apply_defaults()
    return QueryKey.make(kind, **{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in bound.arguments.items()
    })


def detector_run_key(atoms: Tuple = (), seed: int = 0, **params) -> QueryKey:
    """Key for one heartbeat failure-detector run; ``params`` are the
    keywords of :func:`~repro.circumvention.run_heartbeat_detector`."""
    return _engine_run_key("detector-run", atoms, seed, params)


def lease_run_key(atoms: Tuple = (), seed: int = 0, **params) -> QueryKey:
    """Key for one quorum-lease run under a partition schedule; ``params``
    are the keywords of :func:`~repro.circumvention.run_quorum_lease`."""
    return _engine_run_key("lease-run", atoms, seed, params)


def benor_run_key(atoms: Tuple = (), seed: int = 0, **params) -> QueryKey:
    """Key for one Ben-Or randomized-consensus run; ``params`` are the
    keywords of :func:`~repro.circumvention.run_ben_or_traced`."""
    return _engine_run_key("benor-run", atoms, seed, params)


def gst_run_key(atoms: Tuple = (), seed: int = 0, **params) -> QueryKey:
    """Key for one DLS consensus run under a partial-synchrony schedule;
    ``params`` are the keywords of
    :func:`~repro.circumvention.run_gst_consensus`."""
    return _engine_run_key("gst-run", atoms, seed, params)


# ---------------------------------------------------------------------------
# Live handlers (module-level and import-lazy: picklable for the worker
# fan-out, and free of import cycles with the engines they call)
# ---------------------------------------------------------------------------


def _protocol_instance(name: str):
    from ..asynchronous.flp import ALL_CANDIDATES

    registry = {cls.name: cls for cls in ALL_CANDIDATES}
    if name not in registry:
        raise ValueError(
            f"unknown async protocol {name!r}; known: {sorted(registry)}"
        )
    return registry[name]()


def flp_report_payload(report) -> Dict[str, Any]:
    """The JSON-native store payload of an :class:`FLPReport`."""
    return {
        "protocol": report.protocol_name,
        "n": report.n,
        "failure_mode": report.failure_mode,
        "bivalent_initial_inputs": encode_canonical(
            report.bivalent_initial_inputs
        ),
        "blocking_crash": report.blocking_crash,
        "initial_valencies": [
            [
                encode_canonical(inputs),
                [encode_canonical(v) for v in sorted(valency, key=repr)],
            ]
            for inputs, valency in report.initial_valencies
        ],
        "stall_stages": (
            report.stall.stages if report.stall is not None else None
        ),
        "stall_stayed_bivalent": (
            report.stall.stayed_bivalent if report.stall is not None else None
        ),
    }


def _handle_flp_analysis(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..asynchronous.flp import flp_analysis

    report = flp_analysis(
        _protocol_instance(params["protocol"]),
        n=params.get("n", 2),
        stall_stages=params.get("stall_stages", 24),
    )
    return flp_report_payload(report), True


def _handle_valency(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..asynchronous.network import AsyncConsensusSystem
    from ..impossibility.bivalence import ValencyAnalyzer

    protocol = _protocol_instance(params["protocol"])
    n = params["n"]
    inputs = params["inputs"]
    system = AsyncConsensusSystem(protocol, n)
    analyzer = ValencyAnalyzer(system)
    valency = analyzer.valency(system.configuration_for(inputs))
    payload = {
        "protocol": protocol.name,
        "n": n,
        "inputs": encode_canonical(inputs),
        "valency": [encode_canonical(v) for v in sorted(valency, key=repr)],
        "bivalent": len(valency) >= 2,
    }
    return payload, True


def register_outcome_payload(outcome) -> Dict[str, Any]:
    """The JSON-native store payload of a :class:`RegisterSearchOutcome`."""
    return {
        "depth": outcome.depth,
        "candidates": outcome.candidates,
        "solutions": [encode_canonical(p) for p in outcome.solutions],
        "agreement_failures": outcome.agreement_failures,
        "validity_failures": outcome.validity_failures,
        "wait_freedom_failures": outcome.wait_freedom_failures,
    }


def _handle_register_search(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..registers.exhaustive import search_register_consensus

    outcome = search_register_consensus(
        depth=params.get("depth", 2), budget=budget
    )
    return register_outcome_payload(outcome), outcome.complete


def _handle_chaos_campaign(
    params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    from ..chaos.campaign import report_to_payload, run_campaign
    from ..chaos.targets import target_registry

    names = params.get("targets")
    roster = None
    if names is not None:
        registry = target_registry()
        unknown = [name for name in names if name not in registry]
        if unknown:
            raise ValueError(
                f"unknown chaos targets {unknown}; known: {sorted(registry)}"
            )
        roster = [registry[name] for name in names]
    report = run_campaign(
        targets=roster,
        runs=params.get("runs", 40),
        master_seed=params.get("master_seed", 0),
        shrink=params.get("shrink", True),
        shrink_checks=params.get("shrink_checks", 256),
        budget=budget,
        workers=workers,
    )
    return report_to_payload(report), report.complete


def _detector_payload(run) -> Dict[str, Any]:
    return {
        "trace_fingerprint": run.trace.fingerprint(),
        "leaders": encode_canonical(tuple(sorted(run.leaders.items()))),
        "suspects": encode_canonical(tuple(sorted(run.suspects.items()))),
        "leader_changes": run.leader_changes,
        "last_change": run.last_change,
    }


def _lease_payload(run) -> Dict[str, Any]:
    return {
        "trace_fingerprint": run.trace.fingerprint(),
        "leases": encode_canonical(run.leases),
        "commits": run.commits,
    }


def _benor_payload(run) -> Dict[str, Any]:
    return {
        "trace_fingerprint": run.trace.fingerprint(),
        "decisions": encode_canonical(tuple(sorted(run.decisions.items()))),
        "phases": encode_canonical(tuple(sorted(run.phases.items()))),
        "crashed": encode_canonical(run.crashed),
        "events": run.events,
        "agreement": run.agreement,
        "validity": run.validity,
    }


def _gst_payload(run) -> Dict[str, Any]:
    return {
        "trace_fingerprint": run.trace.fingerprint(),
        "decisions": encode_canonical(tuple(sorted(run.decisions.items()))),
        "rounds": run.rounds,
        "gst": run.gst,
        "crashed": encode_canonical(run.crashed),
    }


#: The engine-run kinds: kind -> (engine module, engine name, payload).
#: The engine is looked up on every use, never bound at import, so a key
#: carries exactly the engine's parameters and defaults, and the service
#: imports no engine before it runs one.
_ENGINE_RUNS = {
    "detector-run": (
        "..circumvention.detectors", "run_heartbeat_detector",
        _detector_payload,
    ),
    "lease-run": (
        "..circumvention.leases", "run_quorum_lease", _lease_payload,
    ),
    "benor-run": (
        "..circumvention.randomized", "run_ben_or_traced", _benor_payload,
    ),
    "gst-run": ("..circumvention.gst", "run_gst_consensus", _gst_payload),
}


def _engine(kind: str):
    module, name, _payload = _ENGINE_RUNS[kind]
    return getattr(importlib.import_module(module, __package__), name)


def _handle_engine_run(
    kind: str, params: Dict[str, Any], budget: Optional[Budget], workers
) -> Tuple[Dict[str, Any], bool]:
    params = dict(params)
    atoms = tuple(params.pop("atoms", ()))
    seed = params.pop("seed", 0)
    run = _engine(kind)(atoms, seed, budget=budget, **params)
    return _ENGINE_RUNS[kind][2](run), run.complete


_HANDLERS = {
    "flp-analysis": _handle_flp_analysis,
    "valency": _handle_valency,
    "register-search": _handle_register_search,
    "chaos-campaign": _handle_chaos_campaign,
    **{kind: partial(_handle_engine_run, kind) for kind in _ENGINE_RUNS},
}

QUERY_KINDS = tuple(_HANDLERS)


_Outcome = Union[Tuple[Dict[str, Any], bool], Exception]


def _run_live(handler, params: Dict[str, Any], budget, workers) -> _Outcome:
    """One live engine run: its ``(payload, complete)`` pair, or the
    exception it raised, returned so that it fails only its own handle."""
    try:
        return handler(params, budget, workers)
    except Exception as error:
        return error


def _compute_live(args: Tuple) -> _Outcome:
    """Worker-side body of one miss: recompute from the key description.

    Workers receive only the JSON-native key description plus the budget
    policy (both picklable); the key rebuilds exactly (fingerprints are
    content addresses) and the engine runs serially inside the worker —
    the fan-out itself is the parallelism.
    """
    description, budget = args
    key = QueryKey.from_description(description)
    handler = _HANDLERS.get(key.kind)
    if handler is None:
        raise ValueError(
            f"unknown query kind {key.kind!r}; known: {sorted(_HANDLERS)}"
        )
    return _run_live(handler, key.params_dict(), budget, 1)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """One resolved query: the payload plus where it came from."""

    key: QueryKey
    result: Any
    source: str  # "store" | "live"
    complete: bool = True


class PendingQuery:
    """A shared handle for one submitted (possibly deduplicated) query."""

    __slots__ = ("key", "_service", "_answer", "_error")

    def __init__(self, service: "QueryService", key: QueryKey):
        self.key = key
        self._service = service
        self._answer: Optional[Answer] = None
        self._error: Optional[Exception] = None

    @property
    def done(self) -> bool:
        return self._answer is not None or self._error is not None

    def result(self) -> Answer:
        """The answer, draining the service's pending batch if needed;
        raises the engine's exception if this query's live run failed."""
        if not self.done:
            self._service.drain()
        if self._error is not None:
            raise self._error
        if self._answer is None:
            raise RuntimeError(f"{self.key.kind} query drained unanswered")
        return self._answer


class QueryService:
    """Answer queries from the store; fall back to live engines on miss.

    One service wraps one :class:`CertificateStore` plus a resolution
    policy: an optional :class:`~repro.core.budget.Budget` threaded into
    budget-aware engines, and a ``workers`` count used either to fan
    batched misses out across processes or (for a single miss) passed
    to the engine, where only a chaos campaign uses it.  Counters:
    ``live`` live computations, ``deduped`` submissions coalesced onto
    an in-flight handle; store hits/misses live on ``store.stats``.
    """

    def __init__(
        self,
        store: CertificateStore,
        budget: Optional[Budget] = None,
        workers=1,
    ):
        self.store = store
        self.budget = budget
        self.workers = workers
        self.live = 0
        self.deduped = 0
        self._pending: Dict[str, PendingQuery] = {}

    # -- batch surface ---------------------------------------------------

    def submit(self, key: QueryKey) -> PendingQuery:
        """Enqueue ``key``; identical in-flight requests share one handle."""
        if key.kind not in _HANDLERS:
            raise ValueError(
                f"unknown query kind {key.kind!r}; known: {sorted(_HANDLERS)}"
            )
        fingerprint = key.fingerprint()
        pending = self._pending.get(fingerprint)
        if pending is not None:
            self.deduped += 1
            return pending
        pending = PendingQuery(self, key)
        self._pending[fingerprint] = pending
        return pending

    def drain(self) -> None:
        """Resolve every pending query: store pass, then live fan-out."""
        pending = [p for p in self._pending.values() if not p.done]
        self._pending.clear()
        if not pending:
            return
        misses: List[PendingQuery] = []
        for handle in pending:
            cached = self.store.get(handle.key)
            if cached is not None:
                handle._answer = Answer(handle.key, cached, "store")
            else:
                misses.append(handle)
        if not misses:
            return
        nworkers = resolve_workers(self.workers)
        if nworkers > 1 and len(misses) > 1:
            # Many misses: one engine run per worker, serial inside.
            with WorkerPool(nworkers) as pool:
                outcomes = [
                    outcome
                    for _args, outcome in pool.map_stream(
                        _compute_live,
                        [(h.key.describe(), self.budget) for h in misses],
                    )
                ]
        else:
            # Single miss (or serial service): let the engine itself
            # use the configured workers.
            outcomes = [
                _run_live(
                    _HANDLERS[h.key.kind], h.key.params_dict(), self.budget,
                    self.workers,
                )
                for h in misses
            ]
        for handle, outcome in zip(misses, outcomes):
            if isinstance(outcome, Exception):
                handle._error = outcome
                continue
            payload, complete = outcome
            self.live += 1
            if complete:
                self.store.put(handle.key, payload)
            handle._answer = Answer(handle.key, payload, "live", complete)

    def resolve_many(self, keys: Sequence[QueryKey]) -> List[Answer]:
        """Resolve a batch; answers come back in input order."""
        handles = [self.submit(key) for key in keys]
        self.drain()
        return [handle.result() for handle in handles]

    def resolve(self, key: QueryKey) -> Answer:
        """Resolve one query (store hit or live fallback)."""
        return self.resolve_many([key])[0]

    # -- accounting -------------------------------------------------------

    @property
    def stats(self) -> Dict[str, Any]:
        return {
            "store": self.store.stats,
            "live": self.live,
            "deduped": self.deduped,
        }


# ---------------------------------------------------------------------------
# Payload -> domain-object rebuilders (used by the store-backed
# certificate constructors and the chaos CLI)
# ---------------------------------------------------------------------------


def certificate_from_flp_payload(payload: Dict[str, Any]):
    """An :class:`ImpossibilityCertificate` from a stored FLP payload.

    Both the hit and the miss path of a store-backed
    :func:`~repro.asynchronous.flp.flp_certificate` build their
    certificate through this function, so the two are field-identical.
    """
    from ..impossibility.certificate import ImpossibilityCertificate

    protocol = payload["protocol"]
    n = payload["n"]
    return ImpossibilityCertificate(
        claim=(
            f"{protocol} is not a 1-resilient asynchronous consensus "
            f"protocol for n={n}"
        ),
        scope=(
            "deterministic finite-state protocol; exhaustive valency over "
            "all schedules from all binary inputs"
        ),
        technique="bivalence",
        details={
            "failure_mode": payload["failure_mode"],
            "bivalent_initial_inputs": decode_canonical(
                payload["bivalent_initial_inputs"]
            ),
            "initial_valencies": [
                (
                    list(decode_canonical(inputs)),
                    [decode_canonical(v) for v in valency],
                )
                for inputs, valency in payload["initial_valencies"]
            ],
            "stall_stages": payload["stall_stages"],
            "stall_stayed_bivalent": payload["stall_stayed_bivalent"],
        },
    )


def certificate_from_register_payload(payload: Dict[str, Any]):
    """An :class:`ImpossibilityCertificate` from a register-search payload."""
    from ..core.errors import ModelError
    from ..impossibility.certificate import ImpossibilityCertificate

    solutions = payload["solutions"]
    if solutions:
        raise ModelError(
            f"found {len(solutions)} register consensus programs — "
            "the impossibility claim fails for this class"
        )
    depth = payload["depth"]
    return ImpossibilityCertificate(
        claim=(
            "no symmetric 2-process wait-free consensus protocol exists "
            "over one binary single-writer register per process with at "
            f"most {depth} accesses"
        ),
        scope=(
            f"decision-tree programs, depth <= {depth}, exhaustive over "
            f"{payload['candidates']} candidates"
        ),
        technique="bivalence / exhaustive model checking",
        candidates_checked=payload["candidates"],
        details={
            "agreement_failures": payload["agreement_failures"],
            "validity_failures": payload["validity_failures"],
            "wait_freedom_failures": payload["wait_freedom_failures"],
        },
    )


def run_campaign_cached(
    store: CertificateStore,
    targets=None,
    runs: int = 40,
    master_seed: int = 0,
    shrink: bool = True,
    shrink_checks: int = 256,
    budget: Optional[Budget] = None,
    workers=1,
):
    """A chaos campaign answered from ``store`` when possible.

    Returns ``(report, source)`` with ``source`` ``"store"`` or
    ``"live"``.  The report reconstructed from a store hit is
    field-identical to the one the original campaign returned — same
    verdicts, same counterexamples, same trace fingerprints — so
    downstream artifact writing produces byte-identical files.
    Incomplete (budget-interrupted) campaigns are returned but not
    cached.
    """
    from ..chaos.campaign import report_from_payload

    names = (
        tuple(target.name for target in targets)
        if targets is not None
        else None
    )
    key = campaign_key(names, runs, master_seed, shrink, shrink_checks)
    service = QueryService(store, budget=budget, workers=workers)
    answer = service.resolve(key)
    return report_from_payload(answer.result), answer.source
