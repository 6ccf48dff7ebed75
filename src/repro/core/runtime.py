"""The unified simulation runtime: one trace schema, one adversary
interface, seeded determinism for every model.

The survey's power comes from moving one argument across many models —
chain arguments, scenario splicing and valency all *replay executions* of
different substrates.  Historically each substrate in this repository
(synchronous rounds, the FLP asynchronous network, rings, datalink
channels, shared memory, raw I/O-automaton executions) grew a private
adversary hierarchy, a private result type and a private notion of a
trace.  This module is the shared kernel they now all route through:

* :class:`TraceEvent` / :class:`Trace` — the uniform record schema
  ``(step, actor, kind, payload, round, time)`` every substrate emits.
  A :class:`Trace` carries the substrate name, protocol name, seed and
  outcome summary, and has a stable :meth:`~Trace.fingerprint` so
  "byte-identical run" is a checkable proposition.

* :class:`FaultAdversary` — one adversary protocol subsuming the
  crash/omission/Byzantine adversaries of the synchronous model, the
  channel adversaries of the datalink layer, and the schedulers of the
  I/O-automaton and ring simulators.  An adversary owns three optional
  powers: *faults* (``is_faulty`` + ``transform`` over faulty senders'
  messages), *scheduling* (``schedule`` picks which enabled option
  happens next) and *reset* (return to the initial state so a run can be
  replayed).

* :class:`SimulationRuntime` — the per-run kernel: a seeded
  ``random.Random``, a step counter, and the trace recorder.  Every run
  is a deterministic function of ``(protocol, inputs, adversary, seed)``.

* :func:`replay` — the single replay entry point: re-execute the run
  that produced a trace and verify the fresh trace is byte-identical.
  Every impossibility certificate whose evidence is a :class:`Trace` is
  replayable through it.

* :func:`derive_seed` / :func:`spawn_rng` — stable seed derivation
  (independent of ``PYTHONHASHSEED``) for sub-processes and child RNGs.

* :func:`drive` — the one driver loop of the step-wise engines (the
  circumvention layer): budget/resume, meter charging, the replayer and
  :class:`Trace` assembly, written once.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .budget import Budget, BudgetExceeded, BudgetMeter
from .errors import ReproError

# ---------------------------------------------------------------------------
# Canonical event vocabulary
# ---------------------------------------------------------------------------
#
# Substrates map their native happenings onto this shared vocabulary so a
# trace consumer (replayer, counter, indistinguishability check) never needs
# substrate-specific knowledge to read a run.

SEND = "send"          # a message/packet enters a channel or buffer
DELIVER = "deliver"    # a message/packet reaches its destination
DROP = "drop"          # the adversary destroys a buffered message
DUPLICATE = "dup"      # the adversary duplicates a buffered message
CRASH = "crash"        # an endpoint loses state / stops
STEP = "step"          # a process takes a local step
DECIDE = "decide"      # a process irrevocably decides a value
DECLARE = "declare"    # a status declaration (leader / nonleader)
OUTPUT = "output"      # a computed output value
HALT = "halt"          # the run ends

EVENT_KINDS = frozenset(
    {SEND, DELIVER, DROP, DUPLICATE, CRASH, STEP, DECIDE, DECLARE, OUTPUT, HALT}
)


class ReplayError(ReproError):
    """A trace could not be replayed, or the replay diverged."""


class FingerprintMismatch(ReplayError):
    """A recorded fingerprint does not match the recomputed one.

    Structured: ``expected`` is the fingerprint the artifact recorded,
    ``actual`` the one recomputed from its content, and ``context`` names
    the artifact being verified (a reloaded trace, a store entry, a
    packed-graph blob).  Raised by :meth:`Trace.from_jsonl` and reused by
    the certificate store (:mod:`repro.service.store`) — anywhere
    "re-verify on read" fails, the error carries both digests so the
    diagnosis never requires re-running the verifier by hand.
    """

    def __init__(
        self,
        expected: Optional[str],
        actual: Optional[str],
        context: str = "artifact",
    ):
        self.expected = expected
        self.actual = actual
        self.context = context
        super().__init__(
            f"fingerprint mismatch in {context}: recorded {expected!r}, "
            f"recomputed {actual!r} — the content was corrupted, "
            "hand-edited, or encoded unfaithfully"
        )


class ReplayDivergence(ReplayError):
    """A replay produced a different run than the original trace.

    Structured: ``index`` is the position of the first divergent event
    (``None`` when the events all match but the metadata or outcome
    differ), ``expected`` is the original's event at that position and
    ``actual`` the replay's (either may be ``None`` when one run is a
    strict prefix of the other).  Non-determinism escaping the seeded
    RNG is exactly the bug class this error exists to pinpoint.
    """

    def __init__(self, original: "Trace", fresh: "Trace"):
        self.original = original
        self.fresh = fresh
        self.index: Optional[int] = None
        self.expected: Optional[TraceEvent] = None
        self.actual: Optional[TraceEvent] = None
        for i, (a, b) in enumerate(zip(original.events, fresh.events)):
            if a != b:
                self.index, self.expected, self.actual = i, a, b
                break
        else:
            if len(original.events) != len(fresh.events):
                i = min(len(original.events), len(fresh.events))
                self.index = i
                self.expected = (
                    original.events[i] if i < len(original.events) else None
                )
                self.actual = fresh.events[i] if i < len(fresh.events) else None
        if self.index is not None:
            detail = (
                f"first divergence at event {self.index}: "
                f"expected {self.expected!r}, got {self.actual!r}"
            )
        else:
            detail = (
                f"events identical; outcome/metadata diverged: "
                f"expected {(original.substrate, original.protocol, original.seed, original.outcome)!r}, "
                f"got {(fresh.substrate, fresh.protocol, fresh.seed, fresh.outcome)!r}"
            )
        super().__init__(
            f"replay diverged for substrate {original.substrate!r} "
            f"(protocol {original.protocol!r}, seed {original.seed!r}): "
            f"{original.steps} events originally, {fresh.steps} on replay; "
            + detail
        )


# -- JSON-safe payload encoding ---------------------------------------------
#
# Trace payloads are arbitrary hashables built from tuples, frozensets and
# scalars.  JSON has neither tuples nor frozensets, so both are encoded as
# single-key tagged objects and decoded back to the exact original type —
# which is what makes a saved counterexample's fingerprint verifiable.

def _encode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"t": [_encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {"fs": [_encode_value(v) for v in sorted(value, key=repr)]}
    raise TypeError(
        f"cannot serialize trace payload of type {type(value).__name__}: {value!r}"
    )


def _decode_value(value):
    if isinstance(value, dict):
        if set(value) == {"t"}:
            return tuple(_decode_value(v) for v in value["t"])
        if set(value) == {"fs"}:
            return frozenset(_decode_value(v) for v in value["fs"])
        raise ValueError(f"unknown tagged value {value!r}")
    if isinstance(value, list):
        raise ValueError(f"bare JSON array in trace payload: {value!r}")
    return value


class TraceEvent(NamedTuple):
    """One event of a simulation run, in the shared schema.

    ``step`` is the global 0-based sequence number within the run;
    ``actor`` identifies the process/node/endpoint the event belongs to
    (or a distinguished name like ``"channel"``); ``kind`` is one of the
    canonical vocabulary above; ``payload`` is substrate data (message
    contents, decided value, ...); ``round`` is set by round-based
    substrates and ``time`` by timed ones.

    A NamedTuple rather than a dataclass: event construction sits on the
    hot path of every simulator, and tuples are ~3x cheaper to build.
    """

    step: int
    actor: Hashable
    kind: str
    payload: Hashable = None
    round: Optional[int] = None
    time: Optional[float] = None

    def key(self) -> Tuple:
        return tuple(self)


@dataclass
class Trace:
    """A completed run of any substrate, in the uniform schema.

    Equality and :meth:`fingerprint` cover the identity fields only —
    the optional replayer closure is deliberately excluded, so a trace
    and its replay compare equal.
    """

    substrate: str
    protocol: str
    seed: Optional[int]
    events: Tuple[TraceEvent, ...]
    outcome: Tuple[Tuple[str, Hashable], ...] = ()
    replayer: Optional[Callable[[], "Trace"]] = field(
        default=None, compare=False, repr=False
    )

    # -- counters (free for every substrate) ------------------------------

    @property
    def steps(self) -> int:
        return len(self.events)

    @property
    def messages_sent(self) -> int:
        return sum(1 for e in self.events if e.kind == SEND)

    @property
    def messages_delivered(self) -> int:
        return sum(1 for e in self.events if e.kind == DELIVER)

    @property
    def rounds(self) -> int:
        return max((e.round for e in self.events if e.round is not None),
                   default=0)

    # -- projections ------------------------------------------------------

    def events_of(self, *kinds: str) -> Tuple[TraceEvent, ...]:
        wanted = frozenset(kinds)
        return tuple(e for e in self.events if e.kind in wanted)

    def view(self, actor: Hashable) -> Tuple[TraceEvent, ...]:
        """The projection onto one actor — the indistinguishability
        currency: two runs look the same to ``actor`` iff its views are
        equal."""
        return tuple(e for e in self.events if e.actor == actor)

    def outcome_dict(self) -> Dict[str, Hashable]:
        return dict(self.outcome)

    # -- identity ---------------------------------------------------------

    def canonical_bytes(self) -> bytes:
        """A canonical byte encoding of the identity fields."""
        parts = [
            repr((self.substrate, self.protocol, self.seed)),
            repr(self.outcome),
        ]
        parts.extend(repr(e.key()) for e in self.events)
        return "\n".join(parts).encode("utf-8")

    def fingerprint(self) -> str:
        """A stable digest: equal fingerprints <=> byte-identical runs."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    @property
    def replayable(self) -> bool:
        return self.replayer is not None

    # -- serialization ----------------------------------------------------

    JSONL_SCHEMA = "repro-trace/v1"

    def to_jsonl(self) -> str:
        """Serialize to JSON Lines: one header line, then one line per event.

        Payloads built from tuples, frozensets and scalars round-trip
        exactly; the header records the fingerprint so
        :meth:`from_jsonl` can verify the reload is byte-identical.
        This is how shrunk chaos counterexamples are saved as CI
        artifacts and re-verified later.
        """
        header = {
            "schema": self.JSONL_SCHEMA,
            "substrate": self.substrate,
            "protocol": self.protocol,
            "seed": self.seed,
            "outcome": _encode_value(self.outcome),
            "fingerprint": self.fingerprint(),
        }
        lines = [json.dumps(header, sort_keys=True)]
        for e in self.events:
            lines.append(
                json.dumps(
                    {
                        "step": e.step,
                        "actor": _encode_value(e.actor),
                        "kind": e.kind,
                        "payload": _encode_value(e.payload),
                        "round": e.round,
                        "time": e.time,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, verify: bool = True) -> "Trace":
        """Rebuild a trace from :meth:`to_jsonl` output.

        The result carries no replayer (the closure does not serialize);
        with ``verify`` (the default) the recomputed fingerprint is
        checked against the header's, raising :class:`ReplayError` on
        mismatch — a corrupted or hand-edited artifact never silently
        passes as the original run.
        """
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ReplayError("empty trace serialization")
        header = json.loads(lines[0])
        if header.get("schema") != cls.JSONL_SCHEMA:
            raise ReplayError(
                f"unknown trace schema {header.get('schema')!r} "
                f"(expected {cls.JSONL_SCHEMA!r})"
            )
        events = []
        for line in lines[1:]:
            raw = json.loads(line)
            events.append(
                TraceEvent(
                    step=raw["step"],
                    actor=_decode_value(raw["actor"]),
                    kind=raw["kind"],
                    payload=_decode_value(raw["payload"]),
                    round=raw["round"],
                    time=raw["time"],
                )
            )
        trace = cls(
            substrate=header["substrate"],
            protocol=header["protocol"],
            seed=header["seed"],
            events=tuple(events),
            outcome=_decode_value(header["outcome"]),
        )
        recorded = header.get("fingerprint")
        if verify and recorded != trace.fingerprint():
            raise FingerprintMismatch(
                recorded,
                trace.fingerprint(),
                context=(
                    f"reloaded trace (substrate {trace.substrate!r}, "
                    f"protocol {trace.protocol!r})"
                ),
            )
        return trace


# ---------------------------------------------------------------------------
# Seed plumbing
# ---------------------------------------------------------------------------


def derive_seed(*components: Hashable) -> int:
    """A stable 63-bit seed derived from the components.

    Unlike ``hash()``, this is independent of ``PYTHONHASHSEED`` and of
    the process, so per-process sub-seeds derived from a master seed are
    reproducible across runs and machines.
    """
    digest = hashlib.sha256(repr(components).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def spawn_rng(rng: random.Random) -> random.Random:
    """A child RNG deterministically derived from (and advancing) ``rng``."""
    return random.Random(rng.getrandbits(63))


# ---------------------------------------------------------------------------
# The unified adversary interface
# ---------------------------------------------------------------------------


class FaultAdversary:
    """One adversary interface for every substrate.

    The base class is the benign adversary: no process is faulty, messages
    pass untouched, and scheduling defers to the runtime's seeded RNG.
    Substrates use the three powers selectively:

    * the synchronous model calls :meth:`transform` on faulty senders'
      messages (crash / omission / Byzantine subclasses live in
      :mod:`repro.consensus.synchronous`);
    * event-driven substrates (rings, I/O-automaton schedulers) call
      :meth:`schedule` to pick which enabled option happens next;
    * the datalink layer subclasses this with a full channel-action
      interface (:class:`repro.datalink.simulate.ChannelAdversary`).

    ``inputs_trustworthy`` says whether faulty processes' *inputs* count
    for validity: crash and omission failures are honest processes that
    die, so their inputs are real; Byzantine processes have no meaningful
    input.

    :meth:`reset` must return the adversary to its initial state; it is
    what makes runs with stateful adversaries (scripts, cursors, RNGs)
    replayable through :func:`replay`.
    """

    inputs_trustworthy = True
    faulty: frozenset = frozenset()  # overridden per instance in __init__

    def __init__(self, faulty: Iterable[Hashable] = ()):
        self.faulty = frozenset(faulty)

    # -- faults -----------------------------------------------------------

    def is_faulty(self, actor: Hashable) -> bool:
        return actor in self.faulty

    def transform(
        self,
        rnd: int,
        src: Hashable,
        dest: Hashable,
        honest_message: Hashable,
    ) -> Hashable:
        """The message actually delivered from a *faulty* ``src``.

        Called only for faulty senders; honest senders' messages are
        untouchable (that is the model).  Return None to suppress.
        """
        return honest_message

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        options: Sequence[Hashable],
        rng: Optional[random.Random] = None,
    ) -> int:
        """Pick the index of the option that happens next.

        ``options`` is a deterministically ordered non-empty sequence of
        whatever the substrate offers (channel keys, enabled actions, live
        processes).  The default is the seeded-uniform choice — the benign
        scheduler — falling back to index 0 when no RNG is supplied.
        """
        if rng is None:
            return 0
        return rng.randrange(len(options))

    # -- replay -----------------------------------------------------------

    def reset(self) -> None:
        """Return to the initial state (cursors, RNGs) for replay."""


class SchedulingAdversary(FaultAdversary):
    """Wrap a bare ``options -> index`` function as a scheduling adversary.

    The adapter for the legacy ``schedule=`` callables the ring simulator
    used to take.
    """

    def __init__(self, choose: Callable[[Sequence[Hashable]], int]):
        super().__init__()
        self._choose = choose

    def schedule(self, options, rng=None):
        return self._choose(list(options))


# ---------------------------------------------------------------------------
# The per-run kernel
# ---------------------------------------------------------------------------

# The benign adversary is stateless, so every runtime without an explicit
# adversary shares this instance instead of constructing one per run.
_BENIGN = FaultAdversary()


class SimulationRuntime:
    """A single run's kernel: seeded RNG + step counter + trace recorder.

    Substrate runners create one per run, ``emit`` events as they happen,
    and ``finish`` to obtain the :class:`Trace`.  The RNG is the *only*
    source of randomness a substrate may use, which is what makes every
    run a deterministic function of ``(protocol, inputs, adversary,
    seed)``.
    """

    def __init__(
        self,
        substrate: str,
        protocol: str = "",
        seed: Optional[int] = None,
        adversary: Optional[FaultAdversary] = None,
        record: bool = True,
    ):
        self.substrate = substrate
        self.protocol = protocol
        self.seed = seed
        self._rng: Optional[random.Random] = None
        self.adversary = adversary if adversary is not None else _BENIGN
        self.record = record
        self._events: List[TraceEvent] = []
        self._step = 0

    @property
    def rng(self) -> random.Random:
        # Built on first use: bulk searches (record=False, deterministic
        # adversaries) never touch the RNG, and seeding one per run is
        # measurable across tens of thousands of runs.
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng

    # -- events -----------------------------------------------------------

    def emit(
        self,
        kind: str,
        actor: Hashable,
        payload: Hashable = None,
        *,
        round: Optional[int] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        """Record one event (and allocate its global step number)."""
        if not self.record:
            self._step += 1
            return None
        event = TraceEvent(self._step, actor, kind, payload, round, time)
        self._step += 1
        self._events.append(event)
        return event

    # -- scheduling -------------------------------------------------------

    def choose(self, options: Sequence[Hashable]) -> Hashable:
        """Let the adversary (default: seeded-uniform) pick one option."""
        index = self.adversary.schedule(options, self.rng)
        return options[index]

    def choose_index(self, options: Sequence[Hashable]) -> int:
        return self.adversary.schedule(options, self.rng)

    # -- completion -------------------------------------------------------

    def finish(
        self,
        outcome: Optional[Mapping[str, Hashable]] = None,
        replayer: Optional[Callable[[], Trace]] = None,
    ) -> Trace:
        """Seal the run into a :class:`Trace`.

        ``replayer`` is a zero-argument closure re-running the simulation
        from scratch (fresh processes, reset adversary, same seed); it is
        what :func:`replay` invokes.
        """
        packed = tuple(sorted((str(k), v) for k, v in (outcome or {}).items()))
        return Trace(
            substrate=self.substrate,
            protocol=self.protocol,
            seed=self.seed,
            events=tuple(self._events),
            outcome=packed,
            replayer=replayer,
        )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(trace: Trace) -> Trace:
    """Re-execute the run that produced ``trace`` and verify it.

    Returns the freshly produced trace; raises :class:`ReplayError` if the
    trace carries no replayer, and :class:`ReplayDivergence` — carrying
    the index and both versions of the first divergent event — if the
    replay differs from the original (non-determinism escaping the seeded
    RNG — exactly the bug class this kernel exists to eliminate).
    """
    if trace.replayer is None:
        raise ReplayError(
            f"trace of substrate {trace.substrate!r} carries no replayer; "
            "run it through the unified runtime to get a replayable trace"
        )
    fresh = trace.replayer()
    if fresh.fingerprint() != trace.fingerprint():
        raise ReplayDivergence(trace, fresh)
    return fresh


# ---------------------------------------------------------------------------
# The engine driver
# ---------------------------------------------------------------------------


class Driven(NamedTuple):
    """One :func:`drive` result: the simulation, its trace, and why it
    stopped early (``None`` when it ran to completion)."""

    sim: Any
    trace: Trace
    interrupted: Optional[BudgetExceeded]

    @property
    def complete(self) -> bool:
        return self.interrupted is None

    @property
    def resume(self) -> Any:
        """The handle that continues a partial run (``None`` once complete)."""
        return None if self.complete else self.sim


def drive(
    start: Callable[[], Any],
    *,
    meter: Optional[BudgetMeter] = None,
    budget: Optional[Budget] = None,
    resume: Any = None,
) -> Driven:
    """Run (or resume) one step-wise engine simulation to completion.

    ``start`` builds a fresh simulation; ``resume`` is an earlier partial
    run, whose ``resume`` handle continues instead.  A simulation has
    ``substrate``, ``protocol``, ``seed``, ``events``, ``cost`` (steps
    charged per step), ``done``, ``step()``, ``outcome()`` and
    ``restart()`` (a fresh simulation with the same parameters).

    Each step first charges ``meter``, an external account whose
    overdraft raises :class:`BudgetExceeded`, then the run's own
    ``budget`` account, whose overdraft stops the run and returns it
    partial and resumable.  A completed trace replays from ``restart()``.
    """
    if resume is not None:
        if resume.resume is None:
            raise ValueError("run is not resumable (it completed)")
        sim = resume.resume
    else:
        sim = start()
    own = budget.meter(sim.substrate) if budget is not None else None
    interrupted: Optional[BudgetExceeded] = None
    while not sim.done:
        if meter is not None:
            meter.charge_steps(sim.cost)
        if own is not None:
            try:
                own.charge_steps(sim.cost)
            except BudgetExceeded as exc:
                interrupted = exc
                break
        sim.step()
    trace = Trace(
        substrate=sim.substrate,
        protocol=sim.protocol,
        seed=sim.seed,
        events=tuple(sim.events),
        outcome=tuple(sorted((str(k), v) for k, v in sim.outcome().items())),
        replayer=None if interrupted else lambda: drive(sim.restart).trace,
    )
    return Driven(sim, trace, interrupted)
