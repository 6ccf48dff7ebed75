"""Exhaustive search over small read/write consensus protocols (§2.3).

The hierarchy results in :mod:`repro.registers.herlihy` defeat *given*
protocols; this module quantifies over a whole bounded class, the same
methodology as the Cremers–Hibbard search (E1): enumerate every symmetric
2-process protocol in which each process owns one binary register and
runs a depth-bounded decision-tree program —

* non-branching step: write 0 / 1 / own input to the own register;
* branching step: read the other's register (branch on 0 / 1, with the
  initial value also readable);
* leaf: decide 0 / 1 / own input / last value read.

Every candidate is model-checked exhaustively for agreement, validity and
wait-freedom over all interleavings; the certificate records that **no
candidate solves 2-process wait-free consensus**, which is the
Loui–Abu-Amara / Herlihy impossibility restricted to the stated class —
with the class bound honest in the certificate, and deep enough to
contain the natural write-then-read-then-decide protocols.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.budget import Budget, BudgetExceeded
from ..impossibility.certificate import ImpossibilityCertificate
from ..shared_memory.variables import Access, read, write
from .herlihy import (
    ObjectConsensusProtocol,
    ObjectConsensusSystem,
    wait_free_verdict,
)

# A program tree, as nested tuples (registers start at 0):
#   ("decide", leaf)                 leaf in {"zero", "one", "own", "seen"}
#   ("write", value, subtree)        value in {"zero", "one", "own"}
#   ("read", subtree_if_0, subtree_if_1)
Program = Tuple

LEAVES = ("zero", "one", "own", "seen")
WRITE_VALUES = ("zero", "one", "own")


def enumerate_programs(depth: int) -> Iterator[Program]:
    """Every program of the class with at most ``depth`` accesses."""
    if depth == 0:
        for leaf in LEAVES:
            yield ("decide", leaf)
        return
    for program in enumerate_programs(0):
        yield program
    subprograms = list(enumerate_programs(depth - 1))
    for value in WRITE_VALUES:
        for sub in subprograms:
            yield ("write", value, sub)
    for if0 in subprograms:
        for if1 in subprograms:
            yield ("read", if0, if1)


def count_programs(depth: int) -> int:
    if depth == 0:
        return len(LEAVES)
    inner = count_programs(depth - 1)
    return len(LEAVES) + len(WRITE_VALUES) * inner + inner ** 2


class ProgramConsensus(ObjectConsensusProtocol):
    """A symmetric 2-process protocol defined by one program tree."""

    def __init__(self, program: Program):
        self.program = program
        self.name = f"program-consensus-{hash(program) & 0xFFFF:04x}"

    def initial_memory(self, n):
        return {f"r{i}": 0 for i in range(n)}

    def initial_local(self, pid, n, input_value):
        # (pid, own input, last read value, current subtree)
        return (pid, input_value, None, self.program)

    def _resolve(self, tag, input_value, seen):
        if tag == "zero":
            return 0
        if tag == "one":
            return 1
        if tag == "own":
            return input_value
        # "seen": the last value read; before any read, fall back to own.
        if seen is None:
            return input_value
        return seen

    def pending_access(self, local) -> Optional[Access]:
        pid, input_value, seen, tree = local
        if tree[0] == "decide":
            return None
        if tree[0] == "write":
            return write(f"r{pid}", self._resolve(tree[1], input_value, seen))
        return read(f"r{1 - pid}")

    def after_access(self, local, response):
        pid, input_value, seen, tree = local
        if tree[0] == "write":
            return (pid, input_value, seen, tree[2])
        return (pid, input_value, response, tree[1 + int(bool(response))])

    def decision(self, local):
        pid, input_value, seen, tree = local
        if tree[0] != "decide":
            return None
        return self._resolve(tree[1], input_value, seen)


def _flatten_program(
    program: Program,
) -> Tuple[List[int], List, List[int]]:
    """DFS-number the subtrees of ``program``.

    Returns ``(kinds, args, heights)`` indexed by node id: kind 0 is a
    decide leaf (arg = leaf tag), 1 a write (arg = ``(value_tag,
    sub_nid)``), 2 a read (arg = ``(if0_nid, if1_nid)``).  ``heights``
    is the max accesses remaining below each node, used to discharge
    wait-freedom structurally.
    """
    kinds: List[int] = []
    args: List = []
    heights: List[int] = []

    def visit(tree: Program) -> int:
        nid = len(kinds)
        kinds.append(0)
        args.append(None)
        heights.append(0)
        op = tree[0]
        if op == "write":
            sub = visit(tree[2])
            kinds[nid] = 1
            args[nid] = (tree[1], sub)
            heights[nid] = 1 + heights[sub]
        elif op == "read":
            if0 = visit(tree[1])
            if1 = visit(tree[2])
            kinds[nid] = 2
            args[nid] = (if0, if1)
            heights[nid] = 1 + max(heights[if0], heights[if1])
        else:
            args[nid] = tree[1]
        return nid

    visit(program)
    return kinds, args, heights


def _packed_verdict_kind(program: Program, solo_bound: int) -> str:
    """Classify one candidate over a dense integer state encoding.

    A configuration of :class:`ProgramConsensus` is two local states
    ``(pid, input, seen, subtree)`` plus two binary registers.  ``pid``
    is positional and ``input`` never changes, so a local state packs
    into a small id ``(node, input, seen)`` and a whole configuration
    into one int — the BFS of :func:`wait_free_verdict` then runs as
    integer arithmetic over a bytearray visited-set, with no frozen
    containers, hashing, or per-event object allocation.  Equivalence
    with the generic verdict on the full class is pinned by test.

    Wait-freedom is discharged structurally: a solo run from node ``v``
    decides after at most ``height(v)`` accesses (programs are trees, so
    solo runs neither halt undecided nor cycle), hence it can only fail
    when the tree is deeper than the solo bound — in which case we defer
    to the generic verdict rather than replicate its failure order.
    """
    kinds, node_args, heights = _flatten_program(program)
    if heights[0] > solo_bound:
        system = ObjectConsensusSystem(ProgramConsensus(program), 2)
        verdict = wait_free_verdict(system, solo_bound=solo_bound)
        if verdict.solves_consensus:
            return "solution"
        return verdict.failure_kind or "wait_freedom"

    # Local-state id: lid = (node * 2 + input) * 3 + (seen + 1), with
    # seen = -1 encoding "nothing read yet" (decides fall back to own
    # input, exactly ProgramConsensus._resolve).
    nnodes = len(kinds)
    L = nnodes * 6

    def resolve(tag: str, input_value: int, seen: int) -> int:
        if tag == "zero":
            return 0
        if tag == "one":
            return 1
        if tag == "own":
            return input_value
        return input_value if seen < 0 else seen

    # Per-lid tables: decided value (-1 if still running), written value
    # and successor for writes, successors per read response for reads.
    dec = [-1] * L
    wval = [0] * L
    wnext = [-1] * L
    rnext = [(-1, -1)] * L
    for nid in range(nnodes):
        kind = kinds[nid]
        arg = node_args[nid]
        for input_value in (0, 1):
            for seen in (-1, 0, 1):
                lid = (nid * 2 + input_value) * 3 + (seen + 1)
                if kind == 0:
                    dec[lid] = resolve(arg, input_value, seen)
                elif kind == 1:
                    wval[lid] = resolve(arg[0], input_value, seen)
                    wnext[lid] = (arg[1] * 2 + input_value) * 3 + (seen + 1)
                else:
                    rnext[lid] = (
                        (arg[0] * 2 + input_value) * 3 + 1,  # seen := 0
                        (arg[1] * 2 + input_value) * 3 + 2,  # seen := 1
                    )

    # cfg = ((lid0 * L) + lid1) * 4 + mem0 * 2 + mem1
    seen_configs = bytearray(L * L * 4)
    queue = deque()
    for in0 in (0, 1):
        for in1 in (0, 1):
            lid0 = in0 * 3  # node 0, seen = -1
            lid1 = in1 * 3
            queue.append((lid0 * L + lid1) * 4)
    while queue:
        cfg = queue.popleft()
        if seen_configs[cfg]:
            continue
        seen_configs[cfg] = 1
        mem = cfg & 3
        rest = cfg >> 2
        lid1 = rest % L
        lid0 = rest // L
        d0 = dec[lid0]
        d1 = dec[lid1]
        if d0 >= 0 or d1 >= 0:
            if d0 >= 0 and d1 >= 0 and d0 != d1:
                return "agreement"
            # inputs are positionally encoded and immutable, so the
            # originating input vector is recoverable from the config.
            in0 = (lid0 // 3) & 1
            in1 = (lid1 // 3) & 1
            if d0 >= 0 and d0 != in0 and d0 != in1:
                return "validity"
            if d1 >= 0 and d1 != in0 and d1 != in1:
                return "validity"
        # Wait-freedom cannot fail: height(program) <= solo_bound.
        if d0 < 0:
            nxt = wnext[lid0]
            if nxt >= 0:
                child = ((nxt * L + lid1) * 4) | (wval[lid0] << 1) | (mem & 1)
            else:
                nxt = rnext[lid0][mem & 1]  # read the other's register r1
                child = ((nxt * L + lid1) * 4) | mem
            if not seen_configs[child]:
                queue.append(child)
        if d1 < 0:
            nxt = wnext[lid1]
            if nxt >= 0:
                child = ((lid0 * L + nxt) * 4) | (mem & 2) | wval[lid1]
            else:
                nxt = rnext[lid1][mem >> 1]  # read the other's register r0
                child = ((lid0 * L + nxt) * 4) | mem
            if not seen_configs[child]:
                queue.append(child)
    return "solution"


@dataclass
class RegisterSearchOutcome:
    depth: int
    candidates: int
    solutions: List[Program]
    agreement_failures: int
    validity_failures: int
    wait_freedom_failures: int
    complete: bool = True
    resume_at: int = 0


def _verdict_of(program: Program, depth: int) -> str:
    """Model-check one candidate; classify the outcome."""
    return _packed_verdict_kind(program, solo_bound=depth + 2)


def search_register_consensus(
    depth: int = 2,
    budget: Optional[Budget] = None,
    resume: Optional[RegisterSearchOutcome] = None,
) -> RegisterSearchOutcome:
    """Model-check every program in the class; collect the failure census.

    A :class:`~repro.core.budget.Budget` (one step charged per candidate)
    turns the search into a resumable anytime computation: on overdraft
    it returns the census so far with ``complete=False`` and
    ``resume_at`` set to the first unchecked candidate; pass that outcome
    back as ``resume`` to continue where it stopped, accumulating counts.

    The search is serial: the depth-2 census of 1,124 candidates takes
    about 50 ms, and sharding it over a process pool measured slower at
    both 2 and 4 workers.
    """
    start = resume.resume_at if resume is not None else 0
    solutions: List[Program] = list(resume.solutions) if resume else []
    agreement = resume.agreement_failures if resume else 0
    validity = resume.validity_failures if resume else 0
    wait_freedom = resume.wait_freedom_failures if resume else 0
    total = resume.candidates if resume else 0
    meter = budget.meter("register-consensus-search") if budget else None
    for index, program in enumerate(enumerate_programs(depth)):
        if index < start:
            continue
        if meter is not None:
            try:
                meter.charge_steps()
            except BudgetExceeded:
                return RegisterSearchOutcome(
                    depth=depth,
                    candidates=total,
                    solutions=solutions,
                    agreement_failures=agreement,
                    validity_failures=validity,
                    wait_freedom_failures=wait_freedom,
                    complete=False,
                    resume_at=index,
                )
        total += 1
        kind = _verdict_of(program, depth)
        if kind == "solution":
            solutions.append(program)
        elif kind == "agreement":
            agreement += 1
        elif kind == "validity":
            validity += 1
        else:
            wait_freedom += 1
    return RegisterSearchOutcome(
        depth=depth,
        candidates=total,
        solutions=solutions,
        agreement_failures=agreement,
        validity_failures=validity,
        wait_freedom_failures=wait_freedom,
    )


def register_consensus_certificate(
    depth: int = 2, store=None
) -> ImpossibilityCertificate:
    """Certify: no program in the class solves wait-free 2-consensus.

    ``store=`` (a :class:`~repro.service.store.CertificateStore`) skips
    the exhaustive sweep entirely when a verified census for this depth
    is already stored, and persists a fresh (complete) census otherwise.
    The certificate is built from the payload on both paths, so a store
    hit and a live search certify identically.
    """
    from ..service.service import (
        certificate_from_register_payload,
        register_outcome_payload,
        register_search_key,
    )

    key = payload = None
    if store is not None:
        key = register_search_key(depth)
        payload = store.get(key)
    if payload is None:
        outcome = search_register_consensus(depth)
        payload = register_outcome_payload(outcome)
        if store is not None:
            store.put(key, payload)
    return certificate_from_register_payload(payload)
