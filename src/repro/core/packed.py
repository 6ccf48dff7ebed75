"""Bit-packed state engine: dense integer state ids + CSR adjacency.

Every exhaustive argument in this repository — FLP bivalence, the E1/E2
register-protocol searches, backward-closure valency labelling — is a
graph computation over configurations.  Configurations are frozen
dicts/tuples, and hashing and (deep) equality of those structures
dominate the hot-loop profile: each ``succ in seen`` probe hashes a
nested tuple tree.

This module is the cure.  A :class:`StateInterner` hash-conses each
frozen state **once**, assigning it a dense integer id; a
:class:`PackedGraph` stores successor adjacency as CSR rows in one flat
``array('q')``.  Everything downstream — reachability, SCC passes,
valency labelling, dedup sets — then runs over small integers: set
probes hash machine words, visited sets become flat arrays indexed by
id, and adjacency scans are contiguous memory.

Id lifetime rules:

* ids are **dense** (0, 1, 2, ... in interning order) and **stable for
  the lifetime of the interner** — an id is never reassigned;
* ids are **local to one interner** (one per :class:`~repro.core.stategraph.StateGraph`
  / transition cache); they must never be compared across interners —
  ship the frozen state across that boundary;
* :meth:`StateInterner.clear` resets the id space; every packed
  structure holding ids from it must be dropped with it (the owning
  graph does this, see ``clear_intern_table``).
"""

from __future__ import annotations

from array import array
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

UNEXPANDED = -1


class StateInterner:
    """A bidirectional frozen-state <-> dense-integer-id map.

    ``intern`` is the only way ids are born: the first interning of a
    state assigns the next dense id, later calls return the same id via
    one dict probe (the *last* time the deep structure is hashed).
    ``state_of`` is a plain list index, so the id -> state direction is
    free — which is what lets hot loops carry ids and convert back to
    frozen states only at API boundaries.
    """

    __slots__ = ("_ids", "_states", "hits", "misses")

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        self._states: List[Any] = []
        self.hits = 0
        self.misses = 0

    def intern(self, state: Any) -> int:
        """The dense id of ``state``, assigning the next one if new."""
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
            self.misses += 1
        else:
            self.hits += 1
        return sid

    def id_of(self, state: Any) -> Optional[int]:
        """The id of ``state`` if it has been interned, else None."""
        return self._ids.get(state)

    def state_of(self, sid: int) -> Any:
        """The canonical state behind ``sid`` (a list index)."""
        return self._states[sid]

    def states(self) -> List[Any]:
        """The id -> state table itself (index = id).  Do not mutate."""
        return self._states

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: Any) -> bool:
        return state in self._ids

    def clear(self) -> None:
        """Reset the id space.  Invalidates every id ever issued."""
        self._ids.clear()
        self._states.clear()
        self.hits = 0
        self.misses = 0

    def bulk_load(self, states: Iterable[Any]) -> None:
        """Restore an id -> state table saved from another process.

        Only valid on an empty interner: ids are positional, so the
        restored table must *be* the id space, not extend one.  Counts
        neither hits nor misses — a restore is cache plumbing, not live
        interning, and the counters stay meaningful as "work this
        process did".
        """
        if self._states:
            raise ValueError(
                f"bulk_load needs an empty interner, found {len(self._states)} "
                "states already interned"
            )
        for state in states:
            self._ids[state] = len(self._states)
            self._states.append(state)

    @property
    def stats(self) -> Dict[str, Any]:
        probes = self.hits + self.misses
        return {
            "size": len(self._states),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / probes) if probes else 0.0,
        }


class PackedGraph:
    """CSR successor adjacency over interned state ids.

    Each state's successor sweep is appended exactly once as one
    contiguous row of the flat ``array('q')`` successor array; per-id
    ``(start, end)`` offsets live in parallel ``array('q')`` columns
    (``-1`` = not yet expanded).  Edge labels (actions / events) are
    Python objects in one flat list aligned index-for-index with the
    successor array, so ``labels[start:end]`` and ``succ[start:end]``
    describe the same edges.

    Rows are immutable once recorded — the same append-once discipline
    the frozen-path memo tables had, now costing ~16 bytes of offsets
    plus 8 bytes per edge instead of a dict slot and a tuple of tuples.
    """

    __slots__ = ("interner", "_succ", "_labels", "_start", "_end", "rows")

    def __init__(self, interner: Optional[StateInterner] = None):
        self.interner = interner if interner is not None else StateInterner()
        self._succ = array("q")
        self._labels: List[Any] = []
        self._start = array("q")
        self._end = array("q")
        self.rows = 0

    # -- row bookkeeping ---------------------------------------------------

    def _ensure_slot(self, sid: int) -> None:
        start = self._start
        if sid < len(start):
            return
        grow = sid + 1 - len(start)
        start.extend([UNEXPANDED] * grow)
        self._end.extend([UNEXPANDED] * grow)

    def is_expanded(self, sid: int) -> bool:
        return sid < len(self._start) and self._start[sid] != UNEXPANDED

    def add_row(
        self, sid: int, labels: Iterable[Any], succ_ids: Iterable[int]
    ) -> None:
        """Record ``sid``'s full successor sweep (append-once).

        ``labels`` and ``succ_ids`` must be aligned.  A second add for
        the same id is ignored — first sweep wins.
        """
        self._ensure_slot(sid)
        if self._start[sid] != UNEXPANDED:
            return
        begin = len(self._succ)
        self._succ.extend(succ_ids)
        self._labels.extend(labels)
        if len(self._labels) != len(self._succ):
            # Misaligned row: roll back to keep the CSR invariant.
            del self._succ[begin:]
            del self._labels[begin:]
            raise ValueError("labels and successor ids must have equal length")
        self._start[sid] = begin
        self._end[sid] = len(self._succ)
        self.rows += 1

    # -- row access ----------------------------------------------------------

    def successors_ids(self, sid: int) -> "array":
        """The successor-id row of ``sid`` (empty if unexpanded)."""
        if sid >= len(self._start) or self._start[sid] == UNEXPANDED:
            return array("q")
        return self._succ[self._start[sid]:self._end[sid]]

    def labels_of(self, sid: int) -> List[Any]:
        if sid >= len(self._start) or self._start[sid] == UNEXPANDED:
            return []
        return self._labels[self._start[sid]:self._end[sid]]

    def row_bounds(self, sid: int) -> Tuple[int, int]:
        """(start, end) offsets of ``sid``'s row ((-1, -1) if unexpanded)."""
        if sid >= len(self._start):
            return (UNEXPANDED, UNEXPANDED)
        return (self._start[sid], self._end[sid])

    # -- persistence ---------------------------------------------------------

    def export_rows(self) -> Dict[str, Any]:
        """The raw CSR storage, for cross-run persistence.

        Returns live references (not copies): ``succ``/``start``/``end``
        are the flat ``array('q')`` columns, ``labels`` the aligned edge
        label list, ``rows`` the expanded-row count.  Callers serialize
        via ``array.tobytes()`` (see :mod:`repro.service.graphs`) and
        must not mutate.
        """
        return {
            "succ": self._succ,
            "start": self._start,
            "end": self._end,
            "labels": self._labels,
            "rows": self.rows,
        }

    def import_rows(
        self,
        succ: "array",
        start: "array",
        end: "array",
        labels: List[Any],
        rows: int,
    ) -> None:
        """Adopt CSR storage saved by :meth:`export_rows`.

        Only valid on an empty graph (the restored offsets index the
        restored arrays; merging into live rows would corrupt both), and
        the columns must be mutually consistent — the label list aligned
        with the successor array, offsets within bounds.  Ids in ``succ``
        refer to the attached interner's id space, so the interner must
        be restored first (``StateInterner.bulk_load``).
        """
        if self.rows or len(self._succ) or len(self._start):
            raise ValueError("import_rows needs an empty PackedGraph")
        if len(labels) != len(succ):
            raise ValueError(
                f"misaligned rows: {len(labels)} labels vs {len(succ)} "
                "successor ids"
            )
        if len(start) != len(end):
            raise ValueError(
                f"misaligned offsets: {len(start)} starts vs {len(end)} ends"
            )
        nstates = len(self.interner)
        nedges = len(succ)
        counted = 0
        for sid in range(len(start)):
            lo, hi = start[sid], end[sid]
            if lo == UNEXPANDED and hi == UNEXPANDED:
                continue
            if not (0 <= lo <= hi <= nedges):
                raise ValueError(
                    f"row {sid} offsets ({lo}, {hi}) out of bounds "
                    f"for {nedges} edges"
                )
            counted += 1
        if counted != rows:
            raise ValueError(
                f"row count {rows} does not match {counted} expanded rows"
            )
        for sid in succ:
            if not (0 <= sid < nstates):
                raise ValueError(
                    f"successor id {sid} outside the interned id space "
                    f"of {nstates} states"
                )
        self._succ = array("q", succ)
        self._start = array("q", start)
        self._end = array("q", end)
        self._labels = list(labels)
        self.rows = rows

    # -- accounting ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._succ)

    def nbytes(self) -> int:
        """Bytes held by the packed arrays (labels excluded: they are
        shared Python objects, usually tiny interned tuples)."""
        return (
            self._succ.itemsize * len(self._succ)
            + self._start.itemsize * len(self._start)
            + self._end.itemsize * len(self._end)
        )

    @property
    def stats(self) -> Dict[str, Any]:
        expanded = self.rows
        return {
            "states_interned": len(self.interner),
            "rows": expanded,
            "edges": len(self._succ),
            "packed_bytes": self.nbytes(),
            "bytes_per_state": (
                self.nbytes() / len(self.interner) if len(self.interner) else 0.0
            ),
        }


def strongly_connected_components(
    roots: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> Iterator[List[int]]:
    """Tarjan's SCCs of the graph reachable from ``roots``, sinks first.

    Iterative over integer ids.  ``successors(sid)`` is called once per
    node, when the search first reaches it, and returns the ids to
    descend into: the place for a caller's lazy expansion (which may
    intern new ids), budget and boundary filtering.  No edge runs from a
    yielded component to one yielded later, so a consumer that labels
    each component on arrival sees its successors already labelled.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack_at: Dict[int, int] = {}  # position on scc_stack, while on it
    scc_stack: List[int] = []
    work: List[Tuple[int, Iterator[int]]] = []

    def push(sid: int) -> None:
        index[sid] = low[sid] = len(index)
        stack_at[sid] = len(scc_stack)
        scc_stack.append(sid)
        work.append((sid, iter(successors(sid))))

    for root in roots:
        if root in index:
            continue
        push(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    push(child)
                    break
                if child in stack_at and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = scc_stack[stack_at[node]:]
                    del scc_stack[stack_at[node]:]
                    for member in component:
                        del stack_at[member]
                    yield component


class IdFlags:
    """A growable dense bitmap over state ids (visited/seen sets).

    ``bytearray``-backed: membership is one index, insertion one store —
    no hashing at all.  The idiomatic replacement for ``set`` of states
    in packed passes; also counts members so budget checks stay O(1).
    """

    __slots__ = ("_bits", "count")

    def __init__(self, size_hint: int = 0):
        self._bits = bytearray(size_hint)
        self.count = 0

    def __contains__(self, sid: int) -> bool:
        bits = self._bits
        return sid < len(bits) and bits[sid] != 0

    def add(self, sid: int) -> bool:
        """Mark ``sid``; return True if it was new."""
        bits = self._bits
        if sid >= len(bits):
            bits.extend(b"\x00" * (sid + 1 - len(bits)))
        if bits[sid]:
            return False
        bits[sid] = 1
        self.count += 1
        return True

    def discard(self, sid: int) -> None:
        """Unmark ``sid`` (no-op if absent)."""
        bits = self._bits
        if sid < len(bits) and bits[sid]:
            bits[sid] = 0
            self.count -= 1

    def __len__(self) -> int:
        return self.count

    def ids(self) -> Iterable[int]:
        bits = self._bits
        return (i for i in range(len(bits)) if bits[i])


class IdToValue:
    """A growable dense id -> int map backed by ``array('q')``.

    ``-1`` is the *absent* sentinel, so stored values must be >= 0
    (valency bitmasks, distances, parent ids all are).  Replaces
    ``dict`` keyed by configurations in the labelling passes.
    """

    __slots__ = ("_vals", "count", "absent")

    def __init__(self, size_hint: int = 0, absent: int = -1):
        self.absent = absent
        self._vals = array("q", [absent] * size_hint)
        self.count = 0

    def get(self, sid: int) -> int:
        vals = self._vals
        if sid >= len(vals):
            return self.absent
        return vals[sid]

    def set(self, sid: int, value: int) -> None:
        vals = self._vals
        if sid >= len(vals):
            vals.extend([self.absent] * (sid + 1 - len(vals)))
        if vals[sid] == self.absent and value != self.absent:
            self.count += 1
        elif vals[sid] != self.absent and value == self.absent:
            self.count -= 1
        vals[sid] = value

    def __contains__(self, sid: int) -> bool:
        return self.get(sid) != self.absent

    def __len__(self) -> int:
        return self.count

    def items(self) -> Iterable[Tuple[int, int]]:
        absent = self.absent
        vals = self._vals
        return ((i, vals[i]) for i in range(len(vals)) if vals[i] != absent)


class ValueTable:
    """Decision values <-> bitmask bits, for integer valency labelling.

    Valencies are sets of decision values; over a dense value table they
    pack into an int bitmask, so the backward-closure union in the SCC
    pass is ``|`` on machine words instead of frozenset unions.
    """

    __slots__ = ("_bit", "_values", "_mask_sets")

    def __init__(self, values: Sequence[Any] = ()):
        self._bit: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._mask_sets: Dict[int, frozenset] = {0: frozenset()}
        for value in values:
            self.bit_of(value)

    def bit_of(self, value: Any) -> int:
        bit = self._bit.get(value)
        if bit is None:
            bit = 1 << len(self._values)
            self._bit[value] = bit
            self._values.append(value)
            self._mask_sets.clear()
            self._mask_sets[0] = frozenset()
        return bit

    def mask_of(self, values: Iterable[Any]) -> int:
        mask = 0
        bit = self._bit
        for value in values:
            b = bit.get(value)
            if b is None:
                b = self.bit_of(value)
            mask |= b
        return mask

    def set_of(self, mask: int) -> frozenset:
        """The frozenset behind ``mask`` (memoized per mask value)."""
        cached = self._mask_sets.get(mask)
        if cached is None:
            values = self._values
            cached = frozenset(
                values[i] for i in range(mask.bit_length()) if mask >> i & 1
            )
            self._mask_sets[mask] = cached
        return cached
