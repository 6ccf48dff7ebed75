"""Cross-run persistence for warm :class:`~repro.core.stategraph.StateGraph`\\ s.

The packed state engine (PR 5) holds a graph as three flat pieces: the
dense id -> frozen-state table of the interner and two CSR row stores
(locally-controlled and input-action edges), each a trio of ``array('q')``
columns plus an aligned label list.  That representation is already
serialization-shaped — this module is the codec:

* :func:`pack_state_graph` — one JSON header line (schema, byte order,
  canonically-encoded states and labels, column lengths) followed by the
  raw bytes of the six ``array('q')`` columns, concatenated in header
  order.  The numeric payload ships as memory, not JSON: a 60k-edge
  graph is six ``tobytes()`` calls, not 60k number tokens.

* :func:`unpack_state_graph` — the inverse, rebuilt through
  ``StateInterner.bulk_load`` + ``PackedGraph.import_rows`` so every
  structural invariant (alignment, offset bounds, id range) is
  re-checked on the way in.  States and labels come back through
  :func:`~repro.service.keys.decode_canonical`, i.e. interned — the
  reloaded graph probes and expands exactly like the one that was saved,
  and since the rows are already present, *every* subsequent expansion
  is a cache hit (``graph.stats["misses"] == 0`` is the zero-live-search
  receipt).

Store round-trip helpers (:func:`persist_state_graph` /
:func:`warm_state_graph`) wrap the codec around
:class:`~repro.service.store.CertificateStore` blobs, whose header
carries the body sha256 — a truncated or bit-flipped blob is a verified
miss before this module ever parses it.
"""

from __future__ import annotations

import json
import sys
from array import array
from typing import Any, Dict, Tuple

from ..core.automaton import IOAutomaton
from ..core.stategraph import StateGraph, state_graph
from .keys import QueryKey, canonical_json, decode_canonical, encode_canonical
from .store import CertificateStore

PACK_SCHEMA = "repro-graph-pack/v1"

# The six numeric columns, in body order.  Each entry names the store
# ("local"/"input") and the column within it.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("local", "succ"),
    ("local", "start"),
    ("local", "end"),
    ("input", "succ"),
    ("input", "start"),
    ("input", "end"),
)


def _encode_store(rows: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-header half of one packed store: labels + shape."""
    return {
        "labels": [encode_canonical(label) for label in rows["labels"]],
        "rows": rows["rows"],
        "lengths": {
            "succ": len(rows["succ"]),
            "start": len(rows["start"]),
            "end": len(rows["end"]),
        },
    }


def pack_state_graph(graph: StateGraph) -> bytes:
    """Serialize ``graph``'s interner and CSR stores into one blob."""
    payload = graph.export_packed()
    header = {
        "schema": PACK_SCHEMA,
        "byteorder": sys.byteorder,
        "itemsize": array("q").itemsize,
        "states": [encode_canonical(state) for state in payload["states"]],
        "local": _encode_store(payload["local"]),
        "input": _encode_store(payload["input"]),
    }
    parts = [canonical_json(header).encode("utf-8"), b"\n"]
    for store_name, column in _COLUMNS:
        parts.append(payload[store_name][column].tobytes())
    return b"".join(parts)


def unpack_state_graph(graph: StateGraph, blob: bytes) -> StateGraph:
    """Restore a :func:`pack_state_graph` blob into a fresh ``graph``.

    ``graph`` must be empty (nothing interned, no rows) — the import
    adopts the saved id space wholesale.  Raises ``ValueError`` on any
    structural defect; callers that reached this point through the store
    have already survived the sha256 check, so an error here means a
    format bug, not disk corruption.
    """
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline].decode("utf-8"))
    if header.get("schema") != PACK_SCHEMA:
        raise ValueError(f"unknown graph pack schema {header.get('schema')!r}")
    itemsize = array("q").itemsize
    if header.get("itemsize") != itemsize:
        raise ValueError(
            f"pack itemsize {header.get('itemsize')} != native {itemsize}"
        )
    swap = header.get("byteorder") != sys.byteorder

    offset = newline + 1
    columns: Dict[Tuple[str, str], array] = {}
    for store_name, column in _COLUMNS:
        length = header[store_name]["lengths"][column]
        nbytes = length * itemsize
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(
                f"truncated blob: {store_name}/{column} needs {nbytes} bytes, "
                f"{len(chunk)} left"
            )
        col = array("q")
        col.frombytes(chunk)
        if swap:
            col.byteswap()
        columns[(store_name, column)] = col
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} trailing bytes after columns")

    states = [decode_canonical(s) for s in header["states"]]
    graph.import_packed(
        states,
        local={
            "succ": columns[("local", "succ")],
            "start": columns[("local", "start")],
            "end": columns[("local", "end")],
            "labels": [decode_canonical(v) for v in header["local"]["labels"]],
            "rows": header["local"]["rows"],
        },
        input_rows={
            "succ": columns[("input", "succ")],
            "start": columns[("input", "start")],
            "end": columns[("input", "end")],
            "labels": [decode_canonical(v) for v in header["input"]["labels"]],
            "rows": header["input"]["rows"],
        },
    )
    return graph


# -- store round-trips ------------------------------------------------------


def graph_blob_key(automaton_name: str, **params: Any) -> QueryKey:
    """The store key for a persisted graph of ``automaton_name``."""
    return QueryKey.make("state-graph", automaton=automaton_name, **params)


def persist_state_graph(
    store: CertificateStore, key: QueryKey, graph: StateGraph
) -> str:
    """Pack ``graph`` and write it as a verified store blob."""
    return store.put_blob(key, pack_state_graph(graph))


def warm_state_graph(
    store: CertificateStore, key: QueryKey, automaton: IOAutomaton
) -> Tuple[StateGraph, bool]:
    """The shared graph for ``automaton``, warmed from ``store`` if possible.

    Returns ``(graph, warmed)``.  The blob is only imported into a graph
    that has done no work yet (importing must not clobber live rows); a
    graph that is already warm — from this process's own exploration or
    an earlier import — is returned as-is with ``warmed=False``.  A
    corrupt or absent blob is a store miss and the cold graph is
    returned; exploration then proceeds live, exactly as without a
    store.
    """
    graph = state_graph(automaton)
    if len(graph.interner):
        return graph, False
    body = store.get_blob(key)
    if body is None:
        return graph, False
    try:
        unpack_state_graph(graph, body)
    except (KeyError, TypeError, ValueError):
        # Format-level defect the sha256 could not see (e.g. a blob
        # written by a newer pack schema): treat as corrupt, stay cold.
        store.corrupt += 1
        graph.reset_packed_state()
        return graph, False
    return graph, True
