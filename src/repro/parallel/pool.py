"""Process-pool plumbing for the parallel fabric (stdlib only).

Design rules, shared by every consumer:

* **The parent is authoritative.**  Workers only *compute*; the parent
  merges results in a deterministic order and does all budget accounting
  through the ordinary :class:`~repro.core.budget.BudgetMeter` calls the
  serial code path makes.  A slow, dead or early-stopped worker can cost
  wall-clock time, never correctness.
* **Shards are derived, not shared.**  A worker never receives mutable
  campaign state — only the immutable coordinates (target, index, seed
  policy) it needs to re-derive its shard from scratch via
  :func:`repro.core.runtime.derive_seed`.
* **Fork where possible.**  The ``fork`` start method inherits the
  loaded interpreter, so pools are cheap enough for test-sized work;
  platforms without it fall back to ``spawn`` transparently (everything
  shipped to workers is picklable).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers) -> int:
    """Normalize a ``workers=`` argument to a concrete positive count.

    ``None``, ``0`` and ``1`` all mean serial; ``"auto"`` means one
    worker per available CPU.  Anything else must be a positive integer
    or its decimal string, so the CLIs use this as their argparse
    ``type=`` and a bad ``--workers`` is a usage error.
    """
    if workers == "auto":
        return max(1, os.cpu_count() or 1)
    count = 0 if workers is None else int(workers)
    if count < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    return max(count, 1)


def pool_context():
    """The multiprocessing context the fabric uses (fork when available)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _run_chunk(fn: Callable[[T], R], batch: List[T]) -> List[R]:
    """Worker-side body of one :meth:`WorkerPool.map_stream` chunk."""
    return [fn(item) for item in batch]


class WorkerPool:
    """A process pool with a serial in-process fallback at ``workers=1``.

    At ``workers=1`` no subprocess is created and :meth:`map_stream` is
    a plain generator loop, so consumers write one code path and serial
    callers pay zero fabric overhead.  Use as a context manager; exit
    shuts the pool down and waits for the workers.
    """

    def __init__(self, workers):
        self.workers = resolve_workers(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        if self.workers > 1:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=pool_context()
            )

    def map_stream(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        window: Optional[int] = None,
        chunk: int = 1,
    ) -> Iterator[Tuple[T, R]]:
        """Apply ``fn`` to a (possibly unbounded) stream, yielding
        ``(item, result)`` pairs in submission order.

        Constant memory: at most ``window`` chunks of ``chunk`` items are
        in flight at once — the input iterator is pulled lazily as
        results drain, so a million-case campaign holds a few hundred
        cases in memory, never the campaign.
        Order is preserved by construction (a FIFO of futures), which is
        what lets the parent fold worker outcomes exactly as a serial
        loop would — the streaming form of the parent-is-authoritative
        merge.

        At ``workers=1`` this degenerates to a plain generator loop with
        zero fabric overhead, so serial and parallel callers share one
        code path.
        """
        items = iter(items)
        if self._executor is None:
            for item in items:
                yield item, fn(item)
            return
        window = window if window is not None else 2 * self.workers
        if window < 1 or chunk < 1:
            raise ValueError(
                f"window and chunk must be >= 1, got {window}, {chunk}"
            )
        pending: deque = deque()

        def submit_next() -> bool:
            batch = list(itertools.islice(items, chunk))
            if not batch:
                return False
            pending.append(
                (batch, self._executor.submit(_run_chunk, fn, batch))
            )
            return True

        for _ in range(window):
            if not submit_next():
                break
        while pending:
            batch, future = pending.popleft()
            results = future.result()
            # Refill before yielding so workers stay busy while the
            # parent folds this chunk.
            submit_next()
            yield from zip(batch, results)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
