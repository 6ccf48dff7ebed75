"""The parallel execution fabric: one ordered, streaming process pool.

Chaos campaigns, expected-round sweeps and batched certificate queries
are deterministic functions of ``(protocol, inputs, adversary, seed)``
thanks to the unified runtime's seed plumbing
(:func:`repro.core.runtime.derive_seed`).  That makes them embarrassingly
parallel *and* checkable: each item can run in any worker, and the
parent folds the results back in submission order.

The fabric is one primitive, :meth:`WorkerPool.map_stream` (bounded
window, submission order, a plain loop at ``workers=1``), plus
:func:`resolve_workers`.  It has three consumers, each measured to beat
serial on two CPUs:

* :func:`repro.chaos.campaign.run_campaign` (``workers=N``);
* :func:`repro.circumvention.expected_rounds` (``workers=N``);
* :class:`repro.service.QueryService` with ``workers > 1``, which fans
  a batch of two or more misses out one engine run per worker.

Everything else is serial.  State-graph exploration and the exhaustive
register search (:func:`repro.registers.exhaustive.search_register_consensus`)
each finish in tens of milliseconds and measured slower on a pool.

The headline guarantee, enforced by ``tests/test_parallel_fabric.py``
and the golden-trace suite: **every result is bit-identical for
``workers=1`` and ``workers=N``**.  Parallelism is a pure wall-clock
optimization; it never changes an answer.
"""

from .pool import WorkerPool, resolve_workers

__all__ = [
    "WorkerPool",
    "resolve_workers",
]
