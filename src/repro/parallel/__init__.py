"""The parallel execution fabric: multiprocess campaigns and searches.

Every CPU-bound search in this repository — chaos campaigns, exhaustive
register-protocol enumeration, expected-round sweeps — is a
deterministic function of ``(protocol, inputs, adversary, seed)`` thanks
to the unified runtime's seed plumbing (:func:`repro.core.runtime.derive_seed`).
That makes the workloads embarrassingly parallel *and* checkable: the
work partitions into independent shards whose results merge
order-independently, exactly the property extension-based and FLP-style
proof reconstructions exploit when they explore independent branches of
the execution tree in any order.

The fabric has two layers:

* :mod:`repro.parallel.pool` — process-pool plumbing on the stdlib only
  (:class:`WorkerPool` over :class:`concurrent.futures.ProcessPoolExecutor`,
  a cross-process :class:`SharedCounter` for budget fan-in,
  :func:`resolve_workers`, :func:`split_chunks`);
* consumers — :func:`repro.chaos.campaign.run_campaign`,
  :func:`repro.registers.exhaustive.search_register_consensus` and
  :func:`repro.circumvention.expected_rounds` take ``workers=N``.

State-graph exploration (:func:`repro.core.exploration.explore`) is
serial.

The headline guarantee, enforced by ``tests/test_parallel_fabric.py``
and the golden-trace suite: **every result is bit-identical for
``workers=1`` and ``workers=N``**.  Parallelism is a pure wall-clock
optimization; it never changes an answer.
"""

from .pool import (
    SharedCounter,
    WorkerPool,
    resolve_workers,
    split_chunks,
)

__all__ = [
    "SharedCounter",
    "WorkerPool",
    "resolve_workers",
    "split_chunks",
]
