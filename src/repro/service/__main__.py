"""Command-line entry point: ``python -m repro.service``.

Answers one query against a certificate store directory, running the
live engine only on a miss, and prints the answer plus the store's
hit/miss accounting — so "the second run was all hits" is visible from
the shell:

    python -m repro.service --store certs flp --protocol quorum-vote --n 3
    python -m repro.service --store certs valency --protocol quorum-vote \\
        --n 3 --inputs 0,1,1
    python -m repro.service --store certs register-search --depth 2
    python -m repro.service --store certs campaign --runs 10 --seed 0
    python -m repro.service --store certs detector-run \\
        --atoms '[["split", 2, 3]]' --seed 0
    python -m repro.service --store certs lease-run \\
        --atoms '[["cut", 0, 0, 1]]' --buggy
    python -m repro.service --store certs stats
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.budget import Budget
from ..parallel.pool import resolve_workers
from .keys import QueryKey
from .service import (
    QueryService,
    campaign_key,
    detector_run_key,
    flp_key,
    lease_run_key,
    register_search_key,
    valency_key,
)
from .store import CertificateStore


def _parse_atoms(text: str):
    """A JSON schedule (list of [tag, ...] atoms) into canonical tuples."""
    atoms = json.loads(text)
    return tuple(tuple(atom) if isinstance(atom, list) else atom
                 for atom in atoms)


def _key_from_args(args) -> Optional[QueryKey]:
    if args.command == "flp":
        return flp_key(args.protocol, n=args.n, stall_stages=args.stall_stages)
    if args.command == "valency":
        inputs = tuple(int(v) for v in args.inputs.split(","))
        return valency_key(args.protocol, n=args.n, inputs=inputs)
    if args.command == "register-search":
        return register_search_key(depth=args.depth)
    if args.command == "campaign":
        targets = tuple(args.targets) if args.targets else None
        return campaign_key(
            targets,
            runs=args.runs,
            master_seed=args.seed,
            shrink=not args.no_shrink,
        )
    if args.command == "detector-run":
        return detector_run_key(
            atoms=_parse_atoms(args.atoms),
            seed=args.seed,
            n=args.n,
            horizon=args.horizon,
            adaptive=not args.no_adaptive,
            initial_timeout=args.initial_timeout,
        )
    if args.command == "lease-run":
        return lease_run_key(
            atoms=_parse_atoms(args.atoms),
            seed=args.seed,
            n=args.n,
            horizon=args.horizon,
            buggy_no_quorum=args.buggy,
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Query the certificate store; run the live engine "
        "only on a miss.",
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="certificate store directory (created on first write)",
    )
    parser.add_argument(
        "--workers", default=1, type=resolve_workers, metavar="N",
        help="worker processes for a live campaign fallback ('auto' = one "
        "per CPU); every other query kind runs serially",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="budget for live fallbacks; incomplete answers are not cached",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flp = sub.add_parser("flp", help="full FLP analysis of one candidate")
    flp.add_argument("--protocol", required=True)
    flp.add_argument("--n", type=int, default=2)
    flp.add_argument("--stall-stages", type=int, default=24)

    valency = sub.add_parser(
        "valency", help="valency of one initial configuration"
    )
    valency.add_argument("--protocol", required=True)
    valency.add_argument("--n", type=int, default=2)
    valency.add_argument(
        "--inputs", required=True, metavar="V,V,...",
        help="comma-separated input vector, e.g. 0,1,1",
    )

    register = sub.add_parser(
        "register-search", help="exhaustive register-consensus census"
    )
    register.add_argument("--depth", type=int, default=2)

    campaign = sub.add_parser("campaign", help="seeded chaos campaign")
    campaign.add_argument("--runs", type=int, default=40)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--targets", nargs="*", default=None, metavar="NAME"
    )
    campaign.add_argument("--no-shrink", action="store_true")

    detector = sub.add_parser(
        "detector-run",
        help="one heartbeat failure-detector run (circumvention layer)",
    )
    detector.add_argument(
        "--atoms", default="[]", metavar="JSON",
        help='partition schedule, e.g. \'[["split", 2, 3]]\'',
    )
    detector.add_argument("--seed", type=int, default=0)
    detector.add_argument("--n", type=int, default=4)
    detector.add_argument("--horizon", type=int, default=40)
    detector.add_argument("--initial-timeout", type=int, default=4)
    detector.add_argument("--no-adaptive", action="store_true")

    lease = sub.add_parser(
        "lease-run", help="one quorum-lease run under a partition schedule"
    )
    lease.add_argument(
        "--atoms", default="[]", metavar="JSON",
        help='partition schedule, e.g. \'[["cut", 0, 0, 1]]\'',
    )
    lease.add_argument("--seed", type=int, default=0)
    lease.add_argument("--n", type=int, default=4)
    lease.add_argument("--horizon", type=int, default=48)
    lease.add_argument(
        "--buggy", action="store_true",
        help="grant leases without a quorum (the planted bug)",
    )

    sub.add_parser("stats", help="list the store's contents and exit")

    args = parser.parse_args(argv)
    store = CertificateStore(args.store)

    if args.command == "stats":
        count = 0
        for kind, fingerprint in store.entries():
            print(f"{kind}  {fingerprint}")
            count += 1
        print(f"{count} entries in {store.root}")
        return 0

    budget = (
        Budget(max_seconds=args.max_seconds)
        if args.max_seconds is not None
        else None
    )
    service = QueryService(store, budget=budget, workers=args.workers)
    key = _key_from_args(args)
    assert key is not None
    answer = service.resolve(key)

    print(json.dumps(answer.result, indent=2, sort_keys=True))
    print(
        f"answered from {answer.source} "
        f"(complete={answer.complete}, key={key.fingerprint()[:16]})",
        file=sys.stderr,
    )
    print(store.stats_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
