"""Command-line entry point: ``python -m repro.circumvention``.

Both sides of the FLP circumvention from one CLI, plus the detector and
lease runtimes on their own:

    # impossible side: relentless suspicion, consensus stalls
    # (structured budget overdraft, exit 2 — never a safety violation)
    python -m repro.circumvention flp-stall

    # possible side: eventually-accurate suspicion, Omega leads, decides
    python -m repro.circumvention omega --suspect 0:1 --suspect 1:2

    # a failure detector stabilizing through a partition
    python -m repro.circumvention detector --atoms '[["split", 2, 3]]'

    # quorum leases degrading explicitly under a sustained split
    python -m repro.circumvention lease \\
        --atoms '[["split", 0, 3], ["split", 1, 3]]'

    # randomization circumvents FLP: the expected-round sweep, with a
    # confidence interval and a termination-probability gate
    python -m repro.circumvention benor --trials 200 --workers 2

    # the planted anti-correlated coin: termination collapses to 0
    python -m repro.circumvention benor --trials 30 --biased-coin

    # partial synchrony: blackout until GST, then decide (exit 0) — or
    # cap the budget below GST and stall with a receipt (exit 2)
    python -m repro.circumvention gst --gst 6
    python -m repro.circumvention gst --gst 30 --stall

Exit codes: 0 = completed (decided / stabilized), 2 = stalled on budget
(the impossibility receipt), 1 = anything unsafe, which should never
happen.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.budget import Budget, BudgetExceeded
from ..parallel.pool import resolve_workers
from .consensus import run_rotating_consensus
from .detectors import run_heartbeat_detector
from .gst import blackout_atoms, run_gst_consensus
from .leases import run_quorum_lease
from .randomized import expected_rounds


def _parse_atoms(text: str):
    atoms = json.loads(text)
    return tuple(tuple(atom) if isinstance(atom, list) else atom
                 for atom in atoms)


def _suspicion_atoms(pairs: List[str], relentless: List[int]):
    atoms = [("relentless", pid) for pid in relentless]
    for pair in pairs:
        rnd, _, pid = pair.partition(":")
        atoms.append(("suspect", int(rnd), int(pid)))
    return tuple(sorted(atoms))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.circumvention",
        description="Failure detectors, Omega-led consensus and quorum "
        "leases: impossibility circumvented, or stalling with a receipt.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stall = sub.add_parser(
        "flp-stall",
        help="rotating consensus under a relentless full coalition: "
        "no round ever collects a quorum, the run exits via a "
        "structured budget overdraft (exit 2), never unsafely",
    )
    stall.add_argument("--n", type=int, default=3)
    stall.add_argument("--max-steps", type=int, default=120)

    omega = sub.add_parser(
        "omega",
        help="rotating consensus under an eventually-accurate suspicion "
        "schedule: the first clean round's coordinator decides",
    )
    omega.add_argument(
        "--suspect", action="append", default=[], metavar="ROUND:PID",
        help="pid suspects that round's coordinator (repeatable)",
    )
    omega.add_argument(
        "--relentless", action="append", type=int, default=[], metavar="PID",
        help="pid suspects every coordinator forever (repeatable)",
    )
    omega.add_argument("--inputs", default="0,1,1", metavar="V,V,...")
    omega.add_argument("--max-rounds", type=int, default=64)
    omega.add_argument("--max-steps", type=int, default=None)

    detector = sub.add_parser(
        "detector", help="one heartbeat failure-detector run"
    )
    detector.add_argument("--atoms", default="[]", metavar="JSON")
    detector.add_argument("--seed", type=int, default=0)
    detector.add_argument("--n", type=int, default=4)
    detector.add_argument("--horizon", type=int, default=40)
    detector.add_argument("--initial-timeout", type=int, default=4)
    detector.add_argument(
        "--no-adaptive", action="store_true",
        help="disable timeout adaptation (with a low timeout this is "
        "the planted never-stabilizing detector)",
    )

    lease = sub.add_parser(
        "lease", help="one quorum-lease run under a partition schedule"
    )
    lease.add_argument("--atoms", default="[]", metavar="JSON")
    lease.add_argument("--seed", type=int, default=0)
    lease.add_argument("--n", type=int, default=4)
    lease.add_argument("--horizon", type=int, default=48)
    lease.add_argument(
        "--buggy", action="store_true",
        help="grant leases without a quorum (the planted bug)",
    )

    benor = sub.add_parser(
        "benor",
        help="Ben-Or expected-round sweep: seeded trials folded into a "
        "confidence interval, agreement/validity asserted on every seed",
    )
    benor.add_argument("--trials", type=int, default=200)
    benor.add_argument("--seed", type=int, default=0, metavar="MASTER")
    benor.add_argument("--n", type=int, default=4)
    benor.add_argument("--t", type=int, default=1)
    benor.add_argument("--workers", type=resolve_workers, default=1)
    benor.add_argument(
        "--confidence", type=float, default=0.95,
        choices=(0.90, 0.95, 0.99),
    )
    benor.add_argument(
        "--min-termination", type=float, default=0.9, metavar="RATE",
        help="termination-probability gate across the sweep",
    )
    benor.add_argument("--max-events", type=int, default=4000)
    benor.add_argument(
        "--biased-coin", action="store_true",
        help="replace every coin with the process's parity (the planted "
        "anti-correlated bug): termination collapses, safety survives",
    )

    gst = sub.add_parser(
        "gst",
        help="DLS consensus under a pre-GST blackout: decides right "
        "after stabilization, or stalls with a structured receipt when "
        "the step budget cannot reach GST",
    )
    gst.add_argument("--gst", type=int, default=6, metavar="ROUND")
    gst.add_argument("--n", type=int, default=4)
    gst.add_argument("--t", type=int, default=1)
    gst.add_argument("--inputs", default=None, metavar="V,V,...")
    gst.add_argument("--seed", type=int, default=0)
    gst.add_argument("--atoms", default=None, metavar="JSON",
                     help="explicit schedule (overrides --gst blackout)")
    gst.add_argument(
        "--stall", action="store_true",
        help="cap the step budget below n*gst: the run must exhaust it "
        "before stabilization — the DLS impossibility receipt (exit 2)",
    )
    gst.add_argument("--max-steps", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command == "flp-stall":
        atoms = tuple(("relentless", pid) for pid in range(args.n))
        meter = Budget(max_steps=args.max_steps).meter("flp-stall")
        try:
            run = run_rotating_consensus(
                atoms, 0, inputs=(0,) + (1,) * (args.n - 1), meter=meter
            )
        except BudgetExceeded as exc:
            print(
                "STALLED: relentless suspicion starves every round of a "
                f"quorum; budget overdraft after {exc.spent} steps "
                f"(limit {exc.limit}).  No process decided; no process "
                "disagreed.  This stall is the FLP impossibility made "
                "operational — remove the relentless coalition and the "
                "same protocol decides (see the omega subcommand)."
            )
            return 2
        print(f"decided {run.decided} in round {run.rounds} — no stall?")
        return 0

    if args.command == "omega":
        inputs = tuple(int(v) for v in args.inputs.split(","))
        atoms = _suspicion_atoms(args.suspect, args.relentless)
        meter = (
            Budget(max_steps=args.max_steps).meter("omega")
            if args.max_steps is not None
            else None
        )
        try:
            run = run_rotating_consensus(
                atoms, 0, inputs=inputs, max_rounds=args.max_rounds,
                meter=meter,
            )
        except BudgetExceeded as exc:
            print(f"STALLED: budget overdraft after {exc.spent} steps")
            return 2
        if run.decided is None:
            print(f"no decision within {run.rounds} rounds")
            return 2
        print(
            f"decided {run.decided} in round {run.rounds} "
            f"(inputs {inputs}, {len(atoms)} suspicion atoms): the first "
            "round whose coordinator goes unsuspected collects a quorum — "
            "the detector bought back the termination FLP forbids"
        )
        return 0

    if args.command == "detector":
        run = run_heartbeat_detector(
            _parse_atoms(args.atoms),
            args.seed,
            n=args.n,
            horizon=args.horizon,
            initial_timeout=args.initial_timeout,
            adaptive=not args.no_adaptive,
        )
        print(f"leaders:   {run.leaders}")
        print(f"suspects:  {run.suspects}")
        print(
            f"stability: {run.leader_changes} leader change(s), "
            f"last output change at t={run.last_change} "
            f"(horizon {args.horizon})"
        )
        print(f"trace:     {run.trace.fingerprint()[:16]} (replayable)")
        live = set(run.leaders)
        stable = len({run.leaders[p] for p in live}) == 1
        return 0 if stable else 1

    if args.command == "lease":
        run = run_quorum_lease(
            _parse_atoms(args.atoms),
            args.seed,
            n=args.n,
            horizon=args.horizon,
            buggy_no_quorum=args.buggy,
        )
        print(f"leases:  {run.leases}")
        print(f"commits: {run.commits}")
        degraded = [
            (e.actor, e.time, e.payload[1])
            for e in run.trace.events
            if isinstance(e.payload, tuple)
            and e.payload
            and e.payload[0] == "degraded"
        ]
        if degraded:
            print(f"degraded-mode transitions: {degraded}")
        overlaps = [
            (x, y)
            for i, x in enumerate(run.leases)
            for y in run.leases[i + 1:]
            if x[0] != y[0] and x[1] < y[2] and y[1] < x[2]
        ]
        if overlaps:
            print(f"UNSAFE: concurrent leases {overlaps}")
            return 1
        print(f"trace:   {run.trace.fingerprint()[:16]} (replayable)")
        return 0

    if args.command == "benor":
        sweep = expected_rounds(
            args.trials,
            args.seed,
            n=args.n,
            t=args.t,
            biased_coin=args.biased_coin,
            max_events=args.max_events,
            confidence=args.confidence,
            workers=args.workers,
        )
        coin = "biased (pid parity)" if args.biased_coin else "fair"
        print(
            f"Ben-Or sweep: {sweep.trials} trials, n={args.n} t={args.t}, "
            f"{coin} coin"
        )
        print(
            f"  termination: {sweep.decided}/{sweep.trials} "
            f"(rate {sweep.termination_rate:.3f}, "
            f"gate {args.min_termination})"
        )
        print(
            f"  expected rounds: {sweep.mean_rounds:.3f} "
            f"[{sweep.ci_low:.3f}, {sweep.ci_high:.3f}] at "
            f"{int(sweep.confidence * 100)}% confidence "
            f"(worst {sweep.worst_rounds})"
        )
        if sweep.violations:
            for violation in sweep.violations:
                print(f"UNSAFE: {violation}")
            return 1
        print("  safety: agreement and validity held on every seed")
        if not sweep.ok(args.min_termination):
            print(
                f"STALLED: termination rate {sweep.termination_rate:.3f} "
                f"below the {args.min_termination} gate — randomization "
                "has stopped buying back the termination FLP forbids "
                "(the planted anti-correlated coin re-creates the split "
                "input every phase)."
            )
            return 2
        return 0

    if args.command == "gst":
        if args.inputs is not None:
            inputs = tuple(int(v) for v in args.inputs.split(","))
        else:
            inputs = tuple(i % 2 for i in range(args.n))
        if args.atoms is not None:
            atoms = _parse_atoms(args.atoms)
        else:
            atoms = blackout_atoms(args.gst, len(inputs))
        n = len(inputs)
        if args.max_steps is not None:
            max_steps = args.max_steps
        elif args.stall:
            max_steps = max(n * args.gst - n, n)  # runs out before GST
        else:
            max_steps = None
        meter = (
            Budget(max_steps=max_steps).meter("gst")
            if max_steps is not None
            else None
        )
        try:
            run = run_gst_consensus(
                atoms, args.seed, inputs=inputs, t=args.t, meter=meter
            )
        except BudgetExceeded as exc:
            print(
                f"STALLED: pre-GST blackout; budget overdraft after "
                f"{exc.spent} steps (limit {exc.limit}) with GST at round "
                f"{args.gst} still ahead.  No process decided; no process "
                "disagreed.  This stall is the DLS impossibility made "
                "operational — the same schedule with budget past GST "
                "decides in the first stabilized round."
            )
            return 2
        decided = {v for v in run.decisions.values() if v is not None}
        if not decided:
            print(f"no decision within {run.rounds} rounds (gst={run.gst})")
            return 2
        if len(decided) > 1:
            print(f"UNSAFE: conflicting decisions {sorted(decided)}")
            return 1
        print(
            f"decided {decided.pop()} in round {run.rounds} "
            f"(GST at round {run.gst}): the first stabilized round's "
            "coordinator collects a quorum — eventual synchrony bought "
            "back the termination FLP forbids"
        )
        print(f"trace: {run.trace.fingerprint()[:16]} (replayable)")
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
