"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 routebench/run.py --workload chip-route --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds with the layer wrappers of :mod:`tracing` installed for the
second half of the window and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the machine and the content hash of the run's inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("chip-route", "eco-session", "service-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        common.use_checkout_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "service-mixed":
        import service_mixed as workload
    elif args.workload == "chip-route":
        import chip_route as workload
    else:
        import eco_session as workload
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": outcome["inputs_sha256"],
        "machine": common.machine_record(),
        "problems": outcome["problems"][:20],
        **outcome.get("record", {}),
    }}))
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
