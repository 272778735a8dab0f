"""Determinism check: two traced runs of a workload must count the same work.

Usage (from the root of a checkout)::

    python3 routebench/determinism.py --workload chip-route --seed 1 --seconds 10

Runs the workload twice with ``--trace 1`` and compares the per-layer
work counts exactly.  Every round of a run repeats the same operations,
and counts are reported per operation, so equal counts show that the
spread between runs is timing alone.  ``service.reroute_fallbacks`` must
also be 0: a fallback would route from scratch and change the work.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: Counts that must repeat exactly.
COUNTS = (
    "search.connections",
    "search.expanded",
    "search.generated",
    "search.reopened",
    "core.waves",
    "core.nets_rerouted",
    "core.overflow",
    "core.wirelength",
    "incremental.dirty_nets",
    "service.cache_hits",
    "service.reroutes",
    "service.coalesced",
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    run = Path(__file__).resolve().parent / "run.py"
    out = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    ok = first["correct"] and second["correct"]
    for name in COUNTS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        same = a == b
        ok &= same
        print(f"{name:28s} {a!r:>24} {b!r:>24} {'same' if same else 'DIFFERENT'}")
    fallbacks = [run["metrics"]["service.reroute_fallbacks"]["value"] for run in (first, second)]
    print(f"{'service.reroute_fallbacks':28s} {fallbacks[0]!r:>24} {fallbacks[1]!r:>24}")
    ok &= fallbacks == [0.0, 0.0]
    print("work counts repeat exactly" if ok else "work counts DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
