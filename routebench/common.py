"""Shared plumbing of the benchmark: paths, clocks, records, process stats.

Everything here runs outside the program under test.  The benchmark
imports the program from the ``src`` directory of the checkout it is
run from, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

#: Checkout root: the directory above the benchmark's own.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run artifacts (sqlite stores, span dumps).
WORK_DIR = ROOT / ".routebench"


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_checkout_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises :class:`MissingProgram` when the checkout has no program, so
    a benchmark run in a bare directory fails instead of measuring
    nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_seconds(repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing the program.

    Import time is the part of set-up a process pays once, so it is
    measured in fresh child processes, several times, to report a
    median like the rest of set-up.
    """
    import subprocess

    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=child_env(), check=True)
        samples.append(time.perf_counter() - began)
    return median(samples)


def child_env() -> dict[str, str]:
    """Environment for program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def machine_record() -> dict:
    """Cores, Python, numpy and numba presence: the record every speed claim needs."""
    import importlib.util

    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def content_hash(documents: list) -> str:
    """SHA-256 of JSON documents, key order normalized."""
    digest = hashlib.sha256()
    for document in documents:
        digest.update(json.dumps(document, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample list."""
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(samples: list[float]) -> float:
    return percentile(samples, 0.5)


def self_peak_rss_mb() -> float:
    """Resident-memory high-water mark of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_stat(pid: int) -> tuple[int, float]:
    """(parent pid, user+system CPU seconds) of *pid* from ``/proc``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        text = handle.read()
    # The command name may contain spaces; fields resume after ")".
    fields = text[text.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / ticks


def process_tree(root: int) -> list[int]:
    """*root* and every live descendant, by scanning ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid, _ = _proc_stat(int(entry))
        except (OSError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(parents.get(pid, ()))
    return tree


def tree_cpu_seconds(pids: list[int]) -> dict[int, float]:
    """CPU seconds used so far by each of *pids* still alive."""
    usage = {}
    for pid in pids:
        try:
            usage[pid] = _proc_stat(pid)[1]
        except (OSError, ValueError):
            continue
    return usage


def tree_peak_rss_mb(pids: list[int]) -> float:
    """Largest ``VmHWM`` among *pids*, in MB."""
    peak = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


def machine_steal_seconds() -> float:
    """CPU seconds the hypervisor took from this machine since boot (0 if unknown)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Window:
    """The timed window: wall and process CPU from start to stop.

    It also records the share of the machine's CPU time the hypervisor
    took during the window (``steal_pct``), the main source of run-to-run
    spread on a shared host.
    """

    def __init__(self) -> None:
        self.wall_started = time.perf_counter()
        self.cpu_started = time.process_time()
        self.steal_started = machine_steal_seconds()
        self.wall = 0.0
        self.cpu = 0.0
        self.steal_pct = 0.0

    def stop(self) -> None:
        self.wall = time.perf_counter() - self.wall_started
        self.cpu = time.process_time() - self.cpu_started
        stolen = machine_steal_seconds() - self.steal_started
        self.steal_pct = 100.0 * stolen / (self.wall * (os.cpu_count() or 1))


def end_to_end(
    *,
    setup_s: float,
    ops: int,
    nets: int,
    latencies_s: list[float],
    wall_s: float,
    cpu_s: float,
    peak_rss_mb: float,
) -> dict:
    """The end-to-end metric block every workload reports."""
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / wall_s, "ops/s"),
        "nets_per_s": (nets / wall_s, "nets/s"),
        "latency_p50_ms": (percentile(latencies_s, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies_s, 0.9) * 1e3, "ms"),
        "cpu_ms_per_op": (cpu_s * 1e3 / ops, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
