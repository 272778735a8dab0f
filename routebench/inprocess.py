"""The in-process driver shared by ``chip-route`` and ``eco-session``.

A workload supplies ``prepare(seed)`` (inputs, base routes, warm-up),
``run_round(state, keep)`` (one round of operations) and
``check(state, kept)`` (output checks on the first round's results).
Every round performs the same operations on the same inputs, so a run
differs from another of the same seed only in how many rounds fit in
the window and how long each took.
"""

from __future__ import annotations

import time

import common
import tracing

#: Set-ups per run; ``setup_s`` reports their median plus the import time.
SETUP_REPEATS = 5


class Op:
    """The outcome of one timed operation."""

    __slots__ = ("latency", "nets", "result", "error")

    def __init__(self, latency=0.0, nets=0, result=None, error=None):
        self.latency, self.nets, self.result, self.error = latency, nets, result, error


def timed(fn, nets_of) -> Op:
    """Call *fn*; time it and count the nets it computed, or record its error."""
    started = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return Op(error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - started
    return Op(latency, nets_of(result), result)


def _rounds(workload, state, seconds: float, keep_first: bool, digest=None):
    """Whole rounds until *seconds* have passed; at least one.

    Results are dropped after each round (after *digest* has seen them),
    except those of the first round when *keep_first* is set: the output
    checks run on them once the window has closed.  Returns the rounds,
    the kept results, the window's wall time and each round's (wall, CPU)
    seconds.
    """
    rounds, kept, spans = [], None, []
    started = time.perf_counter()
    while True:
        round_wall, round_cpu = time.perf_counter(), time.process_time()
        ops = workload.run_round(state)
        spans.append((time.perf_counter() - round_wall, time.process_time() - round_cpu))
        rounds.append(ops)
        for op in ops:
            if digest is not None and op.error is None:
                op.result = digest(op.result)
        if keep_first and kept is None:
            kept = [Op(op.latency, op.nets, op.result, op.error) for op in ops]
        for op in ops:
            op.result = None
        if time.perf_counter() - started >= seconds:
            return rounds, kept, time.perf_counter() - started, spans


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    import_s = common.import_seconds()
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        state = workload.prepare(seed)
        setups.append(time.perf_counter() - began)
    setup_s = import_s + common.median(setups)

    steal_pct = None
    if trace:
        plain, kept, plain_wall, _ = _rounds(workload, state, seconds / 2, keep_first=True)
        installed = tracing.install()
        try:
            summaries = []
            traced, _, traced_wall, _ = _rounds(
                workload, state, seconds / 2, keep_first=False,
                digest=lambda result: summaries.append(tracing.summarize_result(result)),
            )
        finally:
            installed.uninstall()
        overhead = (traced_wall / len(traced)) / (plain_wall / len(plain)) * 100.0 - 100.0
        all_ops = [op for ops in plain + traced for op in ops]
        done = [op for ops in traced for op in ops if op.error is None]
        metrics = tracing.layer_metrics(installed.recorder, summaries, len(done), overhead)
        installed.recorder.dump(common.WORK_DIR / f"spans-{workload.NAME}-{seed}.jsonl")
    else:
        window = common.Window()
        rounds, kept, _, spans = _rounds(workload, state, seconds, keep_first=True)
        window.stop()
        steal_pct = window.steal_pct
        all_ops = [op for ops in rounds for op in ops]
        done = [op for op in all_ops if op.error is None]
        # Rates and CPU per operation are those of the median round, so a
        # round the host slowed down moves them no more than any other.
        ops_per_round = [sum(op.error is None for op in ops) for ops in rounds]
        nets_per_round = [sum(op.nets for op in ops if op.error is None) for ops in rounds]
        metrics = common.end_to_end(
            setup_s=setup_s,
            ops=len(done),
            nets=sum(op.nets for op in done),
            latencies_s=[op.latency for op in done],
            wall_s=window.wall,
            cpu_s=window.cpu,
            peak_rss_mb=common.self_peak_rss_mb(),
        )
        if all(ops_per_round):
            metrics["ops_per_s"]["value"] = common.median(
                [n / wall for n, (wall, _) in zip(ops_per_round, spans)])
            metrics["nets_per_s"]["value"] = common.median(
                [n / wall for n, (wall, _) in zip(nets_per_round, spans)])
            metrics["cpu_ms_per_op"]["value"] = common.median(
                [cpu * 1e3 / n for n, (_, cpu) in zip(ops_per_round, spans)])
    errors = [op.error for op in all_ops if op.error is not None]
    problems = workload.check(state, [op for op in kept if op.error is None])
    return {
        "attempted": len(all_ops),
        "failed": sum(op.error is not None for op in all_ops),
        "metrics": metrics,
        "problems": problems,
        "inputs_sha256": state.inputs_sha256,
        "record": {"rounds": len(all_ops) // max(1, len(kept)), "ops_per_round": len(kept),
                   "setup_repeats_s": setups, "import_s": import_s,
                   "errors": errors[:5], "steal_pct": steal_pct},
    }
