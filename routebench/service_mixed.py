"""``service-mixed``: the HTTP service under mixed traffic.

The server is ``python -m repro serve --executor process --workers 2``
over a fresh sqlite store, in its own process.  This process generates
the load: two client threads in a closed loop, each through its own
``repro.service.Client`` and its own session of requests.  Per client,
one round is sixteen operations, four times the pattern

    miss(2k), miss(2k+1), hit(2k), reroute(2k+1)    for k = 0..3

A miss routes a layout the server has not seen (default config: scalar
engine, ``single``); a hit repeats the client's own earlier request; a
reroute amends the client's own earlier base, which the server
warm-starts from its store.  Each round renames every net with the
round number, so the cache keys of a round are new while its routing
work is that of every other round.  The two clients meet at a barrier
after each round, and the run ends at the first barrier past the window.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import checks
import common
import inputs
import tracing
from repro import RerouteRequest, RouteRequest, RouteResult, RoutingPipeline
from repro.service import Client

NAME = "service-mixed"
CLIENTS = 2
#: Server start-ups per run; ``setup_s`` reports their median plus the import time.
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: The order of one client's round: (kind, miss-layout index).
ROUND = tuple(op for k in range(0, inputs.SERVICE_MISSES, 2)
              for op in (("miss", k), ("miss", k + 1), ("hit", k), ("reroute", k + 1)))
ORACLE_SAMPLE = 3


class Server:
    """One ``repro serve`` process over a fresh sqlite store."""

    def __init__(self, tag: str):
        common.WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.store = common.WORK_DIR / f"store-{os.getpid()}-{tag}.sqlite"
        self.log = common.WORK_DIR / f"server-{os.getpid()}-{tag}.log"
        for path in (self.store, self.log):
            if path.exists():
                path.unlink()
        self._log_handle = open(self.log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--executor", "process", "--workers", "2", "--store", f"sqlite:{self.store}"],
            cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.DEVNULL, stderr=self._log_handle,
        )
        self.url = None

    def wait_ready(self) -> Client:
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.url is None:
            match = re.search(r"listening on (http://\S+)", self.log.read_text(encoding="utf-8"))
            if match:
                self.url = match.group(1)
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text(encoding='utf-8')}")
            time.sleep(0.01)
        client = Client(self.url)
        while True:
            try:
                client.healthz()
                return client
            except Exception:  # noqa: BLE001 - not answering yet
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def tree(self) -> list[int]:
        return common.process_tree(self.process.pid)

    def stop(self) -> None:
        """SIGTERM the server, wait for it and for every process it started."""
        pids = self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in pids[1:]:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._log_handle.close()
        for path in (self.store, self.log):
            if path.exists():
                path.unlink()


class Session:
    """One client's fixed requests; a round renames them to stay distinct."""

    def __init__(self, seed: int, client_index: int):
        self.layouts = inputs.service_layouts(seed, client_index)
        self.deltas = inputs.service_deltas(seed, client_index, self.layouts)

    def documents(self) -> list:
        return ([RouteRequest(layout=layout).to_dict() for layout in self.layouts]
                + [delta.to_dict() for _, delta in sorted(self.deltas.items())])

    def route_request(self, index: int, round_index: int) -> RouteRequest:
        return RouteRequest(layout=inputs.round_layout(self.layouts[index], round_index))

    def reroute_request(self, index: int, round_index: int) -> RerouteRequest:
        return RerouteRequest(base=self.route_request(index, round_index),
                              delta=inputs.round_delta(self.deltas[index], round_index))


class Op:
    __slots__ = ("kind", "index", "latency", "nets", "encode", "decode", "job", "result", "error")

    def __init__(self, kind, index):
        self.kind, self.index = kind, index
        self.latency = self.encode = self.decode = 0.0
        self.nets, self.job, self.result, self.error = 0, None, None, None


def call(client: Client, session: Session, kind: str, index: int, round_index: int) -> Op:
    op = Op(kind, index)
    started = time.perf_counter()
    try:
        if kind == "reroute":
            request = session.reroute_request(index, round_index)
        else:
            request = session.route_request(index, round_index)
        encode_started = time.perf_counter()
        body = request.to_dict()
        op.encode = time.perf_counter() - encode_started
        submit = client.submit_reroute if kind == "reroute" else client.submit
        job = submit(body, wait=True)
        if job["state"] != "done":
            raise RuntimeError(f"job {job['id']} {job['state']}: {job.get('error')}")
        decode_started = time.perf_counter()
        result = RouteResult.from_dict(job.pop("result"))
        op.decode = time.perf_counter() - decode_started
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        op.error = f"{kind}{index}: {type(exc).__name__}: {exc}"
        return op
    op.latency = time.perf_counter() - started
    op.job, op.result = job, result
    if kind == "miss":
        op.nets = len(result.route.trees)
    elif kind == "reroute":
        op.nets = int(result.timings["ripped_nets"] + result.timings["new_nets"])
    return op


def _flag_problem(op: Op):
    job = op.job
    if op.kind == "hit" and not job["cache_hit"]:
        return f"hit{op.index} missed the cache"
    if op.kind == "miss" and job["cache_hit"]:
        return f"miss{op.index} hit the cache"
    if op.kind == "reroute" and (job["cache_hit"] or job["incremental"] is not True):
        return f"reroute{op.index} did not warm-start"
    return None


def load(clients, sessions, seconds: float, first_round: int, keep_first: bool,
         summaries=None):
    """Closed-loop rounds on every client until the first barrier past *seconds*.

    Results are dropped after each round, after *summaries* (when given)
    has received their layer summaries; the first round's are kept for
    the output checks when *keep_first* is set.
    """
    stop = threading.Event()
    started = time.perf_counter()

    def decide():
        if time.perf_counter() - started >= seconds:
            stop.set()

    barrier = threading.Barrier(CLIENTS, action=decide)
    per_client = [[] for _ in range(CLIENTS)]
    kept = [None] * CLIENTS
    flags = []

    def worker(c: int):
        round_index = first_round
        while True:
            ops = [call(clients[c], sessions[c], kind, index, round_index)
                   for kind, index in ROUND]
            for op in ops:
                if op.error is None:
                    if summaries is not None and op.kind != "hit":
                        summaries.append(tracing.summarize_result(op.result))
                    problem = _flag_problem(op)
                    if problem:
                        flags.append(f"client {c} round {round_index}: {problem}")
            if keep_first and kept[c] is None:
                kept[c] = list(ops)
            else:
                for op in ops:
                    op.result = None
            per_client[c].append(ops)
            barrier.wait()
            if stop.is_set():
                return
            round_index += 1

    # Daemon threads: if the run is interrupted, the process must not wait on them.
    threads = [threading.Thread(target=worker, args=(c,), daemon=True) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    rounds = len(per_client[0])
    ops = [op for c in range(CLIENTS) for ops in per_client[c] for op in ops]
    return ops, kept, wall, rounds, flags


def _warm_up(clients, seed: int) -> None:
    """Route and reroute one throwaway session per client, concurrently."""
    warm = [Session(seed + 7919 * (c + 1), c) for c in range(CLIENTS)]
    threads = [
        threading.Thread(target=lambda c=c: [call(clients[c], warm[c], kind, index, -1)
                                             for kind, index in (("miss", 1), ("reroute", 1))])
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _start(seed: int, tag: str):
    server = Server(tag)
    try:
        client = server.wait_ready()
        clients = [Client(server.url) for _ in range(CLIENTS)]
        _warm_up(clients, seed)
    except BaseException:
        server.stop()
        raise
    return server, client, clients


def check(sessions, kept) -> list[str]:
    problems = []
    pipeline = RoutingPipeline()
    for c, ops in enumerate(kept):
        session = sessions[c]
        results = {}
        for op in ops:
            if op.error is not None:
                continue
            label = f"client {c} {op.kind}{op.index}"
            if op.kind == "reroute":
                layout = session.reroute_request(op.index, 0).mutated_request().layout
            else:
                layout = inputs.round_layout(session.layouts[op.index], 0)
            problems += [f"{label}: {p}" for p in checks.check_geometry(op.result.route, layout)]
            if op.result.violations:
                problems.append(f"{label}: the program's verifier reports violations")
            if op.kind == "miss":
                results[op.index] = op.result
                problems += [f"{label}: {p}" for p in
                             checks.check_oracle_lengths(op.result.route, layout, ORACLE_SAMPLE)]
            elif op.kind == "hit" and op.index in results:
                problems += checks.check_same_route(op.result.route, results[op.index].route,
                                                    f"{label} against the original result")
            elif op.kind == "reroute" and op.index in results:
                local = pipeline.reroute(session.reroute_request(op.index, 0),
                                         prev_result=pipeline.run(session.route_request(op.index, 0)))
                problems += checks.check_same_route(op.result.route, local.route,
                                                    f"{label} against an in-process reroute")
        if 0 in results:
            local = pipeline.run(session.route_request(0, 0))
            problems += checks.check_same_route(results[0].route, local.route,
                                                f"client {c} miss0 against an in-process run")
    return problems


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after[key] - before[key])


def run(seed: int, seconds: float, trace: bool) -> dict:
    import_s = common.import_seconds()
    sessions = [Session(seed, c) for c in range(CLIENTS)]
    digest = common.content_hash([doc for s in sessions for doc in s.documents()])
    setups = []
    server = None
    steal_pct = None
    # A SIGTERM must still run the finally below, which stops the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            server, client, clients = _start(seed, str(repeat))
            setups.append(time.perf_counter() - began)
        setup_s = import_s + common.median(setups)

        if trace:
            plain_ops, kept, plain_wall, plain_rounds, flags = load(
                clients, sessions, seconds / 2, 0, keep_first=True)
            before = client.metrics()
            pids = server.tree()
            cpu_before = common.tree_cpu_seconds(pids)
            summaries = []
            traced_ops, _, traced_wall, traced_rounds, traced_flags = load(
                clients, sessions, seconds / 2, plain_rounds, keep_first=False,
                summaries=summaries)
            cpu_after = common.tree_cpu_seconds(server.tree())
            after = client.metrics()
            flags += traced_flags
            ops = plain_ops + traced_ops
            done = [op for op in traced_ops if op.error is None]
            n = len(done) or 1
            overhead = (traced_wall / traced_rounds) / (plain_wall / plain_rounds) * 100.0 - 100.0
            extra = {
                "api.request_encode_ms": sum(op.encode for op in done) * 1e3 / n,
                "api.result_decode_ms": sum(op.decode for op in done) * 1e3 / n,
                "service.queue_wait_ms": sum(op.job["timings"]["queued"] or 0.0 for op in done) * 1e3 / n,
                "service.job_ms": sum(op.job["timings"]["route"] or 0.0 for op in done) * 1e3 / n,
                "service.wire_ms": sum(op.latency - op.job["timings"]["total"] - op.encode - op.decode
                                       for op in done) * 1e3 / n,
                "service.cache_hits": _delta(after, before, "cache_hits") / n,
                "service.reroutes": _delta(after, before, "reroutes") / n,
                "service.reroute_fallbacks": _delta(after, before, "reroute_fallbacks") / n,
                "service.coalesced": _delta(after, before, "coalesced") / n,
                "service.server_cpu_s": sum(cpu_after.get(p, 0.0) - cpu_before.get(p, 0.0)
                                            for p in cpu_after),
            }
            metrics = tracing.layer_metrics(None, summaries, len(done), overhead, extra)
            fallbacks = after["reroute_fallbacks"]
        else:
            pids = server.tree()
            cpu_before = common.tree_cpu_seconds(pids)
            window = common.Window()
            ops, kept, wall, rounds, flags = load(clients, sessions, seconds, 0, keep_first=True)
            window.stop()
            steal_pct = window.steal_pct
            pids = server.tree()
            cpu_after = common.tree_cpu_seconds(pids)
            peak = common.tree_peak_rss_mb(pids)
            fallbacks = client.metrics()["reroute_fallbacks"]
            done = [op for op in ops if op.error is None]
            cpu = sum(cpu_after.get(p, 0.0) - cpu_before.get(p, 0.0) for p in cpu_after)
            metrics = common.end_to_end(
                setup_s=setup_s, ops=len(done), nets=sum(op.nets for op in done),
                latencies_s=[op.latency for op in done], wall_s=wall, cpu_s=cpu,
                peak_rss_mb=peak,
            )
    finally:
        if server is not None:
            server.stop()
    problems = list(flags)
    if fallbacks:
        problems.append(f"{fallbacks} reroute(s) fell back to a from-scratch route")
    problems += check(sessions, [[op for op in k if op.error is None] for k in kept])
    errors = [op.error for op in ops if op.error is not None]
    return {
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
        "problems": problems,
        "inputs_sha256": digest,
        "record": {"ops_per_round": CLIENTS * len(ROUND), "setup_repeats_s": setups,
                   "import_s": import_s, "errors": errors[:5], "steal_pct": steal_pct},
    }
