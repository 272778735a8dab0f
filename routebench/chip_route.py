"""``chip-route``: full-chip routing from scratch, in one process.

One round routes every layout of :func:`inputs.chip_requests` through
``RoutingPipeline.run`` serially, verify on: negotiated macro grids on
the vectorized engine with a fixed wave cap, then timing-driven
long-critical-nets scenarios (which search on the scalar oracle).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import checks
import common
import inprocess
import inputs
from repro import RoutingPipeline

NAME = "chip-route"


@dataclass
class State:
    requests: list
    inputs_sha256: str
    pipeline: RoutingPipeline


def prepare(seed: int) -> State:
    requests = inputs.chip_requests(seed)
    pipeline = RoutingPipeline()
    for request in inputs.chip_warmup():
        pipeline.run(request)
    digest = common.content_hash([request.to_dict() for request in requests])
    return State(requests, digest, pipeline)


def run_round(state: State) -> list:
    return [
        inprocess.timed(lambda r=request: state.pipeline.run(r),
                        lambda result: len(result.route.trees))
        for request in state.requests
    ]


def check(state: State, kept: list) -> list[str]:
    problems = []
    if len(kept) != len(state.requests):
        problems.append(f"{len(state.requests) - len(kept)} route(s) failed in the first round")
    for request, op in zip(state.requests, kept):
        result, layout = op.result, request.layout
        label = f"{request.strategy}/{len(layout.nets)} nets"
        problems += [f"{label}: {p}" for p in checks.check_geometry(result.route, layout)]
        problems += [f"{label}: {p}" for p in checks.check_best_wave(result)]
        if request.strategy == "timing-driven":
            problems += [f"{label}: {p}" for p in checks.check_timing(result, layout)]
        if result.violations:
            problems.append(f"{label}: the program's verifier reports {len(result.violations)} net(s)")
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    return inprocess.run(sys.modules[__name__], seed, seconds, trace)
