"""``eco-session``: chains of small edits applied to routed designs, in one process.

Set-up routes each chain's base once.  A round then replays each
chain's seeded deltas through ``RoutingPipeline.reroute``, every step
amending the previous step's result, starting again from the base.

* Chain A: ``single`` on the vectorized engine, a 6x6 grid of 120 nets,
  net edits only.
* Chain B: ``negotiated`` on a congested 3x3 grid, net edits and a cell
  nudge.  Its base and every step must reach zero overflow within the
  wave cap, because a reroute of a result that has not converged runs
  the whole negotiation again; the first base, and per step the first
  delta, that does is kept.  Chain B is the same for every seed: how
  many waves its steps take varies from seed to seed (a step's mean
  latency ranged 10-66 ms over seeds 1-6), and that would move a
  round's work by up to a tenth.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import checks
import common
import inprocess
import inputs
from repro import RerouteRequest, RoutingPipeline, apply_delta

NAME = "eco-session"

#: Deltas drawn per chain-B step before set-up gives up on convergence.
B_DELTA_TRIES = 20
#: The seed chain B's inputs are drawn from, whatever ``--seed`` is.
CHAIN_B_SEED = 1


@dataclass
class Chain:
    label: str
    base: object  # RouteRequest
    base_result: object  # RouteResult
    deltas: list


@dataclass
class State:
    chains: list
    inputs_sha256: str
    pipeline: RoutingPipeline


@functools.lru_cache(maxsize=None)
def _chain_b_inputs(seed: int):
    """Chain B's base request and deltas: the first that converge.

    The search reroutes candidates until they converge, a seed-dependent
    amount of work that is the benchmark's, not the program's.  It runs
    once per process; the repeated set-ups reuse its choice, so the
    median set-up measures routing the bases, not this search.
    """
    pipeline = RoutingPipeline()
    for base, rng in inputs.eco_chain_b_candidates(seed):
        result = pipeline.run(base)
        if result.converged:
            break
    deltas, state, prev = [], base.layout, result
    for step, kind in enumerate(inputs.ECO_B_SCHEDULE):
        for _ in range(B_DELTA_TRIES):
            delta = inputs.eco_delta(state, rng, f"b{step}", kind)
            candidate = pipeline.reroute(RerouteRequest(base=base.with_layout(state), delta=delta),
                                         prev_result=prev)
            if candidate.converged:
                break
        else:
            raise RuntimeError(f"no converging chain-B delta at step {step}")
        deltas.append(delta)
        state, prev = apply_delta(state, delta), candidate
    return base, tuple(deltas)


def prepare(seed: int) -> State:
    pipeline = RoutingPipeline()
    base_a, deltas_a = inputs.eco_chain_a(seed)
    chain_a = Chain("A", base_a, pipeline.run(base_a), deltas_a)
    base_b, deltas_b = _chain_b_inputs(CHAIN_B_SEED)
    chain_b = Chain("B", base_b, pipeline.run(base_b), list(deltas_b))
    chains = [chain_a, chain_b]
    # Warm-up: the first step of chain A, outside the window.
    pipeline.reroute(RerouteRequest(base=base_a, delta=deltas_a[0]), prev_result=chain_a.base_result)
    digest = common.content_hash(
        [chain.base.to_dict() for chain in chains]
        + [delta.to_dict() for chain in chains for delta in chain.deltas]
    )
    return State(chains, digest, pipeline)


def _dirty(result) -> int:
    return int(result.timings["ripped_nets"] + result.timings["new_nets"])


def run_round(state: State) -> list:
    ops = []
    for chain in state.chains:
        prev, layout = chain.base_result, chain.base.layout
        for delta in chain.deltas:
            request = RerouteRequest(base=chain.base.with_layout(layout), delta=delta)
            op = inprocess.timed(
                lambda r=request, p=prev: state.pipeline.reroute(r, prev_result=p), _dirty
            )
            ops.append(op)
            if op.error is not None:
                break
            prev, layout = op.result, apply_delta(layout, delta)
    return ops


#: Net-only chain-A steps compared against a from-scratch route, per run.
SCRATCH_SAMPLE = 3
#: Two-terminal nets per chain-A step compared against the track-graph oracle.
ORACLE_SAMPLE = 3


def check(state: State, kept: list) -> list[str]:
    problems = []
    expected = sum(len(chain.deltas) for chain in state.chains)
    if len(kept) != expected:
        problems.append(f"{expected - len(kept)} reroute(s) failed in the first round")
    index, scratch_checked = 0, 0
    for chain in state.chains:
        layout = chain.base.layout
        for step, delta in enumerate(chain.deltas):
            if index >= len(kept):
                return problems
            result = kept[index].result
            index += 1
            layout = apply_delta(layout, delta)
            label = f"chain {chain.label} step {step}"
            problems += [f"{label}: {p}" for p in checks.check_geometry(result.route, layout)]
            if result.violations:
                problems.append(f"{label}: the program's verifier reports violations")
            if chain.label == "B":
                problems += [f"{label}: {p}" for p in checks.check_best_wave(result)]
                continue
            problems += [f"{label}: {p}"
                         for p in checks.check_oracle_lengths(result.route, layout, ORACLE_SAMPLE)]
            if not delta.move_cells and scratch_checked < SCRATCH_SAMPLE:
                scratch = state.pipeline.run(chain.base.with_layout(layout))
                problems += checks.check_same_route(result.route, scratch.route,
                                                    f"{label} against a from-scratch route")
                scratch_checked += 1
    return problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    return inprocess.run(sys.modules[__name__], seed, seconds, trace)
