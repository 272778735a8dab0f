"""Self-test of the output checks: each must pass clean output and fail corrupted output.

Usage (from the root of a checkout)::

    python3 routebench/selftest.py

Routes three small layouts (``single``, ``negotiated``, ``timing-driven``),
confirms every check passes on the results, then corrupts copies of
them — a segment through a cell, a dropped terminal, an inflated
length, a returned wave that is not the least, a delay below the
Manhattan distance, a criticality above 1, a moved point — and confirms
that the check meant to catch each corruption fails.  Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import common


def main() -> int:
    try:
        common.use_checkout_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import checks
    import inputs
    from repro import Point, RouteRequest, RouterConfig, RoutingPipeline
    from repro.core.route import RoutePath
    from repro.scenarios import build_scenario

    pipeline = RoutingPipeline()
    layout = inputs.macro_grid(3, 12, inputs.rng_for(0, "selftest"), terminals=(2, 3))
    single = pipeline.run(RouteRequest(layout=layout))
    negotiated = pipeline.run(RouteRequest(
        layout=layout, config=RouterConfig(engine="vectorized"), strategy="negotiated",
        strategy_params={"max_iterations": 2}))
    scenario = build_scenario("long-critical-nets", seed=0)
    timed = pipeline.run(RouteRequest(
        layout=scenario.layout, strategy="timing-driven", strategy_params={"max_iterations": 1}))

    two_terminal = next(net.name for net in layout.nets if len(net.terminals) == 2)
    multi = next(net.name for net in layout.nets if len(net.terminals) > 2)
    cell = layout.cells[4].bounding_box

    def through_cell(result):
        bad = copy.deepcopy(result)
        mid = (cell.y0 + cell.y1) // 2
        bad.route.trees[two_terminal].paths.append(
            RoutePath((Point(cell.x0 - 1, mid), Point(cell.x1 + 1, mid)), cost=0.0))
        return bad

    def dropped_terminal(result):
        bad = copy.deepcopy(result)
        bad.route.trees[multi].paths.pop()
        return bad

    def inflated(result):
        bad = copy.deepcopy(result)
        tree = bad.route.trees[two_terminal]
        points = tree.paths[0].points
        tree.paths[0] = RoutePath(tuple(points) + tuple(reversed(points))[1:] + tuple(points)[1:],
                                  cost=0.0)
        return bad

    def better_wave(result):
        bad = copy.deepcopy(result)
        first = bad.iterations[0]
        bad.iterations = (dataclasses.replace(
            first, total_overflow=0, wirelength=bad.route.total_length - 1),) + bad.iterations[1:]
        return bad

    def short_delay(result):
        bad = copy.deepcopy(result)
        name = next(iter(bad.timing.nets))
        bad.timing.nets[name] = dataclasses.replace(bad.timing.nets[name], delay=0.0)
        return bad

    def high_criticality(result):
        bad = copy.deepcopy(result)
        name = next(iter(bad.timing.nets))
        bad.timing.nets[name] = dataclasses.replace(bad.timing.nets[name], criticality=1.5)
        return bad

    def moved_point(result):
        bad = copy.deepcopy(result)
        tree = bad.route.trees[two_terminal]
        points = list(tree.paths[0].points)
        points[-1] = Point(points[-1].x + 1, points[-1].y)
        tree.paths[0] = RoutePath(tuple(points), cost=0.0)
        return bad

    geometry = ("geometry", lambda r: checks.check_geometry(r.route, layout))
    oracle = ("oracle length", lambda r: checks.check_oracle_lengths(r.route, layout, 100))
    best_wave = ("least wave", checks.check_best_wave)
    timing = ("timing", lambda r: checks.check_timing(r, scenario.layout))
    same = ("same route", lambda r: checks.check_same_route(r.route, single.route, "copy"))

    clean = [(single, geometry), (single, oracle), (single, same),
             (negotiated, geometry), (negotiated, best_wave), (timed, timing)]
    corrupted = [
        ("segment through a cell", through_cell(single), geometry, "interior"),
        ("dropped terminal", dropped_terminal(single), geometry, "not connected"),
        ("inflated length", inflated(single), oracle, "oracle"),
        ("returned wave not the least", better_wave(negotiated), best_wave, "least wave"),
        ("delay below distance", short_delay(timed), timing, "below distance"),
        ("criticality above 1", high_criticality(timed), timing, "criticality"),
        ("moved point", moved_point(single), same, "differ"),
    ]
    ok = True
    for result, (name, check) in clean:
        problems = check(result)
        print(f"clean     {name:14s} {'pass' if not problems else 'FAIL ' + problems[0]}")
        ok &= not problems
    for label, result, (name, check), expected in corrupted:
        problems = check(result)
        caught = any(expected in problem for problem in problems)
        print(f"corrupted {name:14s} {label:28s} {'caught' if caught else 'MISSED'}")
        ok &= caught
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
