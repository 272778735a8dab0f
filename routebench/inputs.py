"""Seeded inputs of every workload, made only with the program's public generators.

Each input is derived from ``--seed`` and a tag naming its role, so the
same seed always yields the same inputs and one input never shifts
because another one changed.  :func:`hash_requests` gives the content
hash every run records.
"""

from __future__ import annotations

import random

from repro import (
    CellMove,
    Layout,
    LayoutDelta,
    LayoutSpec,
    Net,
    RouterConfig,
    RouteRequest,
    Terminal,
    apply_delta,
    grid_layout,
    validate_layout,
)
from repro.errors import LayoutError, ValidationError
from repro.layout.generators import random_netlist
from repro.scenarios import build_scenario

#: chip-route: (grid side, nets) of the negotiated layouts of one round.
CHIP_NEGOTIATED = ((5, 40), (5, 48), (6, 48), (6, 56))
#: chip-route: long-critical-nets parameters of the timing-driven layouts.
CHIP_TIMING = dict(rows=4, cols=4, cell_side=16, gap=3, margin=5, n_critical=4, n_filler=36)
CHIP_TIMING_LAYOUTS = 2
NEGOTIATED_WAVE_CAP = 1
TIMING_WAVE_CAP = 2

#: eco-session: the edit kinds of each chain, in order; one round replays
#: both.  The schedule is the same for every seed.  Chain A edits nets
#: only, so every round recomputes the same number of nets (a nudge rips
#: a seed-dependent number of routes near the moved cell).  Chain A has
#: four times the steps of chain B, so the median step is one of chain A's.
ECO_A_SCHEDULE = ("replace:4", "add", "replace:1", "remove", "replace:2", "replace:4",
                  "add", "replace:3", "remove", "replace:4", "replace:2", "add") * 2
ECO_B_SCHEDULE = ("replace:1", "add", "nudge", "remove", "replace:2", "add")
ECO_B_WAVE_CAP = 8

#: service-mixed: miss layouts per client per round, and their size.
SERVICE_MISSES = 8
SERVICE_GRID = (4, 20, (2, 3))


def rng_for(seed: int, tag: str) -> random.Random:
    """An independent stream per (seed, role); string seeding is stable across processes."""
    return random.Random(f"routebench:{seed}:{tag}")


def _renamed(net: Net, name: str) -> Net:
    return Net(name, [
        Terminal(f"{name}.t{index}", terminal.pins)
        for index, terminal in enumerate(net.terminals)
    ])


def fresh_nets(layout, names: list[str], rng: random.Random, terminals=(2, 4)) -> list[Net]:
    """Random nets over *layout*'s cells, under the given names."""
    spec = LayoutSpec(terminals_per_net=terminals, pad_fraction=0.0)
    nets = random_netlist(layout, len(names), rng=rng, spec=spec)
    return [_renamed(net, name) for net, name in zip(nets, names)]


#: Median total half-perimeter wirelength of :func:`macro_grid` netlists,
#: by (grid side, nets, terminal range), measured over 150 draws of
#: ``random_netlist`` with the same terminal counts.
HPWL_TARGETS = {
    (5, 40, (2, 6)): 5440,
    (5, 48, (2, 6)): 6410,
    (6, 48, (2, 6)): 7590,
    (6, 56, (2, 6)): 8880,
    (6, 120, (2, 4)): 16300,
    (4, 20, (2, 3)): 1620,
}
#: The same for the long-critical-nets layouts of :data:`CHIP_TIMING`
#: (whose netlists the scenario family draws itself).
TIMING_HPWL_TARGET = 2340
#: Accepted relative distance from an HPWL target.
HPWL_TOLERANCE = 0.02


def _near(value: int, target: int) -> bool:
    return abs(value - target) <= HPWL_TOLERANCE * target


def macro_grid(side: int, n_nets: int, rng: random.Random, terminals=(2, 6)):
    """A side x side macro grid with a random netlist of fixed size.

    Terminal counts cycle through the range (so every layout of one size
    has the same terminal total), and the netlist is drawn again until
    its total half-perimeter wirelength lies within 2% of the size's
    target.  Layouts of one size then differ in where their pins are,
    not in how many there are or how far apart, which keeps the work of
    a round nearly the same from seed to seed.
    """
    low, high = terminals
    counts = [low + index % (high - low + 1) for index in range(n_nets)]
    hpwl_target = HPWL_TARGETS.get((side, n_nets, tuple(terminals)))
    while True:
        layout = grid_layout(side, side, cell_width=20, cell_height=20, gap=3, margin=8)
        draw = random.Random(rng.getrandbits(64))
        draw.shuffle(counts)
        nets = []
        for index, count in enumerate(counts):
            spec = LayoutSpec(terminals_per_net=(count, count), pad_fraction=0.0)
            net, = random_netlist(layout, 1, rng=draw, spec=spec)
            nets.append(_renamed(net, f"n{index}"))
        if hpwl_target is not None and not _near(sum(net.hpwl for net in nets), hpwl_target):
            continue
        for net in nets:
            layout.add_net(net)
        return layout


# ----------------------------------------------------------------------
# chip-route
# ----------------------------------------------------------------------
def chip_requests(seed: int) -> list[RouteRequest]:
    """One round of chip-route: negotiated grids, then timing-driven scenarios."""
    vectorized = RouterConfig(engine="vectorized")
    requests = []
    for index, (side, n_nets) in enumerate(CHIP_NEGOTIATED):
        layout = macro_grid(side, n_nets, rng_for(seed, f"chip-neg-{index}"))
        requests.append(RouteRequest(
            layout=layout, config=vectorized, strategy="negotiated",
            strategy_params={"max_iterations": NEGOTIATED_WAVE_CAP},
        ))
    for index in range(CHIP_TIMING_LAYOUTS):
        rng = rng_for(seed, f"chip-timing-{index}")
        while True:
            scenario = build_scenario("long-critical-nets", seed=rng.getrandbits(31),
                                      params=CHIP_TIMING)
            if _near(sum(net.hpwl for net in scenario.layout.nets), TIMING_HPWL_TARGET):
                break
        requests.append(RouteRequest(
            layout=scenario.layout, config=vectorized, strategy="timing-driven",
            strategy_params={"max_iterations": TIMING_WAVE_CAP},
        ))
    return requests


def chip_warmup() -> list[RouteRequest]:
    """Small requests through the same code paths, routed before timing starts."""
    vectorized = RouterConfig(engine="vectorized")
    layout = macro_grid(3, 10, rng_for(0, "chip-warmup"))
    scenario = build_scenario("long-critical-nets", seed=0)
    return [
        RouteRequest(layout=layout, config=vectorized, strategy="negotiated",
                     strategy_params={"max_iterations": NEGOTIATED_WAVE_CAP}),
        RouteRequest(layout=scenario.layout, config=vectorized, strategy="timing-driven",
                     strategy_params={"max_iterations": TIMING_WAVE_CAP}),
    ]


# ----------------------------------------------------------------------
# eco-session
# ----------------------------------------------------------------------
def _nudge(layout, rng: random.Random):
    """A legal one-unit move of a random cell, or ``None``."""
    cells = [cell.name for cell in layout.cells]
    for _ in range(40):
        move = CellMove(rng.choice(cells), *rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1))))
        delta = LayoutDelta(move_cells=(move,))
        try:
            validate_layout(apply_delta(layout, delta))
        except (LayoutError, ValidationError):
            continue
        return delta
    return None


def eco_delta(layout, rng: random.Random, step: str, kind: str) -> LayoutDelta:
    """One seeded edit of the given kind: ``replace:<k>``, ``add``, ``remove`` or ``nudge``.

    The kind is fixed by the chain's schedule; the seed picks which nets,
    which new pins and which cell.
    """
    nets = [net.name for net in layout.nets]
    if kind == "nudge":
        delta = _nudge(layout, rng)
        if delta is not None:
            return delta
        kind = "replace:1"
    if kind == "remove":
        return LayoutDelta(remove_nets=(rng.choice(nets),))
    if kind == "add":
        return LayoutDelta(add_nets=tuple(fresh_nets(layout, [f"eco{step}"], rng)))
    chosen = rng.sample(nets, int(kind.split(":")[1]))
    return LayoutDelta(remove_nets=tuple(chosen), add_nets=tuple(fresh_nets(layout, chosen, rng)))


def eco_chain_a(seed: int):
    """Chain A: ``single`` on a 6x6 grid of 120 nets, and its seeded edits."""
    rng = rng_for(seed, "eco-a")
    layout = macro_grid(6, 120, rng, terminals=(2, 4))
    request = RouteRequest(layout=layout, config=RouterConfig(engine="vectorized"))
    deltas, state = [], layout
    for step, kind in enumerate(ECO_A_SCHEDULE):
        delta = eco_delta(state, rng, f"a{step}", kind)
        deltas.append(delta)
        state = apply_delta(state, delta)
    return request, deltas


def eco_chain_b_candidates(seed: int):
    """Chain B bases, in the order to try: congested 3x3 grids under ``negotiated``.

    The caller keeps the first base whose negotiation converges within
    the wave cap (a reroute of a base that has not converged runs the
    whole negotiation again).
    """
    rng = rng_for(seed, "eco-b")
    while True:
        layout = grid_layout(3, 3, cell_width=20, cell_height=20, gap=3, margin=8)
        spec = LayoutSpec(terminals_per_net=(2, 3), pad_fraction=0.0)
        for net in random_netlist(layout, 12, rng=random.Random(rng.getrandbits(64)), spec=spec):
            layout.add_net(net)
        yield RouteRequest(
            layout=layout, config=RouterConfig(engine="vectorized"), strategy="negotiated",
            strategy_params={"max_iterations": ECO_B_WAVE_CAP},
        ), random.Random(rng.getrandbits(64))


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def service_layouts(seed: int, client: int):
    """The miss layouts of one client (renamed per round to stay distinct)."""
    rng = rng_for(seed, f"service-{client}")
    side, n_nets, terminals = SERVICE_GRID
    return [macro_grid(side, n_nets, rng, terminals) for _ in range(SERVICE_MISSES)]


def service_deltas(seed: int, client: int, layouts) -> dict[int, LayoutDelta]:
    """The edits one client's reroutes apply, by miss-layout index.

    Odd layouts are rerouted: alternately a one-unit cell nudge plus one
    net replaced, and two nets replaced.
    """
    rng = rng_for(seed, f"service-delta-{client}")
    deltas = {}
    for index in range(1, len(layouts), 2):
        layout = layouts[index]
        with_nudge = index % 4 == 1
        chosen = rng.sample([net.name for net in layout.nets], 1 if with_nudge else 2)
        nudge = _nudge(layout, rng) if with_nudge else None
        moved = () if nudge is None else nudge.move_cells
        # New pins go on the cells where the nudge leaves them.
        target = layout if nudge is None else apply_delta(layout, nudge)
        deltas[index] = LayoutDelta(
            move_cells=moved,
            remove_nets=tuple(chosen),
            add_nets=tuple(fresh_nets(target, chosen, rng)),
        )
    return deltas


def round_layout(layout, round_index: int):
    """*layout* with every net renamed for one round, so its cache key is new."""
    return Layout(layout.outline, layout.cells,
                  [Net(f"{net.name}.r{round_index}", net.terminals) for net in layout.nets])


def round_delta(delta: LayoutDelta, round_index: int) -> LayoutDelta:
    """*delta* with its net names renamed like :func:`round_layout`."""
    return LayoutDelta(
        move_cells=delta.move_cells,
        remove_nets=tuple(f"{name}.r{round_index}" for name in delta.remove_nets),
        add_nets=tuple(Net(f"{net.name}.r{round_index}", net.terminals) for net in delta.add_nets),
    )
