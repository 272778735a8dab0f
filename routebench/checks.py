"""Output checks built apart from the program's own verifier.

Every check returns a list of problems (empty when the output passes).
The geometry is plain integer interval arithmetic over the layout's
cell rectangles; nothing here calls ``repro.analysis.verify``.  The
shortest-path oracle builds the track graph itself and runs networkx
Dijkstra, the method of the test suite's ``oracle_shortest_length``.
"""

from __future__ import annotations

import hashlib
import json


def _rects(layout) -> list[tuple[int, int, int, int]]:
    return [
        (r.x0, r.y0, r.x1, r.y1) for cell in layout.cells for r in cell.blocking_rects
    ]


def _segments(path) -> list[tuple[int, int, int, int]]:
    """A path's pieces as normalized boxes; a one-point path is one point box."""
    points = [(p.x, p.y) for p in path.points]
    if len(points) == 1:
        (x, y), = points
        return [(x, y, x, y)]
    return [
        (min(ax, bx), min(ay, by), max(ax, bx), max(ay, by))
        for (ax, ay), (bx, by) in zip(points, points[1:])
    ]


def _enters_interior(box, rect) -> bool:
    sx0, sy0, sx1, sy1 = box
    rx0, ry0, rx1, ry1 = rect
    return sx1 > rx0 and sx0 < rx1 and sy1 > ry0 and sy0 < ry1


def _touches(a, b) -> bool:
    return max(a[0], b[0]) <= min(a[2], b[2]) and max(a[1], b[1]) <= min(a[3], b[3])


def _pin_on(box, x: int, y: int) -> bool:
    return box[0] <= x <= box[2] and box[1] <= y <= box[3]


def check_geometry(route, layout) -> list[str]:
    """Rectilinear, inside the outline, clear of cell interiors, connected.

    Every net of *layout* must have a tree; a tree's paths must touch one
    another into one component, and that component must reach a pin of
    every terminal.
    """
    problems: list[str] = []
    outline = layout.outline
    rects = _rects(layout)
    for net in layout.nets:
        tree = route.trees.get(net.name)
        if tree is None:
            problems.append(f"{net.name}: no tree")
            continue
        pieces: list[list[tuple[int, int, int, int]]] = []
        for path in tree.paths:
            points = [(p.x, p.y) for p in path.points]
            for (ax, ay), (bx, by) in zip(points, points[1:]):
                if ax != bx and ay != by:
                    problems.append(f"{net.name}: diagonal step {(ax, ay)}->{(bx, by)}")
            for x, y in points:
                if not (outline.x0 <= x <= outline.x1 and outline.y0 <= y <= outline.y1):
                    problems.append(f"{net.name}: point {(x, y)} outside the outline")
            boxes = _segments(path)
            for box in boxes:
                for rect in rects:
                    if _enters_interior(box, rect):
                        problems.append(f"{net.name}: {box} enters cell interior {rect}")
            pieces.append(boxes)
        if not pieces:
            problems.append(f"{net.name}: empty tree")
            continue
        # Union the paths that touch; the first component must hold them all.
        component = {0}
        grew = True
        while grew:
            grew = False
            for index, boxes in enumerate(pieces):
                if index in component:
                    continue
                if any(_touches(a, b) for j in component for a in pieces[j] for b in boxes):
                    component.add(index)
                    grew = True
        if len(component) != len(pieces):
            problems.append(f"{net.name}: tree is not connected")
        boxes = [box for index in component for box in pieces[index]]
        for terminal in net.terminals:
            if not any(
                _pin_on(box, pin.location.x, pin.location.y)
                for pin in terminal.pins
                for box in boxes
            ):
                problems.append(f"{net.name}: terminal {terminal.name} not connected")
    return problems


def oracle_length(layout, source: tuple[int, int], target: tuple[int, int]):
    """Shortest obstacle-avoiding rectilinear length on the full track graph."""
    import networkx as nx

    outline = layout.outline
    rects = _rects(layout)
    xs = sorted({outline.x0, outline.x1, source[0], target[0]}
                | {r[0] for r in rects} | {r[2] for r in rects})
    ys = sorted({outline.y0, outline.y1, source[1], target[1]}
                | {r[1] for r in rects} | {r[3] for r in rects})

    def free(box) -> bool:
        return not any(_enters_interior(box, rect) for rect in rects)

    nodes = {(x, y) for x in xs for y in ys if free((x, y, x, y))}
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for y in ys:
        row = [x for x in xs if (x, y) in nodes]
        for x0, x1 in zip(row, row[1:]):
            if free((x0, y, x1, y)):
                graph.add_edge((x0, y), (x1, y), weight=x1 - x0)
    for x in xs:
        col = [y for y in ys if (x, y) in nodes]
        for y0, y1 in zip(col, col[1:]):
            if free((x, y0, x, y1)):
                graph.add_edge((x, y0), (x, y1), weight=y1 - y0)
    try:
        return nx.dijkstra_path_length(graph, source, target)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def check_oracle_lengths(route, layout, limit: int) -> list[str]:
    """Up to *limit* two-terminal one-pin nets are as short as the oracle's path."""
    problems: list[str] = []
    checked = 0
    for net in layout.nets:
        if checked >= limit:
            break
        if len(net.terminals) != 2 or any(len(t.pins) != 1 for t in net.terminals):
            continue
        a, b = (t.pins[0].location for t in net.terminals)
        best = oracle_length(layout, (a.x, a.y), (b.x, b.y))
        tree = route.trees.get(net.name)
        length = None if tree is None else tree.total_length
        if best is None or length != best:
            problems.append(f"{net.name}: routed length {length}, oracle {best}")
        checked += 1
    return problems


def check_best_wave(result) -> list[str]:
    """A negotiated result is the (overflow, wirelength)-least wave it reports."""
    if not result.iterations:
        return ["no waves reported"]
    best = min((it.total_overflow, it.wirelength) for it in result.iterations)
    got = (result.congestion_after.total_overflow, result.route.total_length)
    return [] if got == best else [f"returned {got}, least wave {best}"]


def check_timing(result, layout) -> list[str]:
    """Delays are at least the source-to-sink Manhattan distance; criticality in [0, 1]."""
    problems: list[str] = []
    if result.timing is None:
        return ["no timing analysis"]
    for net in layout.nets:
        timing = result.timing.nets.get(net.name)
        if timing is None:
            problems.append(f"{net.name}: no timing")
            continue
        if not 0.0 <= timing.criticality <= 1.0:
            problems.append(f"{net.name}: criticality {timing.criticality}")
        sources = [pin.location for pin in net.terminals[0].pins]
        floor = max(
            min(abs(s.x - p.location.x) + abs(s.y - p.location.y)
                for s in sources for p in sink.pins)
            for sink in net.terminals[1:]
        )
        if timing.delay < floor:
            problems.append(f"{net.name}: delay {timing.delay} below distance {floor}")
    return problems


def fingerprint(route) -> str:
    """Digest of every tree's exact point sequences."""
    doc = {
        name: [[(p.x, p.y) for p in path.points] for path in tree.paths]
        for name, tree in route.trees.items()
    }
    blob = json.dumps([sorted(doc.items()), sorted(route.failed_nets)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_same_route(got, want, label: str) -> list[str]:
    """Two routes hold identical trees."""
    return [] if fingerprint(got) == fingerprint(want) else [f"{label}: routes differ"]
