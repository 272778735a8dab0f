"""Layer spans recorded from outside the program, by wrapping its functions.

:func:`install` replaces public functions and methods of each layer with
timing wrappers and returns the :class:`Recorder` they report to; the
returned handle's ``uninstall`` puts the originals back.  A name that a
module imported with ``from ... import`` is looked up in the *using*
module at call time, so it is patched there, not where it is defined.

Fine-grained layers (rays, pricing, heuristic) are called up to millions
of times a run, so they are aggregated as they happen: total time of the
outermost call of each layer, self time (duration minus the time of the
spans it encloses), and call counts.  Coarse layers (pipeline, strategy,
plan, verify) also keep one span record each, written out at the end of
the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: Granularity of a layer: fine ones are aggregated, coarse ones also keep spans.
FINE = "fine"
COARSE = "coarse"


def _targets() -> list[tuple[str, str, str, str]]:
    """(layer, granularity, module, dotted attribute) to wrap."""
    targets = [
        ("search", FINE, "repro.core.pathfinder", "search"),
        ("search", FINE, "repro.core.pathfinder", "search_vectorized"),
        ("rays", FINE, "repro.geometry.raytrace", "ObstacleSet.first_hit"),
        ("rays", FINE, "repro.geometry.raytrace", "ObstacleSet.reaches"),
        ("timing_analysis", COARSE, "repro.core.timing", "analyze_route_timing"),
        ("plan", COARSE, "repro.api.pipeline", "plan_reroute"),
        ("verify", COARSE, "repro.api.pipeline", "verify_global_route"),
        ("summarize", COARSE, "repro.api.pipeline", "summarize_route"),
        ("validate", COARSE, "repro.api.pipeline", "validate_layout"),
        ("pipeline", COARSE, "repro.api.pipeline", "RoutingPipeline.run"),
        ("pipeline", COARSE, "repro.api.pipeline", "RoutingPipeline.reroute"),
    ]
    for name in ("distance_to", "distances_to_many", "distances_along", "distances_expansion"):
        targets.append(("heuristic", FINE, "repro.core.route", f"TargetSet.{name}"))
    for module in (
        "repro.api.strategies",
        "repro.core.negotiate",
        "repro.core.timing",
        "repro.core.router",
        "repro.incremental.engine",
    ):
        for name in ("find_passages", "measure_congestion"):
            targets.append(("congestion", COARSE, module, name))
    for cls in ("SingleStrategy", "NegotiatedStrategy", "TimingDrivenStrategy"):
        for name in ("run", "run_incremental"):
            targets.append(("strategy", COARSE, "repro.api.strategies", f"{cls}.{name}"))
    # Every cost model prices through its own overrides; wrap each class
    # that defines a pricing method itself.
    for module_name in ("repro.core.costs", "repro.core.timing"):
        module = importlib.import_module(module_name)
        for cls_name, cls in sorted(vars(module).items()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            for name in ("segment_cost", "bend_cost", "segment_costs_from", "expansion_costs"):
                if name in vars(cls):
                    targets.append(("pricing", FINE, module_name, f"{cls_name}.{name}"))
    return targets


class Recorder:
    """Span and count sink of the wrappers."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.spans: list[dict[str, Any]] = []
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def wrap(self, layer: str, granularity: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            frame = [0.0, len(self.spans) if granularity == COARSE else None]
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            if granularity == COARSE:
                self.spans.append({"name": layer, "start": started, "end": None, "parent": parent})
            stack.append(frame)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                duration = ended - started
                self.self_time[layer] += duration - frame[0]
                if depth[layer] == 0:
                    self.total[layer] += duration
                if stack:
                    stack[-1][0] += duration
                self.calls[layer] += 1
                if frame[1] is not None:
                    self.spans[frame[1]]["end"] = ended
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def on_search(self, result) -> None:
        stats = result.stats
        self.counts["search.connections"] += 1
        self.counts["search.expanded"] += stats.nodes_expanded
        self.counts["search.generated"] += stats.nodes_generated
        self.counts["search.reopened"] += stats.nodes_reopened
        self.maxima["search.open_peak"] = max(self.maxima["search.open_peak"], stats.max_open_size)

    def dump(self, path: Path) -> None:
        """Write the coarse spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


class Installed:
    """Handle of installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, recorder: Recorder, originals: list[tuple[Any, str, Any]]):
        self.recorder = recorder
        self._originals = originals

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []


def install() -> Installed:
    """Wrap every target and return the handle of the shared recorder."""
    recorder = Recorder()
    originals = []
    for layer, granularity, module_name, dotted in _targets():
        owner: Any = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            if attr not in vars(owner):
                continue  # inherited, or not offered by this class
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        on_result = recorder.on_search if layer == "search" else None
        setattr(owner, attr, recorder.wrap(layer, granularity, original, on_result))
        originals.append((owner, attr, original))
    return Installed(recorder, originals)


#: Every per-layer metric: (name, unit).  Counts and times are per
#: completed operation of the traced rounds unless the unit says otherwise.
PER_LAYER = (
    ("search.connections", "count/op"),
    ("search.expanded", "count/op"),
    ("search.generated", "count/op"),
    ("search.reopened", "count/op"),
    ("search.open_peak", "count"),
    ("search.self_ms", "ms/op"),
    ("search.us_per_expansion", "us"),
    ("geometry.ray_queries", "count/op"),
    ("geometry.ray_ms", "ms/op"),
    ("geometry.ray_cache_hit_rate", "ratio"),
    ("core.costs.pricing_ms", "ms/op"),
    ("core.route.heuristic_ms", "ms/op"),
    ("core.strategy_ms", "ms/op"),
    ("core.waves", "count/op"),
    ("core.nets_rerouted", "count/op"),
    ("core.useful_wave_ratio", "ratio"),
    ("core.congestion_ms", "ms/op"),
    ("core.overflow", "count/op"),
    ("core.wirelength", "units/op"),
    ("core.timing.analysis_ms", "ms/op"),
    ("core.timing.worst_delay", "units"),
    ("incremental.plan_ms", "ms/op"),
    ("incremental.dirty_nets", "count/op"),
    ("incremental.kept_ratio", "ratio"),
    ("analysis.verify_ms", "ms/op"),
    ("analysis.summarize_ms", "ms/op"),
    ("layout.validate_ms", "ms/op"),
    ("api.pipeline_self_ms", "ms/op"),
    ("api.request_encode_ms", "ms/op"),
    ("api.result_decode_ms", "ms/op"),
    ("service.queue_wait_ms", "ms/op"),
    ("service.job_ms", "ms/op"),
    ("service.wire_ms", "ms/op"),
    ("service.cache_hits", "count/op"),
    ("service.reroutes", "count/op"),
    ("service.reroute_fallbacks", "count/op"),
    ("service.coalesced", "count/op"),
    ("service.server_cpu_s", "s"),
    ("trace.overhead_pct", "%"),
)


def summarize_result(result) -> dict:
    """What the layer metrics need from one operation's RouteResult."""
    summary = {
        "waves": len(result.iterations),
        "returned_wave": None,
        "rerouted": sum(it.rerouted for it in result.iterations[1:]),
        "overflow": 0 if result.congestion_after is None else result.congestion_after.total_overflow,
        "wirelength": result.route.total_length,
        "worst_delay": None if result.timing is None else result.timing.worst_delay,
        "ray_hits": result.timings.get("ray_cache_hits", 0.0),
        "ray_misses": result.timings.get("ray_cache_misses", 0.0),
        "kept": result.timings.get("kept_nets"),
        "dirty": None,
        # The program's own phase clocks, for runs the wrappers cannot reach.
        "plan_s": result.timings.get("plan", 0.0),
        "verify_s": result.timings.get("verify", 0.0),
    }
    if result.iterations:
        key = (summary["overflow"], summary["wirelength"])
        summary["returned_wave"] = next(
            (index for index, it in enumerate(result.iterations)
             if (it.total_overflow, it.wirelength) == key),
            len(result.iterations) - 1,
        )
    if summary["kept"] is not None:
        summary["dirty"] = result.timings["ripped_nets"] + result.timings["new_nets"]
    return summary


def layer_metrics(recorder: Optional[Recorder], summaries: list[dict], ops: int,
                  overhead_pct: float, extra: Optional[dict] = None) -> dict:
    """Assemble every per-layer metric; layers a workload never reaches read 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    if recorder is not None and ops:
        counts, total = recorder.counts, recorder.total
        for name in ("connections", "expanded", "generated", "reopened"):
            values[f"search.{name}"] = counts[f"search.{name}"] / ops
        values["search.open_peak"] = float(recorder.maxima["search.open_peak"])
        values["search.self_ms"] = recorder.self_time["search"] * 1e3 / ops
        if counts["search.expanded"]:
            values["search.us_per_expansion"] = total["search"] * 1e6 / counts["search.expanded"]
        values["geometry.ray_queries"] = recorder.calls["rays"] / ops
        for metric, layer in (
            ("geometry.ray_ms", "rays"),
            ("core.costs.pricing_ms", "pricing"),
            ("core.route.heuristic_ms", "heuristic"),
            ("core.strategy_ms", "strategy"),
            ("core.congestion_ms", "congestion"),
            ("core.timing.analysis_ms", "timing_analysis"),
            ("incremental.plan_ms", "plan"),
            ("analysis.verify_ms", "verify"),
            ("analysis.summarize_ms", "summarize"),
            ("layout.validate_ms", "validate"),
        ):
            values[metric] = total[layer] * 1e3 / ops
        values["api.pipeline_self_ms"] = recorder.self_time["pipeline"] * 1e3 / ops
    elif summaries and ops:
        # Routing ran in another process (the service's workers): plan and
        # verify times come from the results' own timings.
        values["incremental.plan_ms"] = sum(s["plan_s"] for s in summaries) * 1e3 / ops
        values["analysis.verify_ms"] = sum(s["verify_s"] for s in summaries) * 1e3 / ops
    if summaries and ops:
        lookups = sum(s["ray_hits"] + s["ray_misses"] for s in summaries)
        if lookups:
            values["geometry.ray_cache_hit_rate"] = sum(s["ray_hits"] for s in summaries) / lookups
        values["core.waves"] = sum(s["waves"] for s in summaries) / ops
        values["core.nets_rerouted"] = sum(s["rerouted"] for s in summaries) / ops
        iterative = [s for s in summaries if s["waves"]]
        if iterative:
            values["core.useful_wave_ratio"] = (
                sum(s["returned_wave"] + 1 for s in iterative) / sum(s["waves"] for s in iterative)
            )
        values["core.overflow"] = sum(s["overflow"] for s in summaries) / ops
        values["core.wirelength"] = sum(s["wirelength"] for s in summaries) / ops
        delays = [s["worst_delay"] for s in summaries if s["worst_delay"] is not None]
        if delays:
            values["core.timing.worst_delay"] = sum(delays) / len(delays)
        reroutes = [s for s in summaries if s["kept"] is not None]
        if reroutes:
            values["incremental.dirty_nets"] = sum(s["dirty"] for s in reroutes) / ops
            touched = sum(s["kept"] + s["dirty"] for s in reroutes)
            if touched:
                values["incremental.kept_ratio"] = sum(s["kept"] for s in reroutes) / touched
    values.update(extra or {})
    values["trace.overhead_pct"] = overhead_pct
    units = dict(PER_LAYER)
    return {name: {"value": float(values[name]), "unit": units[name]} for name, _ in PER_LAYER}
