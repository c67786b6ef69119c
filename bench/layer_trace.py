"""Outside-in layer trace: wraps the solver's public functions by name.

Each wrapped call records a span (id, parent id, name, start ns, end ns) in
memory; counters are taken from the calls' arguments and results at the
same boundary. Travel lookups run millions of times per pass, so the two
travel methods are counted but get no span. Nothing inside the solver is
edited: the wrappers replace module attributes at the names the callers
look up, and the travel methods on the one travel object, and `uninstall`
puts the originals back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import rollhorizon.engine as engine
import rollhorizon.routing as routing
import rollhorizon.rtv as rtv
from rollhorizon.routing import PlanStart

# (module, attribute) -> span name; best_route_exhaustive is split by caller
# kind at call time: a PlanStart start is the pair screen, a vehicle state is
# a route search for a real vehicle
WRAPPED = (
    (engine, "window_processing", "window"),
    (engine, "build_rtv_graph", "rtv"),
    (engine, "solve_assignment", "assignment"),
    (engine, "simulate_step", "simulator"),
    (rtv, "best_route_exhaustive", None),
    (rtv, "best_route_insertion", "routing.insertion"),
    (rtv, "schedule_route", "routing.schedule"),
    # the insertion search re-times every candidate through this name
    (routing, "schedule_route", "routing.schedule"),
)


class Tracer:
    """Spans and counters for one pass over a workload's cases."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.max_nodes = 0
        self.batches: list = []  # window results of the current engine run
        self._stack = [0]
        self._next = 1
        self._saved: list = []

    def _span(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrapper(self, name, fn):
        count = self.counts

        if name is None:
            def wrapper(start, *args, **kwargs):
                kind = "routing.pair" if isinstance(start, PlanStart) else "routing.vehicle"
                out = self._span(kind, fn, (start,) + args, kwargs)
                count[kind + "_calls"] += 1
                count[kind + "_found"] += out is not None
                return out
        elif name == "window":
            def wrapper(*args, **kwargs):
                out = self._span(name, fn, args, kwargs)
                self.batches.append(out)
                count["window.batched"] += len(out.new_requests)
                return out
        elif name == "rtv":
            def wrapper(*args, **kwargs):
                out = self._span(name, fn, args, kwargs)
                count["rtv.trips"] += len(out.trips)
                count["rtv.edges"] += len(out.edges)
                return out
        elif name == "assignment":
            def wrapper(*args, **kwargs):
                out = self._span(name, fn, args, kwargs)
                count["assignment.nodes"] += out.nodes_explored
                count["assignment.unproven"] += not out.proven_optimal
                self.max_nodes = max(self.max_nodes, out.nodes_explored)
                return out
        elif name == "simulator":
            def wrapper(*args, **kwargs):
                out = self._span(name, fn, args, kwargs)
                count["simulator.boarded"] += len(out[1])
                count["simulator.delivered"] += len(out[2])
                return out
        elif name == "routing.insertion":
            def wrapper(*args, **kwargs):
                out = self._span(name, fn, args, kwargs)
                count["routing.insertion_calls"] += 1
                count["routing.insertion_found"] += out is not None
                return out
        else:
            def wrapper(*args, **kwargs):
                count[name + "_calls"] += 1
                return self._span(name, fn, args, kwargs)
        return wrapper

    def install(self, travel) -> None:
        for module, attr, name in WRAPPED:
            real = getattr(module, attr)
            self._saved.append((module, attr, real))
            setattr(module, attr, self._wrapper(name, real))
        count = self.counts
        for attr in ("distance", "travel_time"):
            real = getattr(travel, attr)

            def counted(a, b, _real=real):
                count["travel.calls"] += 1
                return _real(a, b)

            setattr(travel, attr, counted)
            self._saved.append((travel, attr, None))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, real = self._saved.pop()
            if real is None:
                delattr(owner, attr)  # drops the instance override
            else:
                setattr(owner, attr, real)

    def run(self, case, **kwargs):
        """One traced engine.run of the case; the root span is 'engine'."""
        self.batches = []
        self.install(case.instance.travel)
        try:
            report = self._span("engine", engine.run, (case.instance, case.config), kwargs)
        finally:
            self.uninstall()
        self.counts["engine.iterations"] += len(report.iteration_times_s)
        return report

    def self_times(self) -> dict[str, float]:
        """Seconds per span name spent outside its child spans."""
        child_ns: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        for sid, _parent, name, t0, t1 in self.spans:
            self_ns[name] += t1 - t0 - child_ns[sid]
        return {k: v / 1e9 for k, v in sorted(self_ns.items())}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: inclusive seconds, self seconds, counts, ratios."""
        total_ns: dict[str, int] = defaultdict(int)
        for _sid, _parent, name, t0, t1 in self.spans:
            total_ns[name] += t1 - t0
        self_s = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for kind in ("pair", "vehicle", "insertion"):
            calls = c[f"routing.{kind}_calls"]
            out[f"routing.{kind}_calls"] = calls
            out[f"routing.{kind}_s"] = total_ns[f"routing.{kind}"] / 1e9
            found = c[f"routing.{kind}_found"]
            out[f"routing.{kind}_found_ratio"] = found / calls if calls else 0.0
        out["routing.schedule_calls"] = c["routing.schedule_calls"]
        out["routing.schedule_s"] = total_ns["routing.schedule"] / 1e9
        out["travel.calls"] = c["travel.calls"]
        out["rtv.s"] = total_ns["rtv"] / 1e9
        out["rtv.self_s"] = self_s["rtv"]
        out["rtv.trips"] = c["rtv.trips"]
        out["rtv.edges"] = c["rtv.edges"]
        out["assignment.s"] = total_ns["assignment"] / 1e9
        out["assignment.nodes"] = c["assignment.nodes"]
        out["assignment.max_nodes"] = self.max_nodes
        out["assignment.unproven"] = c["assignment.unproven"]
        out["window.s"] = total_ns["window"] / 1e9
        out["window.batched"] = c["window.batched"]
        out["simulator.s"] = total_ns["simulator"] / 1e9
        out["simulator.boarded"] = c["simulator.boarded"]
        out["simulator.delivered"] = c["simulator.delivered"]
        out["engine.iterations"] = c["engine.iterations"]
        out["engine.s"] = total_ns["engine"] / 1e9
        out["engine.self_s"] = self_s["engine"]
        return out
