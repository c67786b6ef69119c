"""Output checks made apart from the solver.

`check_report` re-times every committed route from its vehicle's depot with
its own arithmetic over the case's coordinates or its own copy of the
matrix tables; it calls none of the solver's route timing or validation
code. The two property checks read what the traced run observed.
"""

from __future__ import annotations

import math
from collections import Counter

from rollhorizon.model import DROPOFF, PICKUP

VMT_TOLERANCE = 1e-9


def _leg_functions(case):
    """(time, distance) between two locations, derived from the case inputs."""
    if case.tables is not None:
        times, dists = case.tables
        return (lambda a, b: times[a.node_id][b.node_id],
                lambda a, b: dists[a.node_id][b.node_id])
    speed = case.instance.travel.speed

    def dist(a, b):
        return math.hypot(a.x - b.x, a.y - b.y)

    return (lambda a, b: math.ceil(dist(a, b) * 60.0 / speed)), dist


def check_report(case, report) -> tuple[list[str], list[str]]:
    """Violations of the service rules found in one run's report.

    Returns (late, out): `late` lists committed stops whose service starts
    before the vehicle could arrive over the committed legs, `out` every
    other violation. They are kept apart because the engine can drive a
    leg that no committed stop records: a vehicle redirected after it left
    for a stop first reaches that stop's node. Under a table that breaks
    the triangle inequality that hidden leg can be quicker than the
    committed one, so the committed times do not add up.
    """
    inst, cfg = case.instance, case.config
    leg_time, leg_dist = _leg_functions(case)
    reqs = {r.id: r for r in inst.requests}
    late, out = [], []

    for r in inst.requests:
        if r.earliest_dropoff_time != r.desired_pickup_time + leg_time(r.pickup, r.dropoff):
            out.append(f"request {r.id}: earliest dropoff is not desired pickup plus direct ride")

    counts = Counter(rec.request_id for rec in report.records)
    for rid in sorted(set(reqs) | set(counts)):
        if counts[rid] != 1:
            out.append(f"request {rid}: {counts[rid]} records, want exactly 1")
    records = {rec.request_id: rec for rec in report.records}

    depots = {v.id: v.depot for v in inst.vehicles}
    if sorted(rt.vehicle_id for rt in report.routes) != sorted(depots):
        out.append("routes do not match the fleet one to one")
    stop_of: dict[tuple[str, int], tuple[int, int]] = {}
    vmt = 0.0
    for route in report.routes:
        v = route.vehicle_id
        if route.committed_prefix_len != len(route.stops):
            out.append(f"vehicle {v}: final route is not fully committed")
        loc, free, load, onboard = depots.get(v), 0, 0, set()
        for i, stop in enumerate(route.stops):
            where = f"vehicle {v} stop {i} ({stop.kind} {stop.request_id})"
            req = reqs.get(stop.request_id)
            if req is None or stop.kind not in (PICKUP, DROPOFF):
                out.append(f"{where}: unknown request or stop kind")
                continue
            if (stop.kind, req.id) in stop_of:
                out.append(f"{where}: visited twice")
            stop_of[(stop.kind, req.id)] = (v, stop.scheduled_time)
            target = req.pickup if stop.kind == PICKUP else req.dropoff
            if stop.location != target:
                out.append(f"{where}: stop is not at the request's {stop.kind} point")
            if loc is not None:
                vmt += leg_dist(loc, target)
                arrival = free + leg_time(loc, target)
                if stop.scheduled_time < arrival:
                    late.append(f"{where}: service {stop.scheduled_time} before arrival {arrival}")
            if stop.kind == PICKUP:
                if req.id in onboard:
                    out.append(f"{where}: picked up twice")
                onboard.add(req.id)
                load += req.load
                wait = stop.scheduled_time - req.desired_pickup_time
                if not 0 <= wait <= cfg.max_wait:
                    out.append(f"{where}: wait {wait} outside [0, {cfg.max_wait}]")
            else:
                if req.id not in onboard:
                    out.append(f"{where}: dropoff before pickup on this vehicle")
                onboard.discard(req.id)
                load -= req.load
                delay = stop.scheduled_time - req.earliest_dropoff_time
                if not 0 <= delay <= cfg.max_delay:
                    out.append(f"{where}: delay {delay} outside [0, {cfg.max_delay}]")
            if load > cfg.capacity:
                out.append(f"{where}: load {load} over capacity {cfg.capacity}")
            if stop.onboard_after != load:
                out.append(f"{where}: onboard_after {stop.onboard_after} != load {load}")
            loc, free = target, stop.scheduled_time + cfg.dwell
        if onboard:
            out.append(f"vehicle {v}: riders {sorted(onboard)} never dropped off")

    served = 0
    for rid, rec in sorted(records.items()):
        pick, drop = stop_of.get((PICKUP, rid)), stop_of.get((DROPOFF, rid))
        if not rec.served:
            times = (rec.actual_pickup_time, rec.actual_dropoff_time)
            if pick or drop or times != (None, None):
                out.append(f"request {rid}: unserved record with stops or times")
            continue
        served += 1
        if pick != (rec.vehicle_id, rec.actual_pickup_time) or drop != (
            rec.vehicle_id, rec.actual_dropoff_time
        ):
            out.append(f"request {rid}: served record disagrees with the route stops")
    for kind, rid in stop_of:
        if rid in records and not records[rid].served:
            out.append(f"request {rid}: {kind} stop for an unserved record")

    s = report.summary
    if s.requests_served != served or s.requests_total != len(reqs):
        out.append(f"summary served {s.requests_served}/{s.requests_total}, "
                   f"recomputed {served}/{len(reqs)}")
    if abs(s.total_vmt - vmt) > VMT_TOLERANCE:
        out.append(f"summary vmt {s.total_vmt!r}, recomputed {vmt!r}")
    return late, out


def check_batches(case, batches) -> list[str]:
    """The observed window batches partition the in-scope requests."""
    cfg = case.config
    last = cfg.horizon + min(0, (cfg.rh_factor - 1) * cfg.step)
    want = {r.id for r in case.instance.requests if r.desired_pickup_time <= last}
    seen = Counter(r.id for b in batches for r in b.new_requests)
    out = [f"request {rid}: batched {seen[rid]} times" for rid in sorted(want) if seen[rid] != 1]
    out += [f"request {rid}: batched but out of scope" for rid in sorted(set(seen) - want)]
    return out


class CommitWatch:
    """iteration_hook that flags any rewrite of an already committed stop."""

    def __init__(self):
        self.committed: dict[int, tuple] = {}
        self.problems: list[str] = []

    def __call__(self, t, states) -> None:
        for vid, st in states.items():
            before = self.committed.get(vid, ())
            if st.committed[: len(before)] != before:
                self.problems.append(f"t={t} vehicle {vid}: committed stops rewritten")
            self.committed[vid] = st.committed
