"""Single-vehicle route construction and timing.

schedule_route times a fixed stop sequence. best_route_exhaustive searches
every precedence-valid ordering and is exact for small request sets.
best_route_insertion slots one new request into an existing order and is
the fallback once exhaustive search would be too wide. pair_feasible only
asks whether two requests can share a vehicle at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .model import DROPOFF, PICKUP, Location, Request, SolverConfig, Stop


@dataclass(frozen=True)
class PlanStart:
    """Where and when a vehicle can begin executing new stops."""

    plan_location: Location
    plan_time: int
    onboard: frozenset[int] = frozenset()


@dataclass(frozen=True)
class CandidateRoute:
    """A timed stop sequence for one vehicle with its feasibility verdict."""

    vehicle_id: Optional[int]
    stops: tuple[Stop, ...]
    total_distance: float
    # (arrival, service_start, departure) per stop; service may lag arrival
    # when the vehicle reaches a pickup before the desired time
    schedule: tuple[tuple[int, int, int], ...]
    feasible: bool
    sequence: tuple[tuple[str, Request], ...] = field(default=(), repr=False)

    @property
    def request_ids(self) -> frozenset[int]:
        return frozenset(s.request_id for s in self.stops if s.kind == PICKUP)


def _stop_key(kind: str, request_id: int) -> tuple[int, int]:
    return (request_id, 0 if kind == PICKUP else 1)


def _advance(loc, free, load, kind, req, travel, config, legs=None):
    """Time one stop from the previous departure state.

    legs, when given, memoizes (distance, travel_time) per location pair;
    route searches revisit the same handful of legs constantly.
    """
    target = req.pickup if kind == PICKUP else req.dropoff
    if legs is None:
        arrival = free + travel.travel_time(loc, target)
        dist = travel.distance(loc, target)
    else:
        leg = legs.get((loc, target))
        if leg is None:
            leg = (travel.distance(loc, target), travel.travel_time(loc, target))
            legs[(loc, target)] = leg
        dist, tt = leg
        arrival = free + tt
    if kind == PICKUP:
        # vehicle waits at the stop when early; waiting cost is passenger-side only
        service = max(arrival, req.desired_pickup_time)
        ok = service - req.desired_pickup_time <= config.max_wait
        load += req.load
        ok = ok and load <= config.capacity
    else:
        service = max(arrival, req.earliest_dropoff_time)
        ok = service - req.earliest_dropoff_time <= config.max_delay
        load -= req.load
    return ok, target, arrival, service, service + config.dwell, load, dist


def schedule_route(
    start, sequence: Sequence[tuple[str, Request]], travel, config: SolverConfig,
    _legs=None,
) -> CandidateRoute:
    """Time the given stop sequence from the vehicle's plan origin.

    `start` needs plan_location, plan_time and onboard attributes (any
    vehicle state or PlanStart works). Each dropoff must follow its pickup
    or belong to a passenger already onboard; violating that is a usage
    error, while timing or capacity trouble just yields feasible=False.
    """
    onboard = set(start.onboard)
    by_id: dict[int, Request] = {}
    for kind, req in sequence:
        by_id[req.id] = req
        if kind == PICKUP:
            if req.id in onboard:
                raise ValueError(f"request {req.id} picked up while already onboard")
            onboard.add(req.id)
        elif kind == DROPOFF:
            if req.id not in onboard:
                raise ValueError(f"dropoff of request {req.id} before its pickup")
            onboard.discard(req.id)
        else:
            raise ValueError(f"unknown stop kind {kind!r}")

    loc = start.plan_location
    free = start.plan_time
    load = 0
    feasible = True
    total = 0.0
    stops: list[Stop] = []
    sched: list[tuple[int, int, int]] = []
    # passengers already aboard occupy seats from the start
    for rid in start.onboard:
        req = by_id.get(rid)
        load += req.load if req is not None else 1
    if load > config.capacity:
        feasible = False
    for kind, req in sequence:
        ok, loc, arrival, service, depart, load, dist = _advance(
            loc, free, load, kind, req, travel, config, _legs
        )
        feasible = feasible and ok
        total += dist
        stops.append(Stop(kind, req.id, loc, service, load))
        sched.append((arrival, service, depart))
        free = depart
    return CandidateRoute(
        getattr(start, "vehicle_id", None),
        tuple(stops),
        total,
        tuple(sched),
        feasible,
        tuple(sequence),
    )


def _resolve_onboard(start, requests_by_id) -> list[Request]:
    out = []
    for rid in sorted(start.onboard):
        if requests_by_id is None or rid not in requests_by_id:
            raise ValueError(f"onboard request {rid} needs requests_by_id to resolve")
        out.append(requests_by_id[rid])
    return out


def best_route_exhaustive(
    start,
    request_set: Iterable[Request],
    travel,
    config: SolverConfig,
    requests_by_id: Optional[Mapping[int, Request]] = None,
) -> Optional[CandidateRoute]:
    """Exact search over every valid ordering of the required stops.

    Required stops are pickup and dropoff for each request in request_set
    plus a dropoff for each passenger already onboard. Returns the feasible
    route with minimum total distance (ties: lexicographically smallest
    stop-key sequence), or None when every ordering fails a constraint.
    """
    new = sorted(request_set, key=lambda r: r.id)
    if len(new) > config.exhaustive_route_limit:
        raise ValueError(
            f"{len(new)} requests exceeds exhaustive_route_limit "
            f"{config.exhaustive_route_limit}"
        )
    onboard_reqs = _resolve_onboard(start, requests_by_id) if start.onboard else []
    by_id = {r.id: r for r in new}
    by_id.update({r.id: r for r in onboard_reqs})

    start_load = sum(r.load for r in onboard_reqs)
    if start_load > config.capacity:
        return None
    n_stops = 2 * len(new) + len(onboard_reqs)
    legs: dict = {}

    points = {_stop_key(DROPOFF, r.id): r.dropoff for r in onboard_reqs}
    for r in new:
        points[_stop_key(PICKUP, r.id)] = r.pickup
        points[_stop_key(DROPOFF, r.id)] = r.dropoff
    keys_pending = sorted(points)
    keys_done: set = set()
    # every stop target not yet visited must still be entered from the
    # current position or from another pending target, so summing each
    # pending target's cheapest incoming arc never overshoots the distance
    # left; pairwise arcs are filled in on first use, once an incumbent
    # exists, so searches that die early never pay for the table
    arc_in: dict = {}

    best: Optional[tuple[float, tuple, list, list, list]] = None
    late_kill = getattr(travel, "obeys_triangle", False)
    max_wait = config.max_wait
    max_delay = config.max_delay
    dwell = config.dwell
    cap = config.capacity
    dist_of = travel.distance
    time_of = travel.travel_time

    def dfs(loc, free, load, onboard, unpicked, seq, stops, sched, cost, keys):
        nonlocal best
        if len(seq) == n_stops:
            key = tuple(keys)
            if best is None or (cost, key) < (best[0], best[1]):
                best = (cost, key, list(seq), list(stops), list(sched))
            return
        # stop timing is _advance spelled out; this loop runs millions of
        # times on a dense instance and the call overhead was showing
        timed = []
        for rid in unpicked:
            req = by_id[rid]
            target = req.pickup
            leg = legs.get((loc, target))
            if leg is None:
                leg = (dist_of(loc, target), time_of(loc, target))
                legs[(loc, target)] = leg
            arrival = free + leg[1]
            desired = req.desired_pickup_time
            service = arrival if arrival > desired else desired
            if service - desired > max_wait:
                if late_kill:
                    # this pickup still has to happen, and detour-free
                    # travel means no ordering reaches it sooner: node dead
                    return
                continue
            load2 = load + req.load
            if load2 <= cap:
                timed.append((leg[0], (rid, 0), PICKUP, req, target,
                              arrival, service, service + dwell, load2))
        for rid in onboard:
            req = by_id[rid]
            target = req.dropoff
            leg = legs.get((loc, target))
            if leg is None:
                leg = (dist_of(loc, target), time_of(loc, target))
                legs[(loc, target)] = leg
            arrival = free + leg[1]
            earliest = req.earliest_dropoff_time
            service = arrival if arrival > earliest else earliest
            if service - earliest > max_delay:
                if late_kill:
                    return
                continue
            timed.append((leg[0], (rid, 1), DROPOFF, req, target,
                          arrival, service, service + dwell, load - req.load))
        # cheapest feasible hop first: a tight incumbent early makes the
        # in-arc bound below bite; the leaf tie-break fixes the final order
        timed.sort(key=lambda t: (t[0], t[1]))
        t_static = None
        static_in = {}
        for dist, step_key, kind, req, loc2, arrival, service, depart, load2 in timed:
            if best is not None:
                if t_static is None:  # incumbent may appear mid-loop
                    if not arc_in:
                        for ka, pa in points.items():
                            for kb, pb in points.items():
                                if ka != kb:
                                    arc_in[(ka, kb)] = dist_of(pa, pb)
                    pending = [k for k in keys_pending if k not in keys_done]
                    t_static = 0.0
                    for kb in pending:
                        cheapest = None
                        for ka in pending:
                            if ka != kb:
                                d = arc_in[(ka, kb)]
                                if cheapest is None or d < cheapest:
                                    cheapest = d
                        cheapest = 0.0 if cheapest is None else cheapest
                        static_in[kb] = cheapest
                        t_static += cheapest
                if cost + dist + t_static - static_in[step_key] > best[0]:
                    continue
            if kind == PICKUP:
                nb = onboard | {req.id}
                up = unpicked - {req.id}
            else:
                nb = onboard - {req.id}
                up = unpicked
            seq.append((kind, req))
            stops.append(Stop(kind, req.id, loc2, service, load2))
            sched.append((arrival, service, depart))
            keys.append(step_key)
            keys_done.add(step_key)
            dfs(loc2, depart, load2, nb, up, seq, stops, sched, cost + dist, keys)
            seq.pop()
            stops.pop()
            sched.pop()
            keys.pop()
            keys_done.discard(step_key)

    dfs(
        start.plan_location,
        start.plan_time,
        start_load,
        frozenset(r.id for r in onboard_reqs),
        frozenset(r.id for r in new),
        [],
        [],
        [],
        0.0,
        [],
    )
    if best is None:
        return None
    cost, _key, seq, stops, sched = best
    return CandidateRoute(
        getattr(start, "vehicle_id", None),
        tuple(stops),
        cost,
        tuple(sched),
        True,
        tuple(seq),
    )


# all 6 precedence-valid orders of stops 0-3 = (pickup a, dropoff a, pickup b,
# dropoff b), those opening at a's pickup listed first; XOR 2 swaps the
# requests, so the start at b's pickup tries its own-pickup orders first
_PAIR_ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 3, 1),
                (2, 0, 1, 3), (2, 0, 3, 1), (2, 3, 0, 1))
_PAIR_ORDERS_FROM = {
    0: _PAIR_ORDERS,
    2: tuple(tuple(i ^ 2 for i in order) for order in _PAIR_ORDERS),
}


def pair_feasible(a: Request, b: Request, travel, config: SolverConfig) -> bool:
    """Could any vehicle serve both requests? Checked from each pickup.

    A vehicle standing at either request's pickup at its desired time, with
    nobody aboard, tries every stop order of the two rides; the answer is
    True at the first order that keeps every wait, delay and capacity
    limit. If a real vehicle has a feasible combined route, the same order
    is feasible from that route's first pickup at its desired time, so the
    screen never discards a truly shareable pair. Same verdict as
    best_route_exhaustive from both starts, without optimising distance.
    """
    points = (a.pickup, a.dropoff, b.pickup, b.dropoff)
    opens = (a.desired_pickup_time, a.earliest_dropoff_time,
             b.desired_pickup_time, b.earliest_dropoff_time)
    limits = (config.max_wait, config.max_delay, config.max_wait, config.max_delay)
    loads = (a.load, -a.load, b.load, -b.load)
    cap = config.capacity
    dwell = config.dwell
    time_of = travel.travel_time
    times: list[Optional[int]] = [None] * 16  # leg i -> j at 4 * i + j, on first use
    for first in (0, 2):
        t0 = opens[first]
        for order in _PAIR_ORDERS_FROM[first]:
            # stop timing is _advance spelled out over positions: this runs
            # for every pair of requests a run reveals, and per-stop calls
            # with a Location-keyed leg memo cost more than the arithmetic
            loc = first
            free = t0
            load = 0
            for i in order:
                leg = 4 * loc + i
                tt = times[leg]
                if tt is None:
                    tt = times[leg] = time_of(points[loc], points[i])
                arrival = free + tt
                earliest = opens[i]
                service = arrival if arrival > earliest else earliest
                if service - earliest > limits[i]:
                    break
                load += loads[i]
                if load > cap:
                    break
                free = service + dwell
                loc = i
            else:
                return True
    return False


def best_route_insertion(
    start,
    base_route: CandidateRoute,
    new_request: Request,
    travel,
    config: SolverConfig,
) -> Optional[CandidateRoute]:
    """Cheapest feasible insertion of one request into an existing order.

    Tries every pickup/dropoff position pair that keeps the base order
    intact and the pickup before the dropoff. Returns None when no
    placement is feasible.
    """
    if not base_route.feasible:
        raise ValueError("base route must be feasible")
    base = list(base_route.sequence)
    n = len(base)
    best: Optional[tuple[float, tuple, CandidateRoute]] = None
    for i in range(n + 1):
        for j in range(i, n + 1):
            seq = (
                base[:i]
                + [(PICKUP, new_request)]
                + base[i:j]
                + [(DROPOFF, new_request)]
                + base[j:]
            )
            cand = schedule_route(start, seq, travel, config)
            if not cand.feasible:
                continue
            key = tuple(_stop_key(k, r.id) for k, r in seq)
            if best is None or (cand.total_distance, key) < (best[0], best[1]):
                best = (cand.total_distance, key, cand)
    return None if best is None else best[2]
