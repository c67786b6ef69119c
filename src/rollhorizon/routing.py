"""Single-vehicle route construction and timing.

schedule_route times a fixed stop sequence; it is the one stop-timing
kernel over Request objects. best_route_exhaustive searches every
precedence-valid ordering and is exact for small request sets.
best_route_insertion slots one new request into an existing order and is
the fallback once exhaustive search would be too wide; it and the greedy
delivery-only route share one placement routine that re-times every
candidate through schedule_route. pair_feasible only asks whether two
requests can share a vehicle at all. The exhaustive search and the pair
screen time stops inline over integer positions, for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
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

    stops: tuple[Stop, ...]
    total_distance: float
    # (arrival, service_start, departure) per stop; service may lag arrival
    # when the vehicle reaches a pickup before the desired time
    schedule: tuple[tuple[int, int, int], ...]
    feasible: bool
    sequence: tuple[tuple[str, Request], ...] = field(default=(), repr=False)


def _sequence_key(sequence: Iterable[tuple[str, Request]]) -> tuple[tuple[int, int], ...]:
    """Stop keys (request id, 0 for pickup / 1 for dropoff): the route tie-break."""
    return tuple((req.id, 0 if kind == PICKUP else 1) for kind, req in sequence)


def schedule_route(
    start, sequence: Sequence[tuple[str, Request]], travel, config: SolverConfig
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
        if kind == PICKUP:
            target, earliest, limit = req.pickup, req.desired_pickup_time, config.max_wait
            load += req.load
        else:
            target, earliest, limit = req.dropoff, req.earliest_dropoff_time, config.max_delay
            load -= req.load
        arrival = free + travel.travel_time(loc, target)
        total += travel.distance(loc, target)
        # vehicle waits at the stop when early; waiting cost is passenger-side
        # only. A dropoff lowers the load, so its capacity check never fails first
        service = max(arrival, earliest)
        feasible = feasible and service - earliest <= limit and load <= config.capacity
        free = service + config.dwell
        loc = target
        stops.append(Stop(kind, req.id, target, service, load))
        sched.append((arrival, service, free))
    return CandidateRoute(tuple(stops), total, tuple(sched), feasible, tuple(sequence))


def _resolve_onboard(start, requests_by_id) -> list[Request]:
    out = []
    for rid in sorted(start.onboard):
        if requests_by_id is None or rid not in requests_by_id:
            raise ValueError(f"onboard request {rid} needs requests_by_id to resolve")
        out.append(requests_by_id[rid])
    return out


# the in-arc bound and the route cost it is held against are float sums
# taken in different orders, so a bound that is exact in real arithmetic can
# exceed a tied route's cost in the last bits; pruning only past this
# relative margin never cuts a route that ties or beats the incumbent
_BOUND_SLACK = 1e-9


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
    start_load = sum(r.load for r in onboard_reqs)
    if start_load > config.capacity:
        return None

    # number the required stops once, in stop-key order, so comparing
    # tuples of positions compares stop-key sequences; the search below
    # touches only these small integers, and the vehicle's origin is n.
    # Each rider's first stop is ready at the start; a pickup at i releases
    # its own dropoff at i + 1
    riders = [(r.id, PICKUP, r) for r in new]
    for rid, _kind, _r in riders:
        if rid in start.onboard:
            raise ValueError(f"request {rid} is already onboard")
    riders += [(r.id, DROPOFF, r) for r in onboard_reqs]
    riders.sort(key=lambda t: t[0])
    order: list[tuple[str, Request]] = []
    points, opens, limits, deltas, release, ready = [], [], [], [], [], []
    for _rid, first, r in riders:
        ready.append(len(order))
        if first == PICKUP:
            order.append((PICKUP, r))
            points.append(r.pickup)
            opens.append(r.desired_pickup_time)
            limits.append(config.max_wait)
            deltas.append(r.load)
            release.append(len(order))
        order.append((DROPOFF, r))
        points.append(r.dropoff)
        opens.append(r.earliest_dropoff_time)
        limits.append(config.max_delay)
        deltas.append(-r.load)
        release.append(-1)
    n = len(order)
    points.append(start.plan_location)

    # leg i -> j at width * i + j, filled on first use
    width = n + 1
    dists: list = [None] * (width * width)
    times: list = [None] * (width * width)

    done = [False] * n
    path: list[tuple[int, int, int, int, int]] = []  # pos, arrival, service, depart, load
    best: Optional[tuple[float, tuple, list]] = None
    late_kill = getattr(travel, "obeys_triangle", False)
    dwell = config.dwell
    cap = config.capacity
    dist_of = travel.distance
    time_of = travel.travel_time

    def dfs(here, free, load, cost):
        nonlocal best
        if len(path) == n:
            key = tuple([step[0] for step in path])
            if best is None or (cost, key) < (best[0], best[1]):
                best = (cost, key, path[:])
            return
        # stop timing is schedule_route spelled out over positions: this runs
        # at every node of every search, and a call per stop plus a leg memo
        # keyed by Location pairs cost more than the arithmetic
        row = width * here
        timed = []
        for pos in ready:
            leg = row + pos
            tt = times[leg]
            if tt is None:
                tt = times[leg] = time_of(points[here], points[pos])
                if dists[leg] is None:
                    dists[leg] = dist_of(points[here], points[pos])
            arrival = free + tt
            earliest = opens[pos]
            service = arrival if arrival > earliest else earliest
            if service - earliest > limits[pos]:
                if late_kill:
                    # this stop still has to happen, and detour-free
                    # travel means no ordering reaches it sooner: node dead
                    return
                continue
            load2 = load + deltas[pos]
            if load2 <= cap:
                timed.append((dists[leg], pos, arrival, service, service + dwell, load2))
        # cheapest feasible hop first: a tight incumbent early makes the
        # in-arc bound below bite; the leaf tie-break fixes the final order.
        # Positions are unique, so the sort never looks past them
        timed.sort()
        # every stop not yet visited must still be entered from the current
        # position or from another pending stop, so summing each pending
        # stop's cheapest incoming arc never overshoots the distance left;
        # arcs between pending stops are looked up only once an incumbent
        # exists, so searches that die early never pay for them
        t_static = None
        static_in = None
        for dist, pos, arrival, service, depart, load2 in timed:
            if best is not None:
                if t_static is None:  # incumbent may appear mid-loop
                    pending = [i for i in range(n) if not done[i]]
                    t_static = 0.0
                    static_in = {}
                    for b in pending:
                        cheapest = None
                        for a in pending:
                            if a != b:
                                d = dists[width * a + b]
                                if d is None:
                                    d = dists[width * a + b] = dist_of(points[a], points[b])
                                if cheapest is None or d < cheapest:
                                    cheapest = d
                        cheapest = 0.0 if cheapest is None else cheapest
                        static_in[b] = cheapest
                        t_static += cheapest
                bound = cost + dist + t_static - static_in[pos]
                if bound - best[0] > (best[0] + t_static) * _BOUND_SLACK:
                    continue
            i = ready.index(pos)
            rel = release[pos]
            if rel < 0:
                del ready[i]
            else:
                ready[i] = rel
            done[pos] = True
            path.append((pos, arrival, service, depart, load2))
            dfs(pos, depart, load2, cost + dist)
            path.pop()
            done[pos] = False
            if rel < 0:
                ready.insert(i, pos)
            else:
                ready[i] = pos

    dfs(n, start.plan_time, start_load, 0.0)
    if best is None:
        return None
    cost, _key, steps = best
    stops = []
    sched = []
    for pos, arrival, service, depart, load in steps:
        kind, req = order[pos]
        stops.append(Stop(kind, req.id, points[pos], service, load))
        sched.append((arrival, service, depart))
    return CandidateRoute(
        tuple(stops), cost, tuple(sched), True, tuple(order[step[0]] for step in steps)
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
            # stop timing is schedule_route spelled out over positions: this runs
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
    return _insert_stops(
        start, base_route, ((PICKUP, new_request), (DROPOFF, new_request)), travel, config
    )


def _insert_stops(
    start,
    base_route: CandidateRoute,
    new_stops: Sequence[tuple[str, Request]],
    travel,
    config: SolverConfig,
) -> Optional[CandidateRoute]:
    """Cheapest feasible placement of new_stops, kept in their given order.

    Tries every placement that keeps the base order, re-times each candidate
    through schedule_route and keeps the lowest (distance, stop keys).
    Returns None when no placement is feasible.
    """
    base = list(base_route.sequence)
    best: Optional[tuple[tuple, CandidateRoute]] = None
    for slots in combinations_with_replacement(range(len(base) + 1), len(new_stops)):
        seq = []
        prev = 0
        for at, stop in zip(slots, new_stops):
            seq += base[prev:at]
            seq.append(stop)
            prev = at
        seq += base[prev:]
        cand = schedule_route(start, seq, travel, config)
        if cand.feasible:
            key = (cand.total_distance, _sequence_key(seq))
            if best is None or key < best[0]:
                best = (key, cand)
    return None if best is None else best[1]
