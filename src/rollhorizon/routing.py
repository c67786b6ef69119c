"""Single-vehicle route construction and timing.

schedule_route times a fixed stop sequence; it is the one stop-timing
kernel over Request objects. best_route_exhaustive searches every
precedence-valid ordering and is exact for small request sets; it runs
over the slots of a StopTable, which numbers each rider's two stops and
keeps every leg once it has been timed, so the searches of one re-solve
share their legs. best_route_insertion slots one new request into an
existing order and is the fallback once exhaustive search would be too
wide; it and the greedy delivery-only route share one placement routine,
which times each placement from the base route's own schedule and
re-times only the winner through schedule_route. pair_feasible only asks
whether two requests can share a vehicle at all. The exhaustive search
and the pair screen time stops inline over integer positions, for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from operator import attrgetter
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

    total_distance: float
    # (arrival, service_start, departure) per stop; service may lag arrival
    # when the vehicle reaches a pickup before the desired time
    schedule: tuple[tuple[int, int, int], ...]
    feasible: bool
    sequence: tuple[tuple[str, Request], ...] = field(repr=False)
    start_load: int = field(repr=False)  # seats the passengers aboard take

    @cached_property
    def stops(self) -> tuple[Stop, ...]:
        """The sequence as Stop records; built on first read, since only
        the few routes an assignment picks are ever read this way."""
        load = self.start_load
        out = []
        for (kind, req), (_arrival, service, _depart) in zip(self.sequence, self.schedule):
            if kind == PICKUP:
                load += req.load
                out.append(Stop(kind, req.id, req.pickup, service, load))
            else:
                load -= req.load
                out.append(Stop(kind, req.id, req.dropoff, service, load))
        return tuple(out)


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
    sched: list[tuple[int, int, int]] = []
    # passengers already aboard occupy seats from the start
    for rid in start.onboard:
        req = by_id.get(rid)
        load += req.load if req is not None else 1
    start_load = load
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
        sched.append((arrival, service, free))
    return CandidateRoute(total, tuple(sched), feasible, tuple(sequence), start_load)


_request_id = attrgetter("id")


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


class StopTable:
    """Numbered stops and lazily timed legs shared by route searches.

    Rider i, counted in id order, has its pickup at slot 2i and its dropoff
    at slot 2i + 1, so comparing tuples of slots compares the stop-key
    sequences they spell. Each distinct origin location gets one slot after
    the riders'. Legs between slots are timed on first use and kept, so
    every search handed the same table pays for each leg once.
    """

    def __init__(self, riders: Iterable[Request], origins: Iterable[Location],
                 travel, config: SolverConfig):
        self.riders = sorted(riders, key=_request_id)
        self.travel = travel
        self.config = config
        self.slot_of = {r.id: 2 * i for i, r in enumerate(self.riders)}
        if len(self.slot_of) != len(self.riders):
            raise ValueError("stop table riders must have distinct ids")
        self.points: list[Location] = []
        self.opens: list[int] = []
        self.limits: list[int] = []
        self.deltas: list[int] = []
        for r in self.riders:
            self.points += (r.pickup, r.dropoff)
            self.opens += (r.desired_pickup_time, r.earliest_dropoff_time)
            self.limits += (config.max_wait, config.max_delay)
            self.deltas += (r.load, -r.load)
        self.origin_slot: dict[Location, int] = {}
        for loc in origins:
            if loc not in self.origin_slot:
                self.origin_slot[loc] = len(self.points)
                self.points.append(loc)
        # leg a -> b at width * a + b
        self.width = len(self.points)
        self.times: list[Optional[int]] = [None] * (self.width * self.width)
        self.dists: list[Optional[float]] = [None] * (self.width * self.width)

    def first_slots(self, new: Sequence[Request], onboard: Sequence[Request]) -> list[int]:
        """Sorted slots of each new rider's pickup and each passenger's dropoff."""
        slots = []
        for reqs, first in ((new, 0), (onboard, 1)):
            for req in reqs:
                slot = self.slot_of.get(req.id)
                if slot is None or (self.riders[slot >> 1] is not req
                                    and self.riders[slot >> 1] != req):
                    raise ValueError(f"request {req.id} is not a rider of this stop table")
                slots.append(slot + first)
        slots.sort()
        return slots


def best_route_exhaustive(
    start,
    request_set: Iterable[Request],
    travel,
    config: SolverConfig,
    requests_by_id: Optional[Mapping[int, Request]] = None,
    *,
    table: Optional[StopTable] = None,
) -> Optional[CandidateRoute]:
    """Exact search over every valid ordering of the required stops.

    Required stops are pickup and dropoff for each request in request_set
    plus a dropoff for each passenger already onboard. Returns the feasible
    route with minimum total distance (ties: lexicographically smallest
    stop-key sequence), or None when every ordering fails a constraint.
    `table` shares numbered stops and timed legs between searches; it must
    hold every rider of the search and the start's location, and have been
    built for the same travel model and config. Without one, the search
    builds a table of its own.
    """
    new = sorted(request_set, key=_request_id)
    if len(new) > config.exhaustive_route_limit:
        raise ValueError(
            f"{len(new)} requests exceeds exhaustive_route_limit "
            f"{config.exhaustive_route_limit}"
        )
    onboard_reqs: list[Request] = []
    start_load = 0
    if start.onboard:
        onboard_reqs = _resolve_onboard(start, requests_by_id)
        for r in new:
            if r.id in start.onboard:
                raise ValueError(f"request {r.id} is already onboard")
        start_load = sum(r.load for r in onboard_reqs)
        if start_load > config.capacity:
            return None
    if table is None:
        table = StopTable(new + onboard_reqs, (start.plan_location,), travel, config)
    elif table.travel is not travel or (table.config is not config
                                        and table.config != config):
        raise ValueError("stop table was built for another travel model or config")
    origin = table.origin_slot.get(start.plan_location)
    if origin is None:
        raise ValueError("the start's location has no origin slot in the stop table")

    # the search touches only slots: each rider's first stop is ready at the
    # start, a pickup at slot p releases its dropoff at p + 1, and slots
    # order like stop keys, so every list below runs in stop-key order
    ready = table.first_slots(new, onboard_reqs)
    n = 2 * len(new) + len(onboard_reqs)
    points, opens, limits, deltas = table.points, table.opens, table.limits, table.deltas
    width, times, dists = table.width, table.times, table.dists

    path: list[int] = []  # slots visited so far
    best: Optional[tuple[float, tuple[int, ...]]] = None  # cost, slots
    late_kill = getattr(travel, "obeys_triangle", False)
    dwell = config.dwell
    cap = config.capacity
    dist_of = travel.distance
    time_of = travel.travel_time

    def dfs(here, free, load, cost):
        nonlocal best
        # stop timing is schedule_route spelled out over slots: this runs
        # at every node of every search, and a call per stop plus a leg memo
        # keyed by Location pairs cost more than the arithmetic
        row = width * here
        if len(path) == n - 1:
            # the one stop left completes the route; the in-arc bound is
            # then just the route's own cost, which the leaf test below
            # rejects whenever the bound would
            pos = ready[0]
            leg = row + pos
            tt = times[leg]
            if tt is None:
                tt = times[leg] = time_of(points[here], points[pos])
                if dists[leg] is None:
                    dists[leg] = dist_of(points[here], points[pos])
            arrival = free + tt
            earliest = opens[pos]
            service = arrival if arrival > earliest else earliest
            if service - earliest > limits[pos] or load + deltas[pos] > cap:
                return
            total = cost + dists[leg]
            if best is None or total <= best[0]:
                leaf = (total, (*path, pos))
                if best is None or leaf < best:
                    best = leaf
            return
        timed = []
        for i, pos in enumerate(ready):
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
                timed.append((dists[leg], pos, i, service + dwell, load2))
        # cheapest feasible hop first: a tight incumbent early makes the
        # in-arc bound below bite; the leaf tie-break fixes the final order.
        # Slots are unique, so the sort never looks past them
        timed.sort()
        # every stop not yet visited must still be entered from the current
        # position or from another pending stop, so summing each pending
        # stop's cheapest incoming arc never overshoots the distance left;
        # arcs between pending stops are looked up only once an incumbent
        # exists, so searches that die early never pay for them
        t_static = None
        static_in = None
        for dist, pos, i, depart, load2 in timed:
            if best is not None:
                if t_static is None:  # incumbent may appear mid-loop
                    # each ready pickup still owes its dropoff too
                    pending = [s for r in ready for s in ((r,) if r & 1 else (r, r + 1))]
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
            if pos & 1:
                del ready[i]
            else:
                ready[i] = pos + 1
            path.append(pos)
            dfs(pos, depart, load2, cost + dist)
            path.pop()
            if pos & 1:
                ready.insert(i, pos)
            else:
                ready[i] = pos

    if n:
        dfs(origin, start.plan_time, start_load, 0.0)
    else:
        best = (0.0, ())
    if best is None:
        return None
    # time the winner once more over legs the search already filled
    cost, slots = best
    riders = table.riders
    sched = []
    here, free = origin, start.plan_time
    for pos in slots:
        arrival = free + times[width * here + pos]
        service = max(arrival, opens[pos])
        free = service + dwell
        sched.append((arrival, service, free))
        here = pos
    return CandidateRoute(
        cost,
        tuple(sched),
        True,
        tuple([(DROPOFF if pos & 1 else PICKUP, riders[pos >> 1]) for pos in slots]),
        start_load,
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

    Tries every placement that keeps the base order and keeps the lowest
    (distance, stop keys). base_route must have been timed from start, and
    be feasible unless it is empty. Each placement is timed from the base
    route's own schedule: the stops before the first new stop keep their
    times, and once every new stop is placed and a base stop's service
    start is back at its old value, the push is absorbed and every later
    stop keeps its time too (forward time slack, Savelsbergh 1992). Leg
    distances are still added one by one in route order, as schedule_route
    adds them, so the (distance, stop keys) key is bit-identical to the
    kernel's; only the winner is re-timed through schedule_route. Returns
    None when no placement is feasible.
    """
    base = base_route.sequence
    in_base = {req.id for _kind, req in base}
    picked = set(start.onboard)
    for kind, req in new_stops:
        if req.id in in_base or (req.id in picked) != (kind == DROPOFF):
            raise ValueError(f"{kind} of request {req.id} cannot join this route")
        picked.add(req.id)
    n = len(base)
    m = len(new_stops)
    cap = config.capacity
    dwell = config.dwell
    # onboard passengers count as schedule_route counts them on the
    # candidate: by load when the candidate carries their request, else 1
    by_id = {req.id: req for _kind, req in (*base, *new_stops)}
    start_load = sum(by_id[rid].load if rid in by_id else 1 for rid in start.onboard)
    if start_load > cap:
        return None

    # stops 0..n-1 are the base's, n..n+m-1 the new ones, n+m the origin
    points, opens, limits, deltas = [], [], [], []
    for kind, req in (*base, *new_stops):
        if kind == PICKUP:
            points.append(req.pickup)
            opens.append(req.desired_pickup_time)
            limits.append(config.max_wait)
            deltas.append(req.load)
        else:
            points.append(req.dropoff)
            opens.append(req.earliest_dropoff_time)
            limits.append(config.max_delay)
            deltas.append(-req.load)
    origin = n + m
    points.append(start.plan_location)

    # per base stop: the running distance before its leg, the load after
    # it, and the largest load from it on; base legs come from the schedule
    sched = base_route.schedule
    legs: dict[tuple[int, int], tuple[int, float]] = {}
    dist_before = [0.0]
    load_after = []
    prev, free, load = origin, start.plan_time, start_load
    for j in range(n):
        d = travel.distance(points[prev], points[j])
        legs[prev, j] = (sched[j][0] - free, d)
        dist_before.append(dist_before[j] + d)
        load += deltas[j]
        load_after.append(load)
        prev, free = j, sched[j][2]
    max_from = load_after + [-math.inf]
    for j in range(n - 1, -1, -1):
        max_from[j] = max(max_from[j], max_from[j + 1])
    # the unchanged prefix must keep its loads within capacity
    last_first = next((j for j in range(n) if load_after[j] > cap), n)

    best: Optional[tuple[float, tuple[int, ...]]] = None
    best_key = None
    for slots in combinations_with_replacement(range(n + 1), m):
        first = slots[0]
        if first > last_first:
            break
        if first:
            prev, free, load = first - 1, sched[first - 1][2], load_after[first - 1]
        else:
            prev, free, load = origin, start.plan_time, start_load
        total = dist_before[first]
        j, t = first, 0
        feasible = True
        while j < n or t < m:
            if t < m and slots[t] == j:
                cur = n + t
                t += 1
            else:
                cur = j
                j += 1
            leg = legs.get((prev, cur))
            if leg is None:
                leg = legs[prev, cur] = (travel.travel_time(points[prev], points[cur]),
                                         travel.distance(points[prev], points[cur]))
            total += leg[1]
            arrival = free + leg[0]
            earliest = opens[cur]
            service = arrival if arrival > earliest else earliest
            load += deltas[cur]
            if service - earliest > limits[cur] or load > cap:
                feasible = False
                break
            free = service + dwell
            prev = cur
            if t == m and cur < n and service == sched[cur][1]:
                # absorbed: the rest runs on the base schedule
                if max_from[j] + load - load_after[cur] > cap:
                    feasible = False
                    break
                for k in range(j, n):
                    total += legs[k - 1, k][1]
                break
        if not feasible:
            continue
        if best is None or total < best[0]:
            best, best_key = (total, slots), None
        elif total == best[0]:
            if best_key is None:
                best_key = _sequence_key(_placed(base, new_stops, best[1]))
            key = _sequence_key(_placed(base, new_stops, slots))
            if key < best_key:
                best, best_key = (total, slots), key
    if best is None:
        return None
    return schedule_route(start, _placed(base, new_stops, best[1]), travel, config)


def _placed(base, new_stops, slots) -> list[tuple[str, Request]]:
    """base with new_stops[i] placed before base stop slots[i]."""
    seq = []
    prev = 0
    for at, stop in zip(slots, new_stops):
        seq += base[prev:at]
        seq.append(stop)
        prev = at
    seq += base[prev:]
    return seq
