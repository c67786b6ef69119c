"""Single-vehicle route construction and timing.

One StopTable numbers the stops, reads their attributes off the Requests
and keeps every timed leg; the routines of a re-solve share one, and a
routine called without one builds its own. One kernel, _timed_route, times
every route returned here. One search, _exact_routes, walks every feasible
stop sequence from a vehicle's start that visits the stops it owes, each
chain of them in its order, and keeps the best route of each set of riders
it can serve, so the graph runs it once per vehicle class; which riders may
share a vehicle is whatever that walk finds, with no pair test ahead of it.
Its riders arrive as the caller's StopTable.mask, and each node of the walk
carries the stops still owed as a set of slot bits; a route's distance is
summed in route order, so the order the walk visits stops in cannot change
the result. A stop is late once the vehicle arrives past its
StopTable.dues entry, in the kernel and the search alike. On travel that
keeps the triangle inequality (obeys_triangle), an owed stop late from a
node is late from every node below it, so the walk ends a node at its
first late stop, and it does not enter a child that cannot reach the
node's tightest owed stop, the one due first, in time: that child would
end on it at once. Matrix travel, whose detours may arrive sooner, enters
every child.
best_route_exhaustive reads it for a single request set; with none, it
routes just the passengers' dropoffs, so every delivery-only route is
exact, however many ride. best_route_insertion slots one new request into
an existing order once exact search would be too wide: the same search,
owing the base route's stops and the request's pickup and dropoff as two
chains, with no rider to join. schedule_route times a fixed stop
sequence. The search times stops inline over slots, for speed; it and the
kernel are the only stop timing here. A recursive closure holds itself
through its cell, so _exact_routes deletes its dfs in a finally as the
root call returns or raises: each search's state is then freed by
reference counting, not left for the cyclic collector.

CandidateRoute is a plain dataclass, not a frozen one, since a re-solve
builds thousands and a frozen one sets each field through
object.__setattr__. Its stops are built on first read and kept in its
_stops field, which takes no part in comparing routes: only the routes an
assignment picks are ever read that way. A plain property with that field
stands in for functools.cached_property, whose first read takes a lock on
Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

from .model import DROPOFF, PICKUP, Location, Request, SolverConfig, Stop


@dataclass(frozen=True)
class PlanStart:
    """Where and when a vehicle can begin executing new stops."""

    plan_location: Location
    plan_time: int
    onboard: frozenset[int] = frozenset()


@dataclass
class CandidateRoute:
    """A timed stop sequence for one vehicle with its feasibility verdict."""

    total_distance: float
    # (arrival, service_start, departure) per stop; service may lag arrival
    # when the vehicle reaches a pickup before the desired time
    schedule: tuple[tuple[int, int, int], ...]
    feasible: bool
    sequence: tuple[tuple[str, Request], ...] = field(repr=False)
    start_load: int = field(repr=False)  # seats the passengers aboard take
    _stops: Optional[tuple[Stop, ...]] = field(default=None, init=False,
                                               compare=False, repr=False)

    @property
    def stops(self) -> tuple[Stop, ...]:
        """The sequence as Stop records; built on first read and kept in
        _stops, since only the few routes an assignment picks are ever read
        this way."""
        if self._stops is not None:
            return self._stops
        load = self.start_load
        out = []
        for (kind, req), (_arrival, service, _depart) in zip(self.sequence, self.schedule):
            if kind == PICKUP:
                load += req.load
                out.append(Stop(kind, req.id, req.pickup, service, load))
            else:
                load -= req.load
                out.append(Stop(kind, req.id, req.dropoff, service, load))
        self._stops = tuple(out)
        return self._stops


_request_id = attrgetter("id")


class StopTable:
    """Numbered stops and lazily timed legs shared by route routines.

    Rider i, counted in id order, has its pickup at slot 2i and its dropoff
    at slot 2i + 1, so comparing tuples of slots compares the stop-key
    sequences they spell. A route may start at any rider's stop point, from
    the first slot there, so an origin at one shares its legs; any other
    distinct origin location gets one slot after the riders'. A stop is
    late when the vehicle arrives after its due time, its open time plus
    its limit (max_wait at a pickup, max_delay at a dropoff). A leg's time
    and its distance are each filled on first use and kept, so every
    routine handed the same table pays for each leg once.
    """

    def __init__(self, riders: Iterable[Request], origins: Iterable[Location],
                 travel, config: SolverConfig):
        self.riders = sorted(riders, key=_request_id)
        self.travel = travel
        self.config = config
        self.slot_of = {r.id: 2 * i for i, r in enumerate(self.riders)}
        if len(self.slot_of) != len(self.riders):
            raise ValueError("stop table riders must have distinct ids")
        if config.max_wait < 0 or config.max_delay < 0:
            raise ValueError("stop table limits must be >= 0")
        self.points: list[Location] = []
        self.opens: list[int] = []
        self.dues: list[int] = []
        self.deltas: list[int] = []
        for r in self.riders:
            self.points += (r.pickup, r.dropoff)
            self.opens += (r.desired_pickup_time, r.earliest_dropoff_time)
            self.dues += (r.desired_pickup_time + config.max_wait,
                          r.earliest_dropoff_time + config.max_delay)
            self.deltas += (r.load, -r.load)
        self.origin_slot: dict[Location, int] = {}
        for slot, point in enumerate(self.points):
            self.origin_slot.setdefault(point, slot)
        for loc in origins:
            if loc not in self.origin_slot:
                self.origin_slot[loc] = len(self.points)
                self.points.append(loc)
        # leg a -> b at width * a + b
        self.width = len(self.points)
        self.times: list[Optional[int]] = [None] * (self.width * self.width)
        self.dists: list[Optional[float]] = [None] * (self.width * self.width)

    def seats(self, onboard: Iterable[int]) -> int:
        """Seats taken by the passengers with these request ids, read from
        their rider loads; a passenger who is no rider is a ValueError."""
        seats = 0
        for rid in onboard:
            slot = self.slot_of.get(rid)
            if slot is None:
                raise ValueError(f"passenger {rid} aboard is not a rider of this stop table")
            seats += self.deltas[slot]
        return seats

    def mask(self, ids: Iterable[int]) -> int:
        """The riders with these request ids as a bit set: bit i is rider i."""
        out = 0
        for rid in ids:
            out |= 1 << (self.slot_of[rid] >> 1)
        return out

    def leg(self, a: int, b: int) -> int:
        """Index of leg a -> b in times and dists, with both filled."""
        leg = self.width * a + b
        if self.times[leg] is None:
            self.times[leg] = self.travel.travel_time(self.points[a], self.points[b])
        if self.dists[leg] is None:
            self.dists[leg] = self.travel.distance(self.points[a], self.points[b])
        return leg


def _on_table(table: Optional[StopTable], stops: Sequence[tuple[str, Request]],
              location: Optional[Location], travel, config: SolverConfig
              ) -> tuple[StopTable, Optional[int], list[int]]:
    """The table a routine runs over, location's origin slot, and the slot
    of each stop.

    `table` must have been built for the same travel model and config, hold
    every stop's rider and give location (unless None) an origin slot.
    Without one, a table of just those riders and that location is built.
    """
    if table is None:
        riders = {req.id: req for _kind, req in stops}.values()
        table = StopTable(riders, () if location is None else (location,), travel, config)
    elif table.travel is not travel or (table.config is not config
                                        and table.config != config):
        raise ValueError("stop table was built for another travel model or config")
    origin = None
    if location is not None:
        origin = table.origin_slot.get(location)
        if origin is None:
            raise ValueError("the start's location has no origin slot in the stop table")
    slot_of, riders = table.slot_of, table.riders
    slots = []
    for kind, req in stops:
        slot = slot_of.get(req.id)
        if slot is None or (riders[slot >> 1] is not req and riders[slot >> 1] != req):
            raise ValueError(f"request {req.id} is not a rider of this stop table")
        slots.append(slot + 1 if kind == DROPOFF else slot)
    return table, origin, slots


def _timed_route(table: StopTable, origin: int, start, slots: Sequence[int]) -> CandidateRoute:
    """Time the stops at slots from the start, at origin slot origin: the one
    kernel behind every returned route. Passengers aboard take their riders' seats."""
    opens, dues, deltas = table.opens, table.dues, table.deltas
    width, times, dists = table.width, table.times, table.dists
    cap, dwell = table.config.capacity, table.config.dwell
    start_load = load = table.seats(start.onboard)
    feasible = load <= cap
    total = 0.0
    sched = []
    here, free = origin, start.plan_time
    for pos in slots:
        leg = width * here + pos
        if times[leg] is None or dists[leg] is None:
            table.leg(here, pos)
        arrival = free + times[leg]
        total += dists[leg]
        # vehicle waits at the stop when early; waiting cost is passenger-side
        # only. A dropoff lowers the load, so its capacity check never fails first
        earliest = opens[pos]
        service = arrival if arrival > earliest else earliest
        load += deltas[pos]
        if arrival > dues[pos] or load > cap:
            feasible = False
        free = service + dwell
        sched.append((arrival, service, free))
        here = pos
    riders = table.riders
    sequence = tuple([(DROPOFF if pos & 1 else PICKUP, riders[pos >> 1]) for pos in slots])
    return CandidateRoute(total, tuple(sched), feasible, sequence, start_load)


def schedule_route(start, sequence: Sequence[tuple[str, Request]], travel,
                   config: SolverConfig, *, table: Optional[StopTable] = None) -> CandidateRoute:
    """Time the given stop sequence from the vehicle's plan origin.

    `start` needs plan_location, plan_time and onboard attributes (any
    vehicle state or PlanStart works). Each dropoff must follow its pickup
    or belong to a passenger already onboard; violating that is a usage
    error, while timing or capacity trouble just yields feasible=False.
    Passengers aboard take the seats their requests load, so each must be a
    rider of `table` (ValueError otherwise), as must every stop's request;
    the table must also hold the start's location and have been built for
    the same travel model and config. Without a table, one of the
    sequence's riders is built, so a passenger aboard with no stop on the
    sequence is a ValueError.
    """
    onboard = set(start.onboard)
    for kind, req in sequence:
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
    table, origin, slots = _on_table(table, sequence, start.plan_location, travel, config)
    return _timed_route(table, origin, start, slots)


def best_route_exhaustive(start, request_set: Iterable[Request], travel, config: SolverConfig,
                          requests_by_id: Optional[Mapping[int, Request]] = None, *,
                          table: Optional[StopTable] = None) -> Optional[CandidateRoute]:
    """Exact search over every valid ordering of the required stops.

    Required stops are pickup and dropoff for each request in request_set
    plus a dropoff for each passenger already onboard. Returns the feasible
    route with minimum total distance (ties: lexicographically smallest
    stop-key sequence), or None when every ordering fails a constraint.
    `table` shares numbered stops and timed legs between routines; it must
    hold every rider of the search and the start's location, and have been
    built for the same travel model and config. Without one, the search
    builds a table of its own. The search is _exact_routes over
    request_set, read at the whole set. exhaustive_route_limit bounds
    request_set alone: an empty one asks for the delivery-only route,
    found exactly however many passengers are aboard.
    """
    new = sorted(request_set, key=_request_id)
    if len(new) > config.exhaustive_route_limit:
        raise ValueError(
            f"{len(new)} requests exceeds exhaustive_route_limit "
            f"{config.exhaustive_route_limit}"
        )
    first_stops = [(PICKUP, r) for r in new]
    if start.onboard:
        for rid in sorted(start.onboard):
            if requests_by_id is None or rid not in requests_by_id:
                raise ValueError(f"onboard request {rid} needs requests_by_id to resolve")
            first_stops.append((DROPOFF, requests_by_id[rid]))
        for r in new:
            if r.id in start.onboard:
                raise ValueError(f"request {r.id} is already onboard")
    table, origin, _slots = _on_table(table, first_stops, start.plan_location, travel, config)
    riders = table.mask(r.id for r in new)
    best = _exact_routes(table, origin, start, riders, len(new)).get(riders)
    if best is None:
        return None
    return _timed_route(table, origin, start, best[1])


def _exact_routes(table: StopTable, origin: int, start, riders: int, max_new: int,
                  owed: Optional[Iterable[Sequence[int]]] = None
                  ) -> dict[int, tuple[float, tuple[int, ...]]]:
    """The exact routes of every set of riders the start can serve, in one DFS.

    Walks every feasible stop sequence from the start, at origin slot
    origin, that visits every owed stop and serves riders, a StopTable.mask
    of riders none of whom is aboard. owed holds chains of slots, each
    visited in its given order; by default there is one chain per passenger
    aboard, holding that passenger's dropoff. Each node carries its owed
    stops as a set of slot bits: each chain's next stop and each joined
    rider's dropoff. A rider may join while fewer than max_new have.
    Wherever nothing is left owed, the sequence so far is a route for the
    riders it picked. Returns, per set of riders (a StopTable.mask), the
    lowest (distance, slots) over its routes; slots order like stop keys,
    so that is the stop-key tie-break. Distances are added in route order
    from 0.0, as _timed_route adds them, so each distance is bit-identical
    to the kernel's total and the order a node visits its children in
    cannot change the result. A set no sequence serves, or of more than
    max_new riders, is never a key.

    Under obeys_triangle a node ends at its first late owed stop, and it
    keeps the owed stop due first as it times them. A child other than that
    stop, a rider joining or another owed stop, still owes it, so the node
    reads the leg from the child's stop to it and skips the child when its
    departure plus that leg passes the due time: the child's own first
    loop would end it on that stop, so skipping it changes no result. On
    other travel a late stop is only passed over, since a detour may reach
    it in time, and every child is entered.
    """
    config, travel = table.config, table.travel
    points, opens, dues, deltas = table.points, table.opens, table.dues, table.deltas
    width, times, dists = table.width, table.times, table.dists
    cap, dwell = config.capacity, config.dwell
    dist_of, time_of = travel.distance, travel.travel_time
    # detour-free travel: a stop late from here is late after any detour
    late_kill = getattr(travel, "obeys_triangle", False)
    start_load = table.seats(start.onboard)
    if start_load > cap:
        return {}
    if owed is None:
        owed = [(table.slot_of[rid] + 1,) for rid in sorted(start.onboard)]
    # each chain's first stop is owed from the start; visiting a stop owes
    # the bit of its successor, 0 at a chain's end
    first = 0
    successor = [0] * width
    for chain in owed:
        if chain:
            first |= 1 << chain[0]
            for slot, after in zip(chain, chain[1:]):
                successor[slot] = 1 << after
    path: list[int] = []
    best: dict[int, tuple[float, tuple[int, ...]]] = {}

    def dfs(here, free, load, cost, pending, picked, joinable):
        # stop timing is _timed_route spelled out over slots: this runs at
        # every node, and a call per stop costs more than the arithmetic.
        # A child's distance is filled only once it is entered
        if not pending:
            got = best.get(picked)
            if got is None or cost < got[0] or (cost == got[0] and tuple(path) < got[1]):
                best[picked] = (cost, tuple(path))
        row = width * here
        room = cap - load
        # (slot, the child's pending set, its rider bit or 0 for an owed
        # stop, departure, leg from here)
        steps = []
        # under late_kill, the owed stop due first and its due time
        tight = due = -1
        rest = pending
        while rest:
            bit = rest & -rest
            rest ^= bit
            pos = bit.bit_length() - 1
            leg = row + pos
            tt = times[leg]
            if tt is None:
                tt = times[leg] = time_of(points[here], points[pos])
            arrival = free + tt
            if arrival > dues[pos]:
                if late_kill:
                    return  # every extension still owes this stop
                continue
            if late_kill and (tight < 0 or dues[pos] < due):
                tight, due = pos, dues[pos]
            if deltas[pos] > room:
                continue  # an owed pickup
            earliest = opens[pos]
            service = arrival if arrival > earliest else earliest
            steps.append((pos, pending ^ bit | successor[pos], 0, service + dwell, leg))
        if joinable and picked.bit_count() < max_new:
            rest = joinable
            while rest:
                bit = rest & -rest
                rest ^= bit
                pos = (bit.bit_length() - 1) << 1
                leg = row + pos
                tt = times[leg]
                if tt is None:
                    tt = times[leg] = time_of(points[here], points[pos])
                arrival = free + tt
                if arrival > dues[pos]:
                    if late_kill:
                        joinable ^= bit  # nor can it join further down
                    continue
                if deltas[pos] > room:
                    continue
                earliest = opens[pos]
                service = arrival if arrival > earliest else earliest
                steps.append((pos, pending | 2 << pos, bit, service + dwell, leg))
        for pos, owes, bit, depart, leg in steps:
            if tight >= 0 and pos != tight:
                # the child still owes the tightest stop, and would end at
                # once if it cannot reach it in time
                ahead = width * pos + tight
                tt = times[ahead]
                if tt is None:
                    tt = times[ahead] = time_of(points[pos], points[tight])
                if depart + tt > due:
                    continue
            dist = dists[leg]
            if dist is None:
                dist = dists[leg] = dist_of(points[here], points[pos])
            path.append(pos)
            dfs(pos, depart, load + deltas[pos], cost + dist, owes, picked | bit, joinable ^ bit)
            path.pop()

    try:
        dfs(origin, start.plan_time, start_load, 0.0, first, 0, riders)
    finally:
        # dfs holds itself through its closure cell; dropping the name
        # breaks that cycle, so the search state is freed by reference
        # counting on return, not left for the cyclic collector
        del dfs
    return best


def best_route_insertion(start, base_route: CandidateRoute, new_request: Request, travel,
                         config: SolverConfig, *, table: Optional[StopTable] = None
                         ) -> Optional[CandidateRoute]:
    """Cheapest feasible insertion of one request into an existing order.

    The exact search with no rider to join and two owed chains, the base
    route's stops and the new request's pickup and dropoff: it walks every
    pickup/dropoff position pair that keeps the base order intact and the
    pickup before the dropoff, and keeps the lowest (distance, stop keys),
    as the kernel times it. Every stop is timed from the start and every
    load checked, the seats of the passengers aboard and of the pickups the
    base owes included. Returns None when no placement is feasible. `table`
    (see _on_table) must hold the start's location and every rider of the
    route and of the passengers aboard; a one-off table holds only the
    route's and the new request's.
    """
    if not base_route.feasible:
        raise ValueError("base route must be feasible")
    base = base_route.sequence
    rid = new_request.id
    if rid in start.onboard or any(req.id == rid for _kind, req in base):
        raise ValueError(f"request {rid} cannot join this route")
    table, origin, slots = _on_table(
        table, (*base, (PICKUP, new_request), (DROPOFF, new_request)), start.plan_location,
        travel, config)
    best = _exact_routes(table, origin, start, 0, 0, (slots[:-2], slots[-2:])).get(0)
    if best is None:
        return None
    return _timed_route(table, origin, start, best[1])
