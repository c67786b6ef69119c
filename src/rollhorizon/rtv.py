"""Request-trip-vehicle graph construction.

Trips are request subsets a single vehicle could serve together. The graph
holds every feasible trip-vehicle pairing with its route cost. Vehicles at
one place and time with the same passengers form a class, and a class's
trips are bit masks of their riders. Up to its exact cap, a class's trips
are exactly the rider sets its one route enumeration serves: each is
routed, so no subset rule applies. Past the cap, a trip grows by a higher
request, routed by insertion, and a set is tried only once all of its
one-smaller subsets are trips of the class: the subset rule prunes growth
and nothing else. Dropping a rider delays no stop under travel that obeys
the triangle inequality, so there the exact trips are closed under subsets
anyway; on a matrix, a pair may be feasible where one of its riders alone
is not. The groups vehicles' previous plans carry over are trips of every
class from the start and are routed for every vehicle like any other
subset. Each class grows in a loop of its own and stops at the first size
where it finds no trip and no carried-over group has that size: nothing
larger could pass its subset check. Each trip-vehicle pairing is kept as
one edge, replaced only by a cheaper offer, and the edge names its trip by
its request ids. An enumerated route is kept on its edge as its distance
and stop slots and timed only when the edge's route is read, since the
assignment reads only costs. No pairwise screen runs first: a pair becomes
a trip, like any larger set, when some vehicle class routes it.

Edge and RtvGraph are plain dataclasses, not frozen ones, since a
re-solve builds thousands of edges and a frozen dataclass sets each field
through object.__setattr__. Edge.route is a plain property, not a
functools.cached_property, which takes a lock on its first read on
Python 3.11: the first read times the route and stores it in the edge's
timing in place of the (table, origin slot, start) tuple it was timed
from, and later reads return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .model import DROPOFF, PICKUP, SolverConfig
from .routing import (
    CandidateRoute,
    StopTable,
    _exact_routes,
    _insert_stops,
    _timed_route,
    best_route_exhaustive,
    best_route_insertion,
    schedule_route,
)


@dataclass
class Edge:
    """A feasible pairing: vehicle drives route, serving the trip's requests.

    requests are the trip's request ids in ascending order. () marks a
    delivery-only edge that serves no new requests and just drops off the
    vehicle's current passengers; every vehicle carrying passengers has at
    least one such edge, so the assignment step can always route them. slots
    are the route's stops as StopTable slots, which within one graph spell
    exactly one stop sequence.
    """

    requests: tuple[int, ...]
    vehicle_id: int
    cost: float
    # the timed route, or the (table, origin slot, start) that route times
    # slots from on first read
    timing: Union[CandidateRoute, tuple, None] = field(compare=False, repr=False)
    slots: Optional[tuple[int, ...]] = None

    @property
    def route(self) -> Optional[CandidateRoute]:
        """The route, timed by the one kernel on first read and then kept
        in timing in place of the tuple it was timed from."""
        timing = self.timing
        if isinstance(timing, tuple):
            timing = self.timing = _timed_route(*timing, self.slots)
        return timing


@dataclass
class RtvGraph:
    edges: tuple[Edge, ...]
    request_universe: frozenset[int]
    vehicles_requiring_route: frozenset[int]

    @property
    def trips(self) -> tuple[tuple[int, ...], ...]:
        """The distinct non-empty request sets of the edges, in edge order.

        Nothing in the solver reads it; the benchmark's tracer counts it.
        """
        return tuple(dict.fromkeys(e.requests for e in self.edges if e.requests))


def _dropoff_only_route(state, travel, config, requests_by_id, table):
    """Route that only delivers the vehicle's current passengers.

    Searched apart only for a class whose passengers fill the exact cap
    (exhaustive_route_limit), which runs no route enumeration; any other
    class reads this route off its enumeration, as the route of the empty
    rider set.
    """
    onboard = sorted(state.onboard)
    if not onboard:
        return None
    if len(onboard) <= config.exhaustive_route_limit:
        return best_route_exhaustive(state, [], travel, config, requests_by_id, table=table)
    # too many aboard for exact search: place each dropoff greedily
    cand = _timed_route(table, table.origin_slot[state.plan_location], state, ())
    for rid in onboard:
        cand = _insert_stops(state, cand, ((DROPOFF, requests_by_id[rid]),), travel, config,
                             table=table)
        if cand is None:
            return None
    return cand


def build_rtv_graph(active_requests, vehicle_states, travel, config: SolverConfig) -> RtvGraph:
    """Assemble the full trip-vehicle graph for one sub-problem.

    Each vehicle's previously planned stops are rebuilt into an edge, so
    the assignment can keep the plan, and the requests the plan still picks
    up are a trip from the start. Vehicles at one place and time with the
    same passengers form a class and share routes. Up to a class's cap of
    new riders (the trip-size limit, and exhaustive_route_limit less its
    passengers), its trips are exactly the rider sets of its one exact
    enumeration, each with its best route; a loaded class's route of no
    new rider is its delivery-only edge. A class whose passengers fill the
    exact cap runs no enumeration and searches its delivery route apart.
    Past the cap, the class's trips one smaller and the carried-over groups
    grow by a higher request, inserted into the route of the base's edge
    for the class's first vehicle, once every one-smaller subset is a trip
    of the class or a carried-over group. A set is a trip once some class
    routes it, so carried-over groups are offered to every vehicle. The
    carried-over plans are offered first, then each class grows on its own
    until a size where it finds no trip and no carried-over group has that
    size; since no two plans pick up one request, nothing larger could pass
    its subset check. Each pairing is one edge, built when an offer beats
    the pairing's current one (lower distance, then smaller stop slots);
    edges are sorted by their request ids, then vehicle id. An exact route
    is kept as its distance and stop slots, and timed only when its edge's
    route is first read.
    """
    requests = sorted(active_requests, key=lambda r: r.id)
    states = sorted(vehicle_states, key=lambda s: s.vehicle_id)
    requests_by_id = {r.id: r for r in requests}
    for state in states:
        for kind, req in state.planned_suffix:
            requests_by_id.setdefault(req.id, req)

    # route feasibility reads only position, free time and passengers, so
    # vehicles agreeing on those (idle twins at a depot, typically) share
    # every search; one representative is routed and its route offered to all
    class_index: dict[tuple, int] = {}
    classes: list[tuple[object, list[int]]] = []
    for state in states:
        ckey = (state.plan_location, state.plan_time, frozenset(state.onboard))
        at = class_index.get(ckey)
        if at is None:
            class_index[ckey] = len(classes)
            classes.append((state, [state.vehicle_id]))
        else:
            classes[at][1].append(state.vehicle_id)

    # every route routine of this re-solve numbers its stops and reads its
    # legs from one table; trips are StopTable masks of their riders
    table = StopTable(requests_by_id.values(), (rep.plan_location for rep, _ in classes),
                      travel, config)
    slot_of, riders = table.slot_of, table.riders

    # (trip mask, vehicle_id) -> its edge of lowest (distance, slots); a
    # mask's request ids, ascending, are spelled once and shared by its edges
    edges: dict[tuple[int, int], Edge] = {}
    ids_of: dict[int, tuple[int, ...]] = {0: ()}

    def offer(key: int, vids, dist: float, slots: tuple[int, ...], route) -> None:
        ids = ids_of.get(key)
        if ids is None:
            rids = []
            rest = key
            while rest:
                bit = rest & -rest
                rest ^= bit
                rids.append(riders[bit.bit_length() - 1].id)
            ids = ids_of[key] = tuple(rids)
        for vid in vids:
            old = edges.get((key, vid))
            if old is None or dist < old.cost or (dist == old.cost and slots < old.slots):
                edges[(key, vid)] = Edge(ids, vid, dist, route, slots)

    def offer_route(key: int, vids, cand: Optional[CandidateRoute]) -> bool:
        """Offer a timed route; False when it is missing or infeasible."""
        if cand is None or not cand.feasible:
            return False
        slots = tuple([slot_of[req.id] + (kind == DROPOFF) for kind, req in cand.sequence])
        offer(key, vids, cand.total_distance, slots, cand)
        return True

    # the empty trip and every feasible carried-over plan's pickups are trips
    # from the start; a plan was never routed per class, so it passes every
    # class's subset check. Plans are offered first: a class's insertion
    # bases read its first vehicle's routes, and those may be its plan
    given = {0}
    for state in states:
        # rebuild the previous plan so the assignment can always keep it
        if state.planned_suffix:
            pending = table.mask(r.id for k, r in state.planned_suffix if k == PICKUP)
            cand = schedule_route(state, state.planned_suffix, travel, config, table=table)
            if offer_route(pending, (state.vehicle_id,), cand):
                given.add(pending)

    limit = config.effective_trip_size_limit
    given_by_size: list[list[int]] = [[] for _ in range(limit + 1)]
    for m in given:
        if m.bit_count() <= limit:
            given_by_size[m.bit_count()].append(m)
    everyone = table.mask(r.id for r in requests)

    def subsets_known(m: int, known: set) -> bool:
        # the subset rule, which prunes growth past the exact cap: a set is
        # tried only once each of its one-smaller subsets is known
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            if m ^ bit not in known:
                return False
        return True

    for rep, vids in classes:
        # the class's exact routes, timed from here
        origin = table.origin_slot[rep.plan_location]
        timing = (table, origin, rep)
        cap = max(min(limit, config.exhaustive_route_limit - len(rep.onboard)), 0)
        known = set(given)  # the class's trips and the carried-over groups
        if cap:
            # every rider set the enumeration routes is a trip; the route of
            # no new rider is the delivery route
            exact = _exact_routes(table, origin, rep, everyone, cap)
            for m, (dist, slots) in exact.items():
                if m or rep.onboard:
                    offer(m, vids, dist, slots, timing)
            known.update(exact)
        else:
            # passengers fill the exact cap, so no enumeration runs; a lone
            # rider is inserted into this route
            offer_route(0, vids, _dropoff_only_route(rep, travel, config, requests_by_id, table))
        # past the cap a trip grows from a trip one smaller, by a higher
        # request, once every one-smaller subset is a trip of the class or a
        # carried-over group
        last = [m for m in known if m.bit_count() == cap]
        for k in range(cap + 1, limit + 1):
            found = []
            # a carried-over group one smaller passes the subset check, so it
            # is a base too
            for base in {*last, *given_by_size[k - 1]}:
                # the rider joins the route of the base's edge for the class's
                # first vehicle; a member of the class can drive any route of
                # another, and the (0, vid) edge is the delivery route or a
                # cheaper carried-over plan of dropoffs only
                base_edge = edges.get((base, vids[0]))
                if base_edge is None:
                    continue  # no route of the first vehicle to insert into
                route = base_edge.route
                top = base.bit_length()
                rest = everyone >> top << top
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    m = base | bit
                    if not subsets_known(m, known):
                        continue
                    cand = best_route_insertion(rep, route, riders[bit.bit_length() - 1],
                                                travel, config, table=table)
                    if offer_route(m, vids, cand):
                        found.append(m)
            if not found and not given_by_size[k]:
                # a larger trip needs trips of the class or carried-over
                # groups one size down, and two groups never share a rider
                break
            known.update(found)
            last = found

    ordered = sorted(edges.values(), key=lambda e: (e.requests, e.vehicle_id))
    return RtvGraph(
        tuple(ordered),
        frozenset(r.id for r in requests),
        frozenset(s.vehicle_id for s in states if s.onboard),
    )
