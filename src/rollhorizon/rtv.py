"""Request-trip-vehicle graph construction.

Trips are request subsets a single vehicle could serve together. The graph
holds every feasible trip-vehicle pairing with its route cost, grown size
by size from the empty trip: a subset is only considered once all of its
one-smaller subsets are trips, and kept only when at least one vehicle can
actually drive it. The groups vehicles' previous plans carry over are trips
from the start and are routed for every vehicle like any other subset.
Exact routes come from one enumeration per vehicle class, which the growth
only reads; trips past the exact caps are routed by insertion. No pairwise
screen runs first: a pair becomes a trip, like any larger set, when some
vehicle class routes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class Trip:
    id: int
    request_ids: tuple[int, ...]


@dataclass(frozen=True)
class Edge:
    """A feasible pairing: vehicle drives route, serving trip's requests.

    trip_id None marks a delivery-only edge that serves no new requests and
    just drops off the vehicle's current passengers; every vehicle carrying
    passengers has at least one such edge, so the assignment step can always
    route them.
    """

    trip_id: Optional[int]
    vehicle_id: int
    cost: float
    route: CandidateRoute


@dataclass(frozen=True)
class RtvGraph:
    trips: tuple[Trip, ...]
    edges: tuple[Edge, ...]
    request_universe: frozenset[int]
    vehicles_requiring_route: frozenset[int]
    # edge positions forming one known-valid assignment (each vehicle's
    # carried-over plan); lets the solver fall back to it instead of
    # failing when its search budget runs out before any leaf
    fallback_assignment: tuple[int, ...] = ()

    def trip_requests(self, trip_id: Optional[int]) -> tuple[int, ...]:
        if trip_id is None:
            return ()
        return self.trips[trip_id].request_ids


def _dropoff_only_route(state, travel, config, requests_by_id, table):
    """Route that only delivers the vehicle's current passengers."""
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


def _sequence_key(sequence) -> tuple[tuple[int, int], ...]:
    """Stop keys (request id, 0 for pickup / 1 for dropoff): the route tie-break."""
    return tuple((req.id, 0 if kind == PICKUP else 1) for kind, req in sequence)


def build_rtv_graph(active_requests, vehicle_states, travel, config: SolverConfig) -> RtvGraph:
    """Assemble the full trip-vehicle graph for one sub-problem.

    Each vehicle's previously planned stops are rebuilt into an edge, so
    commitments stay representable, and the requests the plan still picks up
    are a trip from the start; vehicles with passengers get a delivery-only
    edge. Trips then grow one request at a time from the empty trip: a set is
    a candidate once every one-smaller subset is a trip, and it becomes a
    trip when some vehicle has a feasible route. Carried-over groups are
    candidates like any other set, so every vehicle is offered them.
    Vehicles at one place and time with the same passengers form a class
    and share routes. Up to a class's cap of new riders (the trip-size
    limit, and exhaustive_route_limit less its passengers), a trip's route
    is read from the class's one exact enumeration of every rider set it can
    serve; past the cap, the top request is inserted into the best route of
    the rest.
    """
    requests = sorted(active_requests, key=lambda r: r.id)
    states = sorted(vehicle_states, key=lambda s: s.vehicle_id)
    requests_by_id = {r.id: r for r in requests}
    for state in states:
        for kind, req in getattr(state, "planned_suffix", ()):
            requests_by_id.setdefault(req.id, req)

    # (trip ids, vehicle_id) -> best CandidateRoute; the empty trip is the
    # delivery-only edge
    routes: dict[tuple[frozenset, int], CandidateRoute] = {}

    def offer(trip_key: frozenset, vid: int, cand: Optional[CandidateRoute]):
        if cand is None or not cand.feasible:
            return
        key = (trip_key, vid)
        old = routes.get(key)
        if old is None or (cand.total_distance, _sequence_key(cand.sequence)) < (
            old.total_distance, _sequence_key(old.sequence)
        ):
            routes[key] = cand

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
    # legs from one table
    table = StopTable(requests_by_id.values(), (rep.plan_location for rep, _ in classes),
                      travel, config)
    dropoff_base: list[Optional[CandidateRoute]] = []
    for rep, vids in classes:
        cand = _dropoff_only_route(rep, travel, config, requests_by_id, table)
        dropoff_base.append(cand)
        for vid in vids:
            offer(frozenset(), vid, cand)

    # the empty trip and every feasible carried-over plan's pickups are trips
    # from the start; a plan was never routed per class, so it passes every
    # class's subset check
    given: set[frozenset] = {frozenset()}
    preferred_keys: list[tuple[frozenset, int]] = []
    for state in states:
        vid = state.vehicle_id
        # rebuild the previous plan so the assignment can always keep it
        suffix = tuple(getattr(state, "planned_suffix", ()))
        if suffix:
            pending = frozenset(r.id for k, r in suffix if k == PICKUP)
            cand = schedule_route(state, suffix, travel, config, table=table)
            offer(pending, vid, cand)
            if cand.feasible:
                given.add(pending)
                preferred_keys.append((pending, vid))
                continue
        if state.onboard:
            preferred_keys.append((frozenset(), vid))

    origins = [table.origin_slot[rep.plan_location] for rep, _ in classes]
    caps = [min(config.effective_trip_size_limit,
                config.exhaustive_route_limit - len(rep.onboard)) for rep, _ in classes]
    exact = [_exact_routes(table, origin, rep, requests, cap) if cap > 0 else {}
             for (rep, _), origin, cap in zip(classes, origins, caps)]
    known = set(given)
    class_known = [set(given) for _ in classes]
    level = [frozenset()]
    for k in range(1, config.effective_trip_size_limit + 1):
        candidates = set()
        for base_set in level:
            top = max(base_set, default=-math.inf)
            for r in requests:
                if r.id <= top:
                    continue
                grown = base_set | {r.id}
                if grown in candidates:
                    continue
                if any(grown - {m} not in known for m in grown):
                    continue
                candidates.add(grown)
        for ids in sorted(tuple(sorted(s)) for s in candidates):
            grown = frozenset(ids)
            mask = table.mask(ids)
            smaller = [grown - {m} for m in ids]  # the last drops the top id
            found = False
            for ci, (rep, vids) in enumerate(classes):
                ck = class_known[ci]
                # dropping any rider from a feasible route keeps it feasible,
                # so this class needs every smaller subset too
                if any(sub not in ck for sub in smaller):
                    continue
                if k <= caps[ci]:
                    best = exact[ci].get(mask)
                    if best is None:
                        continue
                    cand = _timed_route(table, origins[ci], rep, best[1])
                else:
                    base = dropoff_base[ci] if k == 1 else routes.get((smaller[-1], vids[0]))
                    if base is None:
                        continue
                    cand = best_route_insertion(rep, base, requests_by_id[ids[-1]], travel,
                                                config, table=table)
                    if cand is None:
                        continue
                found = True
                ck.add(grown)
                for vid in vids:
                    offer(grown, vid, cand)
            if found:
                known.add(grown)
        level = [s for s in known if len(s) == k]
        if not level:
            break

    # number trips deterministically by (size, ids); the empty trip is the
    # delivery-only edge's None
    ordered = sorted((s for s in known if s), key=lambda s: (len(s), tuple(sorted(s))))
    trip_id_of: dict[frozenset, Optional[int]] = {s: i for i, s in enumerate(ordered)}
    trip_id_of[frozenset()] = None
    trips = tuple(Trip(i, tuple(sorted(s))) for i, s in enumerate(ordered))
    edges = [
        Edge(trip_id_of[trip_key], vid, cand.total_distance, cand)
        for (trip_key, vid), cand in routes.items()
    ]
    edges.sort(
        key=lambda e: (() if e.trip_id is None else trips[e.trip_id].request_ids, e.vehicle_id)
    )

    position_of = {(e.trip_id, e.vehicle_id): i for i, e in enumerate(edges)}
    fallback = []
    for key, vid in preferred_keys:
        at = position_of.get((trip_id_of[key], vid))
        if at is not None:
            fallback.append(at)
    return RtvGraph(
        trips,
        tuple(edges),
        frozenset(r.id for r in requests),
        frozenset(s.vehicle_id for s in states if s.onboard),
        tuple(sorted(fallback)),
    )
