"""Request-trip-vehicle graph construction.

Trips are request subsets a single vehicle could serve together. The graph
holds every feasible trip-vehicle pairing with its route cost, grown size
by size: a subset is only considered once all of its smaller subsets
survived, and kept only when at least one vehicle can actually drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from .model import DROPOFF, PICKUP, Request, SolverConfig
from .routing import (
    CandidateRoute,
    _insert_stops,
    _sequence_key,
    best_route_exhaustive,
    best_route_insertion,
    pair_feasible,
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
    request_index: Mapping[int, tuple[int, ...]]
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


def _relabel(cand: CandidateRoute, vid: int) -> CandidateRoute:
    if cand.vehicle_id == vid:
        return cand
    return replace(cand, vehicle_id=vid)


def _dropoff_only_route(state, travel, config, requests_by_id):
    """Route that only delivers the vehicle's current passengers."""
    onboard = sorted(state.onboard)
    if not onboard:
        return None
    if len(onboard) <= config.exhaustive_route_limit:
        return best_route_exhaustive(state, [], travel, config, requests_by_id)
    # too many aboard for exact search: place each dropoff greedily
    cand = schedule_route(state, (), travel, config)
    for rid in onboard:
        cand = _insert_stops(state, cand, ((DROPOFF, requests_by_id[rid]),), travel, config)
        if cand is None:
            return None
    return cand


def _route_for(state, trip_reqs: Sequence[Request], base: Optional[CandidateRoute],
               travel, config, requests_by_id):
    """Route serving trip_reqs plus the vehicle's passengers.

    Exact search while the request count on the route stays within
    exhaustive_route_limit; beyond that, inserts the highest-id request
    into the supplied base route (no base means no route).
    """
    total = len(trip_reqs) + len(state.onboard)
    if total <= config.exhaustive_route_limit:
        return best_route_exhaustive(state, trip_reqs, travel, config, requests_by_id)
    if base is None:
        return None
    return best_route_insertion(state, base, trip_reqs[-1], travel, config)


def _rr_screen(requests, travel, config) -> set[frozenset]:
    rr_pairs = set()
    for i, a in enumerate(requests):
        for b in requests[i + 1:]:
            if pair_feasible(a, b, travel, config):
                rr_pairs.add(frozenset((a.id, b.id)))
    return rr_pairs


def build_rtv_graph(active_requests, vehicle_states, travel, config: SolverConfig,
                    size_limit: Optional[int] = None) -> RtvGraph:
    """Assemble the full trip-vehicle graph for one sub-problem.

    Sizes grow one request at a time: a size-k set is a candidate only when
    every size-(k-1) subset is already a trip (and for pairs, the two
    requests passed the shareability screen); it becomes a trip when some
    vehicle has a feasible route. Each vehicle's previously planned stops
    are rebuilt into an edge as well, so commitments stay representable,
    and vehicles with passengers get a delivery-only edge.
    """
    if size_limit is None:
        size_limit = config.effective_trip_size_limit
    requests = sorted(active_requests, key=lambda r: r.id)
    states = sorted(vehicle_states, key=lambda s: s.vehicle_id)
    requests_by_id = {r.id: r for r in requests}
    for state in states:
        for kind, req in getattr(state, "planned_suffix", ()):
            requests_by_id.setdefault(req.id, req)

    # (trip ids frozenset | None, vehicle_id) -> best CandidateRoute
    routes: dict[tuple[Optional[frozenset], int], CandidateRoute] = {}

    def offer(trip_key: Optional[frozenset], vid: int, cand: Optional[CandidateRoute]):
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
    # every search; one representative is routed and the result relabeled
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

    dropoff_base: dict[int, Optional[CandidateRoute]] = {}
    for rep, vids in classes:
        cand = _dropoff_only_route(rep, travel, config, requests_by_id)
        for vid in vids:
            dropoff_base[vid] = None if cand is None else _relabel(cand, vid)
            offer(None, vid, dropoff_base[vid])

    forced_sets: list[frozenset] = []
    preferred_keys: list[tuple[Optional[frozenset], int]] = []
    for state in states:
        vid = state.vehicle_id
        # rebuild the previous plan so the assignment can always keep it
        suffix = tuple(getattr(state, "planned_suffix", ()))
        plan_ok = False
        pending: frozenset = frozenset()
        if suffix:
            cand = schedule_route(state, suffix, travel, config)
            pending = frozenset(r.id for k, r in suffix if k == PICKUP)
            if cand.feasible and pending:
                forced_sets.append(pending)
            plan_ok = cand.feasible
            offer(pending if pending else None, vid, cand)
        if plan_ok:
            preferred_keys.append((pending if pending else None, vid))
        elif state.onboard:
            preferred_keys.append((None, vid))

    rr_pairs = _rr_screen(requests, travel, config)

    # size 1; previously planned trips are feasible by construction
    trip_sets: list[frozenset] = []
    known: set[frozenset] = set()
    forced_known = set(forced_sets)
    for s in forced_sets:
        if s not in known:
            trip_sets.append(s)
            known.add(s)
    class_known: list[set[frozenset]] = [set() for _ in classes]
    for r in requests:
        key = frozenset((r.id,))
        found = False
        for ci, (rep, vids) in enumerate(classes):
            cand = _route_for(
                rep, [r], dropoff_base[vids[0]], travel, config, requests_by_id
            )
            if cand is None:
                continue
            found = True
            class_known[ci].add(key)
            for vid in vids:
                offer(key, vid, _relabel(cand, vid))
        if found and key not in known:
            trip_sets.append(key)
            known.add(key)

    # larger sizes via subset closure
    by_size: dict[int, list[frozenset]] = {}
    for s in trip_sets:
        by_size.setdefault(len(s), []).append(s)
    k = 2
    while k <= size_limit and by_size.get(k - 1):
        candidates = set()
        for base_set in by_size[k - 1]:
            top = max(base_set)
            for r in requests:
                if r.id <= top:
                    continue
                grown = base_set | {r.id}
                if grown in candidates or grown in known:
                    continue
                if k == 2 and grown not in rr_pairs:
                    continue
                if any(grown - {m} not in known for m in grown):
                    continue
                candidates.add(grown)
        for grown in sorted(candidates, key=lambda s: tuple(sorted(s))):
            trip_reqs = [requests_by_id[i] for i in sorted(grown)]
            found = False
            for ci, (rep, vids) in enumerate(classes):
                ck = class_known[ci]
                # dropping any rider from a feasible route keeps it feasible,
                # so this vehicle needs every smaller subset too; rebuilt
                # plans were never tried per vehicle and get a pass
                shy = False
                for m in grown:
                    sub = grown - {m}
                    if sub not in ck and sub not in forced_known:
                        shy = True
                        break
                if shy:
                    continue
                base = routes.get((grown - {max(grown)}, vids[0]))
                cand = _route_for(rep, trip_reqs, base, travel, config, requests_by_id)
                if cand is None:
                    continue
                found = True
                ck.add(grown)
                for vid in vids:
                    offer(grown, vid, _relabel(cand, vid))
            if found:
                trip_sets.append(grown)
                known.add(grown)
                by_size.setdefault(k, []).append(grown)
        k += 1

    # number trips deterministically by (size, ids)
    ordered = sorted(trip_sets, key=lambda s: (len(s), tuple(sorted(s))))
    trip_id_of = {s: i for i, s in enumerate(ordered)}
    trips = tuple(
        Trip(i, tuple(sorted(s))) for i, s in enumerate(ordered)
    )
    edges = []
    for (trip_key, vid), cand in routes.items():
        if trip_key is None:
            edges.append(Edge(None, vid, cand.total_distance, cand))
        elif trip_key in trip_id_of:
            edges.append(Edge(trip_id_of[trip_key], vid, cand.total_distance, cand))
    edges.sort(
        key=lambda e: (() if e.trip_id is None else trips[e.trip_id].request_ids, e.vehicle_id)
    )

    position_of = {(e.trip_id, e.vehicle_id): i for i, e in enumerate(edges)}
    fallback_positions = []
    for key, vid in preferred_keys:
        if key is None:
            lookup = (None, vid)
        elif key in trip_id_of:
            lookup = (trip_id_of[key], vid)
        else:
            continue
        if lookup in position_of:
            fallback_positions.append(position_of[lookup])
    fallback = tuple(sorted(fallback_positions))

    index: dict[int, list[int]] = {}
    for t in trips:
        for rid in t.request_ids:
            index.setdefault(rid, []).append(t.id)
    request_index = {rid: tuple(ids) for rid, ids in sorted(index.items())}
    requiring = frozenset(s.vehicle_id for s in states if s.onboard)
    return RtvGraph(
        trips,
        tuple(edges),
        request_index,
        frozenset(r.id for r in requests),
        requiring,
        fallback,
    )
