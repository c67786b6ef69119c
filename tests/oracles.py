"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written from the constraint definitions,
not by calling the library's routing, assignment, or engine code, so tests
compare two separately derived answers. What stays here are answers the
solver must reproduce: brute-force route orders and schedules, exhaustive
assignments, the whole-horizon optimum and the trip-vehicle graph.
Whether a run's batches partition the requests and its report obeys the
service rules is audited by the benchmark's `bench/check.py`, which the
end-to-end gates load through `benchcode.load_bench`, so those rules are
written out once outside the solver.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from rollhorizon.model import DROPOFF, PICKUP, Location, Request, SolverConfig, Stop


def stop_sort_key(kind: str, request_id: int) -> tuple[int, int]:
    return (request_id, 0 if kind == PICKUP else 1)


def naive_schedule(
    start_loc: Location,
    start_time: int,
    seq: Sequence[tuple[str, int]],
    requests_by_id: Mapping[int, Request],
    travel,
    config: SolverConfig,
    initial_onboard: Iterable[int] = (),
):
    """Walk a stop sequence and time it directly from the definitions.

    Returns (feasible, total_distance, stops). A pickup starts at
    max(arrival, desired); a dropoff starts at max(arrival, earliest
    possible); each stop occupies the vehicle for `dwell` seconds after
    service starts. Infeasible when any waiting or delay limit breaks,
    capacity is exceeded, or the sequence itself is invalid.
    """
    at = _start(start_loc, start_time, initial_onboard, requests_by_id, config)
    if at is None:
        return False, 0.0, []
    stops: list[Stop] = []
    for kind, rid in seq:
        at = _visit(at, kind, rid, requests_by_id, travel, config)
        if at is None:
            return False, 0.0, []
        stops.append(at[5])
    return True, at[4], stops


def _start(loc: Location, time: int, onboard: Iterable[int], requests_by_id, config):
    """The walk's state before its first stop, or None when the passengers
    overfill the vehicle: (place, free time, aboard, load, distance, None)."""
    onboard = frozenset(onboard)
    load = sum(requests_by_id[r].load for r in onboard)
    return None if load > config.capacity else (loc, time, onboard, load, 0.0, None)


def _visit(at, kind: str, rid: int, requests_by_id, travel, config):
    """naive_schedule's walk one stop on: the state after serving the stop,
    its Stop last, or None when the stop breaks a rule."""
    loc, free, onboard, load, total, _stop = at
    req = requests_by_id[rid]
    target = req.pickup if kind == PICKUP else req.dropoff
    arrival = free + travel.travel_time(loc, target)
    total += travel.distance(loc, target)
    if kind == PICKUP:
        if rid in onboard:
            return None
        service = max(arrival, req.desired_pickup_time)
        if service - req.desired_pickup_time > config.max_wait:
            return None
        onboard = onboard | {rid}
        load += req.load
        if load > config.capacity:
            return None
    else:
        if rid not in onboard:
            return None
        service = max(arrival, req.earliest_dropoff_time)
        if service - req.earliest_dropoff_time > config.max_delay:
            return None
        onboard = onboard - {rid}
        load -= req.load
    stop = Stop(kind, rid, target, service, load)
    return target, service + config.dwell, onboard, load, total, stop


def all_stop_orders(new_ids: Sequence[int], onboard_ids: Sequence[int]):
    """Yield every precedence-valid ordering of the required stops."""
    items = [(PICKUP, r) for r in new_ids] + [(DROPOFF, r) for r in new_ids]
    items += [(DROPOFF, r) for r in onboard_ids]
    seen = set()
    for perm in itertools.permutations(items):
        if perm in seen:
            continue
        seen.add(perm)
        ok = True
        picked = set(onboard_ids)
        for kind, rid in perm:
            if kind == PICKUP:
                picked.add(rid)
            elif rid not in picked:
                ok = False
                break
        if ok:
            yield perm


def brute_force_best_route(
    start_loc: Location,
    start_time: int,
    new_ids: Sequence[int],
    onboard_ids: Sequence[int],
    requests_by_id: Mapping[int, Request],
    travel,
    config: SolverConfig,
):
    """Try every valid stop ordering; keep the cheapest feasible one.

    Ties broken by the lexicographically smallest sequence of
    (request_id, kind) stop keys. Returns (cost, seq, stops) or None.
    """
    best = None
    for seq in all_stop_orders(new_ids, onboard_ids):
        feasible, cost, stops = naive_schedule(
            start_loc, start_time, seq, requests_by_id, travel, config, onboard_ids
        )
        if not feasible:
            continue
        key = tuple(stop_sort_key(k, r) for k, r in seq)
        if best is None or (cost, key) < (best[0], best[3]):
            best = (cost, seq, stops, key)
    if best is None:
        return None
    return best[0], best[1], best[2]


def order_keeping_placements(base: Sequence, new_stops: Sequence):
    """Yield base with one or two new stops placed anywhere, in their order.

    The base stops keep their relative order and the new stops theirs; a
    second new stop never goes before the first.
    """
    n = len(base)
    if len(new_stops) == 1:
        for i in range(n + 1):
            yield tuple(base[:i]) + (new_stops[0],) + tuple(base[i:])
        return
    first, second = new_stops
    for i in range(n + 1):
        for j in range(i, n + 1):
            yield (tuple(base[:i]) + (first,) + tuple(base[i:j]) + (second,)
                   + tuple(base[j:]))


def canonical_objective(
    chosen: Iterable[tuple[frozenset, int, float]],
    ignored: Iterable[int],
    penalty: float,
) -> float:
    """Sum edge costs and penalties in a fixed order.

    The order (edges by sorted trip ids then vehicle id, then penalties by
    request id) pins down float accumulation so two implementations agree
    bit for bit.
    """
    total = 0.0
    for trip, veh, cost in sorted(
        chosen, key=lambda e: (tuple(sorted(e[0])), e[1])
    ):
        total += cost
    for _rid in sorted(ignored):
        total += penalty
    return total


def enumerate_assignments(
    edges: Sequence[tuple[frozenset, int, float]],
    request_ids: Iterable[int],
    vehicle_ids: Sequence[int],
    penalty: float,
    vehicles_requiring_route: Iterable[int] = (),
):
    """Exhaustively try every per-vehicle edge choice; return the best.

    Each vehicle picks one of its edges or none (vehicles listed in
    vehicles_requiring_route may not pick none). Chosen trips must be
    pairwise disjoint; requests outside every chosen trip pay the penalty.
    Returns (objective, chosen, ignored) or None when no valid combination
    exists.
    """
    request_ids = set(request_ids)
    requiring = set(vehicles_requiring_route)
    per_vehicle: dict[int, list] = {v: [] for v in vehicle_ids}
    for e in edges:
        per_vehicle[e[1]].append(e)
    options = []
    for v in vehicle_ids:
        opts = list(per_vehicle[v])
        if v not in requiring:
            opts.append(None)
        options.append(opts)
    best = None
    for combo in itertools.product(*options):
        served: set[int] = set()
        valid = True
        for e in combo:
            if e is None:
                continue
            if served & e[0]:
                valid = False
                break
            served |= e[0]
        if not valid:
            continue
        ignored = request_ids - served
        chosen = tuple(e for e in combo if e is not None)
        obj = canonical_objective(chosen, ignored, penalty)
        key = (
            obj,
            tuple(sorted((tuple(sorted(e[0])), e[1]) for e in chosen)),
            tuple(sorted(ignored)),
        )
        if best is None or key < best[0]:
            best = (key, chosen, ignored)
    if best is None:
        return None
    return best[0][0], best[1], best[2]


def global_best_service(
    requests: Sequence[Request],
    depots: Mapping[int, Location],
    travel,
    config: SolverConfig,
):
    """Whole-horizon brute force: best (served count, total distance).

    Considers every split of requests among vehicles (or unserved) and
    every stop ordering per vehicle, vehicles starting at their depot at
    time 0. Maximizes served count, then minimizes summed route distance
    including the leg from depot to first stop. Returns
    (served_count, total_distance, assignment) where assignment maps
    vehicle_id to its request id tuple.
    """
    requests_by_id = {r.id: r for r in requests}
    vehicle_ids = sorted(depots)
    n_opts = len(vehicle_ids) + 1

    route_cache: dict[tuple[int, tuple[int, ...]], Optional[float]] = {}

    def best_cost(vid: int, rids: tuple[int, ...]) -> Optional[float]:
        key = (vid, rids)
        if key not in route_cache:
            got = brute_force_best_route(
                depots[vid], 0, list(rids), [], requests_by_id, travel, config
            )
            route_cache[key] = None if got is None else got[0]
        return route_cache[key]

    best: Optional[tuple[int, float, dict[int, tuple[int, ...]]]] = None
    ids = [r.id for r in requests]
    for choice in itertools.product(range(n_opts), repeat=len(ids)):
        groups: dict[int, list[int]] = {v: [] for v in vehicle_ids}
        served = 0
        for rid, c in zip(ids, choice):
            if c < len(vehicle_ids):
                groups[vehicle_ids[c]].append(rid)
                served += 1
        total = 0.0
        ok = True
        assignment = {}
        for vid in vehicle_ids:
            rids = tuple(groups[vid])
            assignment[vid] = rids
            if not rids:
                continue
            cost = best_cost(vid, rids)
            if cost is None:
                ok = False
                break
            total += cost
        if not ok:
            continue
        if best is None or (-served, total) < (-best[0], best[1]):
            best = (served, total, assignment)
    assert best is not None  # serving nobody is always valid
    return best


def _cheapest_placement(start_loc, start_time, base, new_stops, onboard, requests_by_id,
                        travel, config):
    """Cheapest feasible order-keeping placement of new_stops into base, as
    (cost, seq), or None; ties go to the smallest stop keys."""
    best = None
    for seq in order_keeping_placements(base, new_stops):
        feasible, cost, _stops = naive_schedule(
            start_loc, start_time, seq, requests_by_id, travel, config, onboard)
        key = tuple(stop_sort_key(k, r) for k, r in seq)
        if feasible and (best is None or (cost, key) < best[:2]):
            best = (cost, key, seq)
    return None if best is None else (best[0], best[2])


def _rider_set_routes(start_loc: Location, start_time: int, new_ids: Sequence[int],
                     onboard_ids: Iterable[int], max_new: int,
                     requests_by_id: Mapping[int, Request], travel, config: SolverConfig
                     ) -> dict[tuple[int, ...], tuple[float, tuple]]:
    """The best route of every set of at most max_new new riders, by trying orders.

    Extends stop orders one stop at a time and drops an order at its first
    broken stop, since a stop's timing reads only the stops before it.
    Every order that leaves nobody aboard is a route for the riders it
    picked up. Returns {rider ids ascending: (cost, sequence)}, keeping each
    set's lowest (cost, stop keys); the empty set is a key when the
    passengers can be delivered.
    """
    best: dict[tuple[int, ...], tuple[float, tuple, tuple]] = {}
    seq: list[tuple[str, int]] = []

    def extend(at, picked):
        aboard = at[2]
        if not aboard:
            key = tuple(stop_sort_key(k, r) for k, r in seq)
            ids = tuple(sorted(picked))
            if ids not in best or (at[4], key) < best[ids][:2]:
                best[ids] = (at[4], key, tuple(seq))
        steps = [(DROPOFF, r) for r in sorted(aboard)]
        if len(picked) < max_new:
            steps += [(PICKUP, r) for r in new_ids if r not in picked]
        for kind, rid in steps:
            after = _visit(at, kind, rid, requests_by_id, travel, config)
            if after is not None:
                seq.append((kind, rid))
                extend(after, picked | {rid} if kind == PICKUP else picked)
                seq.pop()

    at = _start(start_loc, start_time, onboard_ids, requests_by_id, config)
    if at is not None:
        extend(at, frozenset())
    return {ids: (cost, seq) for ids, (cost, _key, seq) in best.items()}


def reference_rtv_graph(active_requests: Sequence[Request], vehicle_states, travel,
                        config: SolverConfig) -> dict[tuple[tuple[int, ...], int],
                                                      tuple[float, tuple]]:
    """The trip-vehicle graph's edges, from brute-force routes.

    Follows the graph's rules, with every route found by trying orders:
    - Vehicles at one place and time with the same passengers form a class
      and share routes. A class's cap is the trip-size limit, and
      exhaustive_route_limit less its passengers.
    - Up to its cap, a class's trips are exactly the rider sets it has a
      route for, each by its best order; with passengers aboard, the best
      order of no new rider is its delivery-only edge (trip ()), however
      many passengers ride, a cap of 0 included.
    - A vehicle's carried-over plan is an edge of that vehicle when its
      timing holds, and it makes its group a trip of no class. The graph
      rebuilds a plan only where its class cannot route the plan's stops
      up to the cap, since elsewhere the class's route is never worse;
      offering every plan here checks that claim.
    - Past its cap, a class routes a set once every one-smaller subset is a
      trip of the class: it places the top id's pickup and dropoff at their
      cheapest place into its first vehicle's best edge for the rest of the
      set.
    Returns {(trip ids, vehicle id): (cost, stop keys)}, keeping each
    pairing's lowest (cost, stop keys).
    """
    requests = sorted(active_requests, key=lambda r: r.id)
    states = sorted(vehicle_states, key=lambda s: s.vehicle_id)
    by_id = {r.id: r for r in requests}
    for state in states:
        for _kind, req in state.planned_suffix:
            by_id.setdefault(req.id, req)
    limit = config.exhaustive_route_limit
    size_limit = config.effective_trip_size_limit
    edges: dict[tuple[tuple[int, ...], int], tuple] = {}  # -> (cost, keys, seq)

    def offer(trip, vid, cost, seq):
        key = tuple(stop_sort_key(k, r) for k, r in seq)
        old = edges.get((trip, vid))
        if old is None or (cost, key) < old[:2]:
            edges[(trip, vid)] = (cost, key, seq)

    for state in states:
        suffix = tuple((k, r.id) for k, r in state.planned_suffix)
        if not suffix:
            continue
        feasible, cost, _stops = naive_schedule(state.plan_location, state.plan_time, suffix,
                                                by_id, travel, config, state.onboard)
        if feasible:
            trip = tuple(sorted(r for k, r in suffix if k == PICKUP))
            offer(trip, state.vehicle_id, cost, suffix)

    classes: dict[tuple, list] = {}
    for state in states:
        classes.setdefault((state.plan_location, state.plan_time, state.onboard),
                           []).append(state)
    caps = {ckey: max(min(size_limit, limit - len(ckey[2])), 0) for ckey in classes}
    class_known = {ckey: {()} for ckey in classes}
    for ckey, members in classes.items():
        loc, time, onboard = ckey
        routes = _rider_set_routes(loc, time, [r.id for r in requests], onboard, caps[ckey],
                                   by_id, travel, config)
        for ids, (cost, seq) in routes.items():
            if ids or onboard:
                class_known[ckey].add(ids)
                for state in members:
                    offer(ids, state.vehicle_id, cost, seq)

    for k in range(1, size_limit + 1):
        for ids in itertools.combinations([r.id for r in requests], k):
            subsets = [tuple(i for i in ids if i != m) for m in ids]  # the last drops the top
            for ckey, members in classes.items():
                if k <= caps[ckey] or any(s not in class_known[ckey] for s in subsets):
                    continue
                base = edges.get((subsets[-1], members[0].vehicle_id))
                found = None if base is None else _cheapest_placement(
                    ckey[0], ckey[1], base[2], ((PICKUP, ids[-1]), (DROPOFF, ids[-1])),
                    ckey[2], by_id, travel, config)
                if found is None:
                    continue
                class_known[ckey].add(ids)
                for state in members:
                    offer(ids, state.vehicle_id, *found)
    return {pairing: (cost, key) for pairing, (cost, key, _seq) in edges.items()}
