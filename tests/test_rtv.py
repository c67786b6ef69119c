import dataclasses
import itertools
import random

import rollhorizon.engine as engine
import rollhorizon.routing as routing
import rollhorizon.rtv as rtv
from instgen import matrix_instance, random_instance, random_request
from oracles import naive_schedule, reference_rtv_graph, stop_sort_key
from rollhorizon.corpus import CORPUS_SEEDS, corpus_config, make_instance
from rollhorizon.model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    SolverConfig,
    derive_earliest_dropoff,
)
from rollhorizon.routing import PlanStart, best_route_exhaustive, schedule_route
from rollhorizon.rtv import build_rtv_graph
from rollhorizon.simulator import VehicleState
from rollhorizon.travel import EuclideanTravel, MatrixTravel

TRAVEL = EuclideanTravel(1.0)


def cfg(**kw):
    base = dict(horizon=3600, step=600, rh_factor=1, max_wait=600,
                max_delay=900, dwell=30, fleet_size=2, capacity=3)
    base.update(kw)
    return SolverConfig(**base)


def mk(rid, px, py, dx, dy, desired):
    return derive_earliest_dropoff(
        Request(rid, Location(px, py), Location(dx, dy), desired, 0), TRAVEL
    )


def fresh_state(vid, x=0.0, y=0.0, t=0):
    return VehicleState(vehicle_id=vid, plan_location=Location(x, y), plan_time=t)


def test_rv_pair_requires_reachability():
    near = mk(0, 1, 0, 2, 0, 120)
    far = mk(1, 30, 0, 31, 0, 120)  # 30 minutes away, wait cap 10 minutes
    graph = build_rtv_graph([near, far], [fresh_state(0)], TRAVEL, cfg())
    rv = {(e.requests, e.vehicle_id) for e in graph.edges}
    assert ((0,), 0) in rv
    assert ((1,), 0) not in rv


def test_only_requests_one_vehicle_can_serve_together_form_a_pair_trip():
    a = mk(0, 1, 1, 3, 3, 60)
    b = mk(1, 1.5, 1, 3.5, 3, 120)  # almost the same ride
    c = mk(2, 28, 28, 29, 29, 60)  # same time, other end of town
    # a vehicle at each end of town, so every request alone is a trip
    states = [fresh_state(0, 0, 0), fresh_state(1, 28, 28)]
    graph = build_rtv_graph([a, b, c], states, TRAVEL, cfg())
    trips = set(graph.trips)
    assert {(0,), (1,), (2,), (0, 1)} <= trips
    assert (0, 2) not in trips
    assert (1, 2) not in trips


def test_graph_trips_and_edges_small_instance():
    a = mk(0, 1, 1, 3, 3, 60)
    b = mk(1, 1.5, 1, 3.5, 3, 120)
    states = [fresh_state(0, 0, 0), fresh_state(1, 10, 10)]
    graph = build_rtv_graph([a, b], states, TRAVEL, cfg())
    sets = {frozenset(t) for t in graph.trips}
    assert frozenset((0,)) in sets
    assert frozenset((1,)) in sets
    assert frozenset((0, 1)) in sets
    assert graph.request_universe == frozenset((0, 1))
    assert graph.vehicles_requiring_route == frozenset()


def test_graph_subset_closure():
    # dropping a rider delays no stop when travel obeys the triangle
    # inequality, so every rider set a class routes exactly has each of its
    # one-smaller subsets as a trip of the same vehicle, and past the cap
    # the subset rule keeps that too. Vehicles 1 and 2 share a class, and
    # vehicle 3 carries a passenger, which lowers its cap
    checked = 0
    for seed in range(8):
        rng = random.Random(seed)
        config = cfg(capacity=rng.choice((2, 3, 4)), exhaustive_route_limit=rng.choice((3, 4)))
        reqs = [random_request(rng, rid, 6.0, 400, TRAVEL) for rid in range(7)]
        aboard = mk(99, 3, 3, rng.uniform(0, 6), rng.uniform(0, 6), 0)
        states = [fresh_state(0, 1, 1), fresh_state(1, 4, 4), fresh_state(2, 4, 4),
                  VehicleState(vehicle_id=3, plan_location=Location(3, 3), plan_time=30,
                               onboard=frozenset([99]), planned_suffix=((DROPOFF, aboard),))]
        graph = build_rtv_graph(reqs, states, TRAVEL, config)
        trips = {(e.requests, e.vehicle_id) for e in graph.edges}
        sets = {frozenset(t) for t in graph.trips} | {frozenset()}
        for s in sets:
            assert all(s - {drop} in sets for drop in s)
        for state in states:
            cap = min(config.capacity, config.exhaustive_route_limit - len(state.onboard))
            for trip, vid in trips:
                if vid == state.vehicle_id and 2 <= len(trip) <= cap:
                    for rid in trip:
                        assert (tuple(i for i in trip if i != rid), vid) in trips
                    checked += 1
    assert checked >= 1000


def test_trip_size_never_exceeds_capacity_or_cap():
    rng = random.Random(77)
    reqs = [random_request(rng, rid, 4.0, 200, TRAVEL) for rid in range(5)]
    states = [fresh_state(0, 2, 2)]
    solo = build_rtv_graph(reqs, states, TRAVEL, cfg(capacity=1))
    assert all(len(t) == 1 for t in solo.trips)
    capped = build_rtv_graph(reqs, states, TRAVEL,
                             cfg(capacity=3, trip_size_limit=2))
    assert all(len(t) <= 2 for t in capped.trips)


def test_onboard_vehicle_gets_delivery_only_edge():
    rider = mk(9, 0, 0, 5, 5, 0)
    state = VehicleState(
        vehicle_id=0,
        plan_location=Location(1, 1),
        plan_time=300,
        onboard=frozenset([9]),
        planned_suffix=((DROPOFF, rider),),
    )
    newcomer = mk(0, 2, 2, 4, 4, 400)
    graph = build_rtv_graph([newcomer], [state], TRAVEL, cfg())
    assert 0 in graph.vehicles_requiring_route
    none_edges = [e for e in graph.edges if e.requests == () and e.vehicle_id == 0]
    assert len(none_edges) == 1
    drop = none_edges[0].route
    assert [(k, r.id) for k, r in drop.sequence] == [(DROPOFF, 9)]
    # and the newcomer can still ride along
    assert any(e.requests == (0,) for e in graph.edges)


def test_delivery_only_edge_is_exact_past_the_exact_limit():
    # three riders aboard, boarded at the vehicle's spot at time 0; their
    # dropoffs lie at x = 1, -1 and 5, and the carried-over plan drives the
    # worst order D2 D1 D0 (distance 13). At exhaustive_route_limit 2 the
    # passengers fill the exact cap, so no rider may join, yet their
    # delivery route is still the exact one
    riders = [mk(0, 0, 0, 1, 0, 0), mk(1, 0, 0, -1, 0, 0), mk(2, 0, 0, 5, 0, 0)]
    state = VehicleState(
        vehicle_id=0,
        plan_location=Location(0, 0),
        plan_time=0,
        onboard=frozenset([0, 1, 2]),
        planned_suffix=tuple((DROPOFF, riders[i]) for i in (2, 1, 0)),
    )
    graph = build_rtv_graph([], [state], TRAVEL, cfg(exhaustive_route_limit=2))
    (edge,) = [e for e in graph.edges if e.requests == ()]
    assert [(k, r.id) for k, r in edge.route.sequence] == [
        (DROPOFF, 1), (DROPOFF, 0), (DROPOFF, 2)]
    assert edge.route.schedule == ((60, 60, 90), (210, 210, 240), (480, 480, 510))
    assert [s.onboard_after for s in edge.route.stops] == [2, 1, 0]
    assert edge.cost == edge.route.total_distance == 7.0
    # the same edge as at limit 3, where the passengers just fill the cap,
    # and at limit 4, where the class's enumeration gives it as the route
    # of no new rider
    for limit in (3, 4):
        exact = build_rtv_graph([], [state], TRAVEL, cfg(exhaustive_route_limit=limit))
        (best,) = [e for e in exact.edges if e.requests == ()]
        assert best == edge and best.route == edge.route


def test_delivery_route_is_read_off_the_class_enumeration(monkeypatch):
    # passengers aboard below the exact cap: the class's one exact
    # enumeration also gives its delivery-only route, as the route of no
    # new rider, so no delivery search of its own may run. Vehicle 0 plans
    # the worst order D2 D1 D0 of three riders (distance 13); vehicle 1
    # carries one; vehicle 2 is idle and gets no delivery edge
    riders = [mk(0, 0, 0, 1, 0, 0), mk(1, 0, 0, -1, 0, 0), mk(2, 0, 0, 5, 0, 0),
              mk(3, 1, 1, 4, 3, 0)]
    states = [
        VehicleState(vehicle_id=0, plan_location=Location(0, 0), plan_time=0,
                     onboard=frozenset([0, 1, 2]),
                     planned_suffix=tuple((DROPOFF, riders[i]) for i in (2, 1, 0))),
        VehicleState(vehicle_id=1, plan_location=Location(1, 1), plan_time=60,
                     onboard=frozenset([3]), planned_suffix=((DROPOFF, riders[3]),)),
        fresh_state(2),
    ]
    newcomers = [mk(10, 1, 0, 3, 0, 200), mk(11, 0, 1, 0, 4, 300)]
    config = cfg(capacity=4, exhaustive_route_limit=4)
    real = rtv.best_route_exhaustive

    def searched_apart(*args, **kwargs):
        raise AssertionError("a class with room ran a delivery search of its own")

    monkeypatch.setattr(rtv, "best_route_exhaustive", searched_apart)
    graph = build_rtv_graph(newcomers, states, TRAVEL, config)
    by_id = {r.id: r for r in riders + newcomers}
    # the graph's table numbers every rider in id order, pickup at slot 2i
    # and dropoff at 2i + 1
    rank = {rid: i for i, rid in enumerate(sorted(by_id))}
    delivery = {e.vehicle_id: e for e in graph.edges if e.requests == ()}
    assert sorted(delivery) == [0, 1]
    assert any(e.requests == (10,) and e.vehicle_id == 0
               for e in graph.edges)  # vehicle 0 has room for a rider
    for state in states[:2]:
        alone = real(state, [], TRAVEL, config, by_id)
        edge = delivery[state.vehicle_id]
        assert edge.cost == alone.total_distance
        assert edge.slots == tuple(2 * rank[r.id] + (k == DROPOFF) for k, r in alone.sequence)
        assert edge.route == alone
    assert delivery[0].cost == 7.0  # D1 D0 D2 beats the plan


def test_previous_plan_is_rebuilt_as_an_edge():
    a = mk(0, 2, 0, 6, 0, 300)
    b = mk(1, 3, 0, 7, 0, 400)
    start = PlanStart(Location(0, 0), 0)
    config = cfg(capacity=2)
    plan = best_route_exhaustive(start, [a, b], TRAVEL, config)
    assert plan is not None
    state = VehicleState(
        vehicle_id=3,
        plan_location=Location(0, 0),
        plan_time=0,
        planned_suffix=plan.sequence,
    )
    # with b no longer a request, the class's enumeration cannot reach the
    # plan's group, so the plan itself is rebuilt
    for active in ([a, b], [a]):
        graph = build_rtv_graph(active, [state], TRAVEL, config)
        pair_edges = [
            e for e in graph.edges
            if e.vehicle_id == 3 and e.requests == (0, 1)
        ]
        assert pair_edges
        # the rebuilt plan must reproduce the old schedule, not just its cost
        best = min(pair_edges, key=lambda e: e.cost)
        assert best.cost == plan.total_distance
        assert best.route.stops == plan.stops


def test_a_plan_out_of_the_enumerations_reach_is_an_edge_of_its_vehicle():
    # one passenger aboard and exhaustive_route_limit 2 leave a cap of one
    # new rider, so the pair a, b is reachable only by inserting b into a's
    # route. The passenger, picked up at x = 0 at time 0, drops off at
    # x = -6; a rides -2 -> 1 from 120 s, b rides -4 -> 3 from 210 s. a's
    # best route drops a off before the passenger, and no place for b in
    # it keeps both dropoffs in time. The plan Pa Pb Dp Da Db drops the
    # passenger first and serves both
    passenger = mk(9, 0, 0, -6, 0, 0)
    a = mk(0, -2, 0, 1, 0, 120)
    b = mk(1, -4, 0, 3, 0, 210)
    plan = ((PICKUP, a), (PICKUP, b), (DROPOFF, passenger), (DROPOFF, a), (DROPOFF, b))
    config = cfg(max_wait=120, max_delay=600, exhaustive_route_limit=2)

    def carrier(suffix):
        return VehicleState(vehicle_id=0, plan_location=Location(0, 0), plan_time=0,
                            onboard=frozenset([9]), planned_suffix=suffix)

    unplanned = build_rtv_graph([a, b], [carrier(((DROPOFF, passenger),))], TRAVEL, config)
    assert (0, 1) not in unplanned.trips
    graph = build_rtv_graph([a, b], [carrier(plan)], TRAVEL, config)
    (pair,) = [e for e in graph.edges if e.requests == (0, 1)]
    assert pair.vehicle_id == 0
    assert pair.route.sequence == plan
    assert pair.cost == pair.route.total_distance == 15.0


def test_a_plan_its_class_enumerates_is_not_rebuilt(monkeypatch):
    # the plan picks up two riders and the class's cap is 2, so the
    # enumeration walks the plan's own stops and its route is never worse
    a = mk(0, 2, 0, 6, 0, 300)
    b = mk(1, 3, 0, 7, 0, 400)
    config = cfg(capacity=2)
    plan = best_route_exhaustive(PlanStart(Location(0, 0), 0), [a, b], TRAVEL, config)
    state = VehicleState(vehicle_id=3, plan_location=Location(0, 0), plan_time=0,
                         planned_suffix=plan.sequence)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a plan its class enumerates was rebuilt")

    monkeypatch.setattr(rtv, "schedule_route", rebuilt)
    graph = build_rtv_graph([a, b], [state], TRAVEL, config)
    (pair,) = [e for e in graph.edges if e.requests == (0, 1)]
    assert pair.vehicle_id == 3
    assert pair.cost == plan.total_distance
    assert pair.route.stops == plan.stops


def test_plan_that_no_longer_times_falls_back_to_delivery():
    # two riders aboard since time 0 at the vehicle's spot, dropped off at
    # x = 1 and x = 10. The carried-over plan drives to x = 10 first and
    # reaches x = 1 at 1170 s, 1110 s past its earliest dropoff (the limit
    # is 900); the other order is feasible
    riders = [mk(0, 0, 0, 1, 0, 0), mk(1, 0, 0, 10, 0, 0)]
    state = VehicleState(
        vehicle_id=0,
        plan_location=Location(0, 0),
        plan_time=0,
        onboard=frozenset([0, 1]),
        planned_suffix=((DROPOFF, riders[1]), (DROPOFF, riders[0])),
    )
    assert not schedule_route(state, state.planned_suffix, TRAVEL, cfg()).feasible
    newcomer = mk(2, 1, 1, 2, 2, 120)
    graph = build_rtv_graph([newcomer], [state], TRAVEL, cfg())
    # the graph offers the feasible delivery-only edge instead
    (delivery,) = [e for e in graph.edges if e.requests == ()]
    assert delivery.vehicle_id == 0
    assert [r.id for _k, r in delivery.route.sequence] == [0, 1]


def test_carried_over_group_is_offered_to_every_vehicle():
    a = mk(0, 2, 0, 6, 0, 300)
    b = mk(1, 3, 0, 7, 0, 400)
    config = cfg(capacity=2)
    plan = best_route_exhaustive(PlanStart(Location(0, 0), 0), [a, b], TRAVEL, config)
    planner = VehicleState(
        vehicle_id=0,
        plan_location=Location(0, 0),
        plan_time=0,
        planned_suffix=plan.sequence,
    )
    graph = build_rtv_graph([a, b], [planner, fresh_state(1, 1, 0)], TRAVEL, config)
    pair_costs = {
        e.vehicle_id: e.cost
        for e in graph.edges
        if e.requests == (0, 1)
    }
    # the group fits both classes' cap of 2, so each one's enumeration
    # routes it: the idle vehicle one unit closer drives it for less
    assert pair_costs == {0: 7.0, 1: 6.0}


def test_a_carried_over_pair_may_share_in_larger_trips():
    # matrix nodes: a's pickup A, b's pickup B, x's pickup X, the dropoff S
    # of a passenger aboard, then the dropoffs of a, b and x. Legs into
    # dropoffs and the legs S-B, A-X, X-B take a minute, every other leg
    # 100 minutes, so no empty vehicle starting at either pickup can serve
    # a and b together. The vehicle's plan serves both through S; with one
    # passenger aboard its cap is 3, so its enumeration finds that route and
    # the larger trip with x as well
    A, B, X, S, DA, DB, DX = range(7)
    quick = {(S, B), (A, X), (X, B)}
    times = [[0 if i == j else 60 if j in (S, DA, DB, DX) or (i, j) in quick else 6000
              for j in range(7)] for i in range(7)]
    travel = MatrixTravel(times, [[t / 60 for t in row] for row in times])
    node = [Location(float(i), 0.0, node_id=i) for i in range(7)]
    a = Request(0, node[A], node[DA], 0, 0)
    x = Request(1, node[X], node[DX], 60, 0)
    b = Request(2, node[B], node[DB], 120, 0)
    p = Request(3, node[A], node[S], 0, 0)
    config = cfg(max_wait=300, max_delay=3600, dwell=0, capacity=3)
    for first in (a, b):
        assert best_route_exhaustive(PlanStart(first.pickup, first.desired_pickup_time),
                                     [a, b], travel, config) is None
    plan = ((PICKUP, a), (DROPOFF, p), (PICKUP, b), (DROPOFF, a), (DROPOFF, b))
    carrier = VehicleState(vehicle_id=0, plan_location=node[A], plan_time=0,
                           onboard=frozenset([3]), planned_suffix=plan)
    graph = build_rtv_graph([a, x, b], [carrier], travel, config)
    routes = {e.requests: [(k, r.id) for k, r in e.route.sequence]
              for e in graph.edges}
    # the enumeration finds a route as cheap as the plan with smaller stop
    # keys: it drops a off before the passenger, the plan after
    costs = {e.requests: e.cost for e in graph.edges}
    assert routes[(0, 2)] == [(PICKUP, 0), (DROPOFF, 0), (DROPOFF, 3), (PICKUP, 2), (DROPOFF, 2)]
    assert costs[(0, 2)] == 4.0
    assert routes[(0, 1, 2)] == [(PICKUP, 0), (PICKUP, 1), (DROPOFF, 0), (DROPOFF, 1),
                                 (DROPOFF, 3), (PICKUP, 2), (DROPOFF, 2)]


def test_an_exact_trip_needs_no_subset_to_be_a_trip():
    # matrix nodes: the vehicle's spot V, a's pickup A, b's pickup B, their
    # dropoffs DA and DB. The leg V-A takes 100 minutes, so a alone is
    # picked up far too late, but V-B and B-A take a minute each: with b
    # picked up first, a rides too. Every other leg takes a minute
    V, A, B, DA, DB = range(5)
    times = [[0 if i == j else 6000 if (i, j) == (V, A) else 60 for j in range(5)]
             for i in range(5)]
    travel = MatrixTravel(times, [[t / 60 for t in row] for row in times])
    node = [Location(float(i), 0.0, node_id=i) for i in range(5)]
    a = derive_earliest_dropoff(Request(0, node[A], node[DA], 120, 0), travel)
    b = derive_earliest_dropoff(Request(1, node[B], node[DB], 60, 0), travel)
    config = cfg(max_wait=300, max_delay=3600, dwell=0, capacity=2)
    state = VehicleState(vehicle_id=0, plan_location=node[V], plan_time=0)
    graph = build_rtv_graph([a, b], [state], travel, config)
    routes = {e.requests: [(k, r.id) for k, r in e.route.sequence] for e in graph.edges}
    assert sorted(routes) == [(0, 1), (1,)]
    assert routes[(0, 1)][:2] == [(PICKUP, 1), (PICKUP, 0)]
    got = {(e.requests, e.vehicle_id):
           (e.cost, tuple(stop_sort_key(k, r.id) for k, r in e.route.sequence))
           for e in graph.edges}
    assert got == reference_rtv_graph([a, b], [state], travel, config)


def test_edge_costs_match_independent_walk():
    rng = random.Random(3131)
    config = cfg()
    reqs = [random_request(rng, rid, 7.0, 500, TRAVEL) for rid in range(5)]
    by_id = {r.id: r for r in reqs}
    states = [fresh_state(0, 1, 1, 60), fresh_state(1, 6, 6, 0)]
    by_vid = {s.vehicle_id: s for s in states}
    graph = build_rtv_graph(reqs, states, TRAVEL, config)
    assert graph.edges
    for e in graph.edges:
        st = by_vid[e.vehicle_id]
        seq = [(k, r.id) for k, r in e.route.sequence]
        feasible, dist, stops = naive_schedule(
            st.plan_location, st.plan_time, seq, by_id, TRAVEL, config,
            initial_onboard=st.onboard,
        )
        assert feasible
        assert dist == e.cost
        assert [s.scheduled_time for s in stops] == [
            s.scheduled_time for s in e.route.stops
        ]
        assert set(e.requests) == {
            r for k, r in seq if k == PICKUP
        }


def test_edges_sorted_and_build_deterministic():
    rng = random.Random(888)
    config = cfg()
    reqs = [random_request(rng, rid, 7.0, 500, TRAVEL) for rid in range(5)]
    states = [fresh_state(0, 1, 1), fresh_state(1, 5, 5)]
    # a third vehicle carries a plan over, so the carried-over sets that seed
    # the enumeration are part of the input too
    plan_start = PlanStart(Location(3, 3), 0)
    for pair in itertools.combinations(reqs, 2):
        plan = best_route_exhaustive(plan_start, pair, TRAVEL, config)
        if plan is not None:
            break
    assert plan is not None
    carrier = VehicleState(vehicle_id=2, plan_location=Location(3, 3), plan_time=0,
                           planned_suffix=plan.sequence)
    for fleet in (states, states + [carrier]):
        g1 = build_rtv_graph(reqs, fleet, TRAVEL, config)
        g2 = build_rtv_graph(list(reversed(reqs)), list(reversed(fleet)), TRAVEL, config)
        assert g1 == g2
        # edge equality leaves out the timed route, so compare it apart
        for e1, e2 in zip(g1.edges, g2.edges):
            assert e1.route.sequence == e2.route.sequence
            assert e1.route.schedule == e2.route.schedule
            assert e1.route.feasible == e2.route.feasible
        keys = [(e.requests, e.vehicle_id) for e in g1.edges]
        assert keys == sorted(keys)


def test_exact_routes_are_timed_only_when_read(monkeypatch):
    rng = random.Random(4242)
    config = cfg()
    reqs = [random_request(rng, rid, 7.0, 500, TRAVEL) for rid in range(6)]
    states = [fresh_state(0, 1, 1), fresh_state(1, 5, 5), fresh_state(2, 5, 5)]
    timed = []
    real = routing._timed_route

    def count(*args):
        timed.append(args)
        return real(*args)

    monkeypatch.setattr(routing, "_timed_route", count)
    monkeypatch.setattr(rtv, "_timed_route", count)
    # idle vehicles with no carried plan: every trip is read from the exact
    # enumeration, and building the graph times none of them
    graph = build_rtv_graph(reqs, states, TRAVEL, config)
    assert any(len(t) >= 2 for t in graph.trips)
    assert timed == []
    by_vid = {s.vehicle_id: s for s in states}
    built = []
    real_stop = routing.Stop

    def count_stop(*args):
        built.append(args)
        return real_stop(*args)

    monkeypatch.setattr(routing, "Stop", count_stop)
    for edge in graph.edges:
        route = edge.route
        assert edge.route is route
        unread = schedule_route(by_vid[edge.vehicle_id], route.sequence, TRAVEL, config)
        assert route == unread
        assert route.feasible and edge.cost == route.total_distance
        # a route's Stop records are built on its first read and then kept,
        # and the kept records take no part in comparing routes
        built.clear()
        stops = route.stops
        assert route.stops is stops
        assert len(built) == len(stops) == len(route.sequence)
        assert route == unread and unread == route
    assert len(timed) == 2 * len(graph.edges)  # each read once, then the check


def test_corpus_lookahead_work_counts(monkeypatch):
    # the graph's work over the 20 corpus instances at rh 2: insertions,
    # plan rebuilds and timed routes. A plan its class's enumeration
    # reaches is not rebuilt, and a base route is timed only once some
    # extension of it passes the subset rule. Any change to these counts
    # changes how much routing each re-solve does
    counts = {"insertion": 0, "plan": 0, "timed": 0}

    def counting(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(rtv, "best_route_insertion",
                        counting("insertion", rtv.best_route_insertion))
    monkeypatch.setattr(rtv, "schedule_route", counting("plan", rtv.schedule_route))
    timed = counting("timed", routing._timed_route)
    monkeypatch.setattr(routing, "_timed_route", timed)
    monkeypatch.setattr(rtv, "_timed_route", timed)
    for seed in CORPUS_SEEDS:
        engine.run(make_instance(seed), corpus_config(rh_factor=2))
    assert counts == {"insertion": 249, "plan": 2, "timed": 3012}


def test_graph_equals_a_brute_force_reference_on_live_states(monkeypatch):
    # the states an engine run hands the graph: vehicles mid-plan, carrying
    # passengers, some in shared classes. Small exact caps push larger
    # trips onto insertion, and passengers aboard lower the cap further.
    # Each instance also runs on a table that breaks the triangle
    # inequality, where a late stop prunes nothing and a detour may arrive
    # earlier; there a pair may be a trip while one of its riders alone is
    # not, which seeds 83 and 98 reach
    calls = []
    real = engine.build_rtv_graph

    def record(requests, states, travel, config):
        # the engine passes a view of its pending requests, which change
        # after the call
        calls.append((tuple(requests), states, travel, config))
        return real(requests, states, travel, config)

    monkeypatch.setattr(engine, "build_rtv_graph", record)
    for seed in (0, 2, 6, 11, 16, 23, 83, 98):
        rng = random.Random(seed)
        inst, config = random_instance(rng, max_requests=30, max_vehicles=4,
                                       rh_choices=(1, 2, 3))
        config = dataclasses.replace(config, exhaustive_route_limit=rng.choice((2, 3)))
        matrix = matrix_instance(inst, rng)
        # and at limit 1, where a passenger aboard fills the exact cap, and
        # two fill it past the limit
        for limit in (config.exhaustive_route_limit, 1):
            tight = dataclasses.replace(config, exhaustive_route_limit=limit)
            engine.run(inst, tight)
            engine.run(matrix, tight)
    compared = pending = carrying = planned = on_matrix = unclosed = past_limit = 0
    for requests, states, travel, config in calls:
        if not any(s.onboard or s.planned_suffix for s in states):
            continue
        graph = real(requests, states, travel, config)
        got = {
            (e.requests, e.vehicle_id):
                (e.cost, tuple(stop_sort_key(k, r.id) for k, r in e.route.sequence))
            for e in graph.edges
        }
        assert got == reference_rtv_graph(requests, states, travel, config)
        # each trip once, in edge order
        assert list(graph.trips) == sorted({trip for trip, _vid in got if trip})
        compared += 1
        pending += bool(requests)
        carrying += sum(bool(s.onboard) for s in states)
        planned += sum(bool(s.planned_suffix) for s in states)
        on_matrix += isinstance(travel, MatrixTravel)
        past_limit += any(len(s.onboard) > config.exhaustive_route_limit for s in states)
        if not isinstance(travel, MatrixTravel):
            # the dropoffs of a loaded vehicle's feasible plan are a delivery
            # route, so under planar travel the exact search finds one
            assert all(((), s.vehicle_id) in got for s in states if s.onboard)
        # a trip of a vehicle, other than a carried-over group, with a
        # one-smaller subset that is no trip of the vehicle: only the exact
        # enumeration makes one, and a subset rule would have dropped it
        groups = {tuple(sorted(r.id for k, r in s.planned_suffix if k == PICKUP))
                  for s in states}
        unclosed += any(
            trip not in groups and len(trip) >= 2
            and any((tuple(i for i in trip if i != rid), vid) not in got for rid in trip)
            for trip, vid in got)
    assert compared >= 120 and pending >= 100 and carrying >= 250 and planned >= 280
    assert on_matrix >= 65 and unclosed >= 2 and past_limit >= 50
