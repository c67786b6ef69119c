import dataclasses
import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collector import collector_off
from instgen import random_plan_start, random_request
from oracles import (
    brute_force_best_route,
    naive_schedule,
    order_keeping_placements,
    stop_sort_key,
)
from rollhorizon.model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    SolverConfig,
    derive_earliest_dropoff,
    validate_route,
)
from rollhorizon.model import Route
from rollhorizon.routing import (
    PlanStart,
    StopTable,
    _exact_routes,
    _insert_stops,
    best_route_exhaustive,
    best_route_insertion,
    schedule_route,
)
from rollhorizon.travel import EuclideanTravel, MatrixTravel, TravelError
from strategies import MINUTE, euclidean_points, matrix_points, travel_case

TRAVEL = EuclideanTravel(1.0)


def cfg(**kw):
    base = dict(horizon=3600, step=600, max_wait=900, max_delay=1200,
                dwell=30, fleet_size=1, capacity=3)
    base.update(kw)
    return SolverConfig(**base)


def mk(rid, px, py, dx, dy, desired):
    return derive_earliest_dropoff(
        Request(rid, Location(px, py), Location(dx, dy), desired, 0), TRAVEL
    )


def test_schedule_route_times_one_request_exactly():
    req = mk(0, 1, 0, 4, 4, 120)
    start = PlanStart(Location(0, 0), 0)
    cand = schedule_route(start, ((PICKUP, req), (DROPOFF, req)), TRAVEL, cfg())
    assert cand.feasible
    # 60s to the pickup, wait until 120, dwell 30, then 300s for the 3-4-5 leg
    assert cand.schedule == ((60, 120, 150), (450, 450, 480))
    assert cand.stops[0].scheduled_time == 120
    assert cand.stops[1].scheduled_time == 450
    assert cand.stops[0].onboard_after == 1
    assert cand.stops[1].onboard_after == 0
    assert cand.total_distance == pytest.approx(1 + 5)


def test_schedule_route_flags_infeasible_wait():
    req = mk(0, 10, 0, 11, 0, 0)  # 600s away but must board by max_wait
    start = PlanStart(Location(0, 0), 0)
    cand = schedule_route(start, ((PICKUP, req), (DROPOFF, req)), TRAVEL,
                          cfg(max_wait=300))
    assert not cand.feasible


def test_schedule_route_capacity_bound():
    a, b = mk(0, 1, 0, 5, 0, 0), mk(1, 2, 0, 6, 0, 0)
    start = PlanStart(Location(0, 0), 0)
    seq = ((PICKUP, a), (PICKUP, b), (DROPOFF, a), (DROPOFF, b))
    assert schedule_route(start, seq, TRAVEL, cfg(capacity=2)).feasible
    assert not schedule_route(start, seq, TRAVEL, cfg(capacity=1)).feasible


def test_schedule_route_rejects_broken_precedence():
    a = mk(0, 1, 0, 5, 0, 0)
    start = PlanStart(Location(0, 0), 0)
    with pytest.raises(ValueError):
        schedule_route(start, ((DROPOFF, a), (PICKUP, a)), TRAVEL, cfg())
    with pytest.raises(ValueError):
        schedule_route(start, ((PICKUP, a), (PICKUP, a)), TRAVEL, cfg())


def test_schedule_route_seats_passengers_aboard_by_their_load():
    # rider 0 takes two seats and has no stop on the sequence
    r0 = Request(0, Location(0, 0), Location(9, 0), 0, 0, load=2)
    a = mk(1, 1, 0, 5, 0, 0)
    start = PlanStart(Location(0, 0), 0, onboard=frozenset([0]))
    seq = ((PICKUP, a), (DROPOFF, a))
    with pytest.raises(ValueError):
        schedule_route(start, seq, TRAVEL, cfg())
    table = StopTable([r0, a], [start.plan_location], TRAVEL, cfg())
    cand = schedule_route(start, seq, TRAVEL, cfg(), table=table)
    assert cand.start_load == 2
    assert [s.onboard_after for s in cand.stops] == [3, 2]
    tight = cfg(capacity=2)
    table = StopTable([r0, a], [start.plan_location], TRAVEL, tight)
    assert not schedule_route(start, seq, TRAVEL, tight, table=table).feasible


def test_schedule_route_delivers_current_passengers():
    a = mk(0, 1, 0, 5, 0, 0)
    start = PlanStart(Location(3, 0), 400, onboard=frozenset([0]))
    cand = schedule_route(start, ((DROPOFF, a),), TRAVEL, cfg())
    assert cand.feasible
    # already aboard: arrival 400+120, earliest possible dropoff is 0+240
    assert cand.schedule == ((520, 520, 550),)


def test_exhaustive_matches_brute_force():
    rng = random.Random(1311)
    config = cfg()
    for trial in range(150):
        n_new = rng.randint(1, 3)
        n_onboard = rng.randint(0, 2)
        reqs = [random_request(rng, rid, 8.0, 900, TRAVEL)
                for rid in range(n_new + n_onboard)]
        by_id = {r.id: r for r in reqs}
        new = reqs[:n_new]
        onboard = [r.id for r in reqs[n_new:]]
        start = PlanStart(
            random_plan_start(rng, 8.0).plan_location,
            rng.randint(0, 600),
            frozenset(onboard),
        )
        got = best_route_exhaustive(start, new, TRAVEL, config, by_id)
        want = brute_force_best_route(
            start.plan_location, start.plan_time, [r.id for r in new],
            onboard, by_id, TRAVEL, config,
        )
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got.total_distance == want[0]
        assert tuple((k, r.id) for k, r in got.sequence) == tuple(want[1])


@st.composite
def route_case(draw):
    # a few points shared by every stop and the origin, so stops coincide
    # and many orders cost exactly the same
    travel, points = draw(travel_case(draw(st.integers(1, 5))))
    point = st.sampled_from(points)
    n_new = draw(st.integers(1, 3))
    n_onboard = draw(st.integers(0, 2))
    # onboard ids interleave with new ones, so their dropoffs sort between
    ids = draw(st.permutations(range(n_new + n_onboard)))
    reqs = {}
    for rid in ids:
        req = Request(rid, draw(point), draw(point), draw(st.integers(0, 20)) * MINUTE,
                      0, draw(st.integers(1, 2)))
        reqs[rid] = derive_earliest_dropoff(req, travel)
    config = SolverConfig(
        horizon=3600, step=600, max_wait=draw(st.integers(0, 30)) * MINUTE,
        max_delay=draw(st.integers(0, 40)) * MINUTE,
        dwell=draw(st.sampled_from((0, 30, 90))), fleet_size=1,
        capacity=draw(st.integers(1, 3)),
    )
    start = PlanStart(draw(point), draw(st.integers(0, 10)) * MINUTE,
                      frozenset(ids[n_new:]))
    return travel, config, start, [reqs[rid] for rid in ids[:n_new]], reqs


@settings(max_examples=300, deadline=None)
@given(route_case())
def test_exhaustive_equals_brute_force_on_hostile_inputs(case):
    travel, config, start, new, by_id = case
    got = best_route_exhaustive(start, new, travel, config, by_id)
    want = brute_force_best_route(
        start.plan_location, start.plan_time, [r.id for r in new],
        sorted(start.onboard), by_id, travel, config,
    )
    assert (got is None) == (want is None)
    if got is None:
        return
    cost, seq, stops = want
    assert got.total_distance == cost
    assert tuple((k, r.id) for k, r in got.sequence) == tuple(seq)
    assert got.stops == tuple(stops)
    again = schedule_route(start, got.sequence, travel, config)
    assert again.feasible
    assert got.schedule == again.schedule
    # the same on a table that holds every rider, not only the route's
    table = StopTable(by_id.values(), [start.plan_location], travel, config)
    assert schedule_route(start, got.sequence, travel, config, table=table) == again


@st.composite
def shared_table_case(draw):
    # one set of riders and several starts, searched in random order on
    # one table, as every search of a re-solve is
    travel, points = draw(travel_case(draw(st.integers(1, 5))))
    point = st.sampled_from(points)
    reqs = {}
    for rid in range(draw(st.integers(1, 5))):
        req = Request(rid, draw(point), draw(point), draw(st.integers(0, 20)) * MINUTE,
                      0, draw(st.integers(1, 2)))
        reqs[rid] = derive_earliest_dropoff(req, travel)
    config = SolverConfig(
        horizon=3600, step=600, max_wait=draw(st.integers(0, 30)) * MINUTE,
        max_delay=draw(st.integers(0, 40)) * MINUTE,
        dwell=draw(st.sampled_from((0, 30, 90))), fleet_size=1,
        capacity=draw(st.integers(1, 3)),
    )
    rider = st.sampled_from(sorted(reqs))
    starts = draw(st.lists(
        st.builds(PlanStart, point, st.integers(0, 10).map(lambda m: m * MINUTE),
                  st.frozensets(rider, max_size=2)),
        min_size=1, max_size=3,
    ))
    searches = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.sampled_from(starts))
        free = sorted(reqs.keys() - start.onboard)
        trip = draw(st.lists(st.sampled_from(free), unique=True,
                             max_size=min(len(free), 3 - len(start.onboard)))
                    if free else st.just([]))
        searches.append((start, [reqs[r] for r in trip]))
    return travel, config, reqs, starts, searches


@settings(max_examples=200, deadline=None)
@given(shared_table_case())
def test_searches_sharing_a_table_equal_one_off_searches(case):
    travel, config, by_id, starts, searches = case
    table = StopTable(by_id.values(), [s.plan_location for s in starts], travel, config)
    for start, trip in searches:
        got = best_route_exhaustive(start, trip, travel, config, by_id, table=table)
        assert got == best_route_exhaustive(start, trip, travel, config, by_id)
        want = brute_force_best_route(
            start.plan_location, start.plan_time, [r.id for r in trip],
            sorted(start.onboard), by_id, travel, config,
        )
        assert (got is None) == (want is None)
        if got is not None:
            assert got.total_distance == want[0]
            assert tuple((k, r.id) for k, r in got.sequence) == tuple(want[1])
            assert got.stops == tuple(want[2])


@st.composite
def enumeration_case(draw):
    # 1-5 riders who may join, 0-2 passengers aboard and 0-2 riders of the
    # table who are neither, as a re-solve's table holds other vehicles'
    # plan riders, ids interleaved, on a few shared points; the caps of an
    # exact route are drawn as the graph derives them
    travel, points = draw(travel_case(draw(st.integers(1, 5))))
    point = st.sampled_from(points)
    n_new = draw(st.integers(1, 5))
    n_onboard = draw(st.integers(0, 2))
    n_other = draw(st.integers(0, 2))
    ids = draw(st.permutations(range(n_new + n_onboard + n_other)))
    reqs = {}
    for rid in ids:
        req = Request(rid, draw(point), draw(point), draw(st.integers(0, 20)) * MINUTE,
                      0, draw(st.integers(1, 2)))
        reqs[rid] = derive_earliest_dropoff(req, travel)
    config = SolverConfig(
        horizon=3600, step=600, max_wait=draw(st.integers(0, 30)) * MINUTE,
        max_delay=draw(st.integers(0, 40)) * MINUTE,
        dwell=draw(st.sampled_from((0, 30, 90))), fleet_size=1,
        capacity=draw(st.integers(1, 3)),
        exhaustive_route_limit=draw(st.integers(1, 4)),
        trip_size_limit=draw(st.none() | st.integers(1, 3)),
    )
    new = sorted(ids[:n_new])
    start = PlanStart(draw(point), draw(st.integers(0, 10)) * MINUTE,
                      frozenset(ids[n_new:n_new + n_onboard]))
    return travel, config, start, [reqs[rid] for rid in new], reqs


@settings(max_examples=250, deadline=None)
@given(enumeration_case())
def test_one_enumeration_equals_brute_force_for_every_rider_set(case):
    travel, config, start, new, by_id = case
    table = StopTable(by_id.values(), [start.plan_location], travel, config)
    max_new = min(config.effective_trip_size_limit,
                  config.exhaustive_route_limit - len(start.onboard))
    riders = table.mask(r.id for r in new)
    got = _exact_routes(table, table.origin_slot[start.plan_location], start, riders, max_new)
    assert all(key & ~riders == 0 for key in got)
    onboard = sorted(start.onboard)
    for size in range(len(new) + 1):
        for trip in itertools.combinations([r.id for r in new], size):
            entry = got.get(table.mask(trip))
            # the empty set is the delivery-only route, whatever the cap
            if size > max(max_new, 0):
                assert entry is None
                continue
            want = brute_force_best_route(start.plan_location, start.plan_time, trip,
                                          onboard, by_id, travel, config)
            assert (entry is None) == (want is None)
            if entry is None:
                continue
            cost, slots = entry
            assert cost == want[0]
            assert [(DROPOFF if s & 1 else PICKUP, table.riders[s >> 1].id)
                    for s in slots] == list(want[1])


def test_exhaustive_rejects_a_table_missing_its_rider_or_origin():
    a, b = mk(0, 1, 0, 5, 0, 0), mk(1, 2, 0, 6, 0, 0)
    start = PlanStart(Location(0, 0), 0)
    table = StopTable([a], [start.plan_location], TRAVEL, cfg())
    with pytest.raises(ValueError):
        best_route_exhaustive(start, [b], TRAVEL, cfg(), table=table)
    with pytest.raises(ValueError):
        best_route_exhaustive(PlanStart(Location(9, 9), 0), [a], TRAVEL, cfg(), table=table)
    with pytest.raises(ValueError):
        best_route_exhaustive(start, [a], TRAVEL, cfg(dwell=0), table=table)


def test_exhaustive_keeps_a_tie_its_bound_overshoots_by_rounding():
    # riders 0 and 3 are aboard; P1 D0 P2 D3 D1 D2 and P1 D1 D0 P2 D3 D2
    # drive the same legs in another order and cost the same float, and the
    # first order's smaller stop keys must win
    a0 = derive_earliest_dropoff(Request(0, Location(0, 5), Location(0, 7), 0, 0), TRAVEL)
    a3 = derive_earliest_dropoff(Request(3, Location(0, 5), Location(0, 7), 0, 0), TRAVEL)
    r1 = derive_earliest_dropoff(Request(1, Location(1, 0), Location(0, 5), 0, 0), TRAVEL)
    r2 = derive_earliest_dropoff(Request(2, Location(0, 7), Location(1, 0), 0, 0), TRAVEL)
    by_id = {r.id: r for r in (a0, a3, r1, r2)}
    start = PlanStart(Location(1, 0), 0, onboard=frozenset([0, 3]))
    config = cfg(max_wait=480, max_delay=480, dwell=0)
    got = best_route_exhaustive(start, [r1, r2], TRAVEL, config, by_id)
    want = brute_force_best_route(start.plan_location, 0, [1, 2], [0, 3], by_id,
                                  TRAVEL, config)
    assert got.total_distance == want[0]
    assert [(k, r.id) for k, r in got.sequence] == list(want[1]) == [
        (PICKUP, 1), (DROPOFF, 0), (PICKUP, 2), (DROPOFF, 3), (DROPOFF, 1), (DROPOFF, 2)]


def test_matrix_search_keeps_a_child_late_only_on_the_direct_leg():
    # the passenger aboard (rider 0) is due at node 3 by 300 s. From rider
    # 1's pickup at node 1 the direct leg there takes 600 s, but the detour
    # through rider 1's dropoff at node 2 takes 120 s, so the join must not
    # be skipped for missing the tightest owed stop on the direct leg
    times = [[0, 60, 600, 60], [600, 0, 60, 600], [600, 600, 0, 60], [600, 600, 600, 0]]
    travel = MatrixTravel(times, [[t / 60 for t in row] for row in times])
    node = [Location(float(i), 0.0, node_id=i) for i in range(4)]
    aboard = Request(0, node[0], node[3], 0, 0)
    joiner = Request(1, node[1], node[2], 60, 120)
    by_id = {0: aboard, 1: joiner}
    start = PlanStart(node[0], 0, frozenset([0]))
    config = cfg(dwell=0, max_wait=120, max_delay=300)
    direct = ((PICKUP, joiner), (DROPOFF, aboard), (DROPOFF, joiner))
    assert not schedule_route(start, direct, travel, config).feasible
    got = best_route_exhaustive(start, [joiner], travel, config, by_id)
    assert got is not None and got.feasible
    assert [(k, r.id) for k, r in got.sequence] == [(PICKUP, 1), (DROPOFF, 1), (DROPOFF, 0)]
    assert got.schedule == ((60, 60, 60), (120, 120, 120), (180, 180, 180))


def test_stop_table_rejects_negative_limits():
    # a stop is late past its open time plus its limit, which equals the
    # validator's wait and delay rules only for limits of 0 or more
    req = mk(0, 1, 0, 2, 0, 0)
    for kw in (dict(max_wait=-1), dict(max_delay=-1)):
        with pytest.raises(ValueError):
            StopTable([req], [Location(0, 0)], TRAVEL, cfg(**kw))


def test_exhaustive_rejects_oversized_input():
    reqs = [mk(i, i, 0, i + 1, 0, 0) for i in range(5)]
    start = PlanStart(Location(0, 0), 0)
    with pytest.raises(ValueError):
        best_route_exhaustive(start, reqs, TRAVEL, cfg(exhaustive_route_limit=4))


def test_exhaustive_rejects_request_already_onboard():
    a = mk(0, 1, 0, 5, 0, 0)
    start = PlanStart(Location(0, 0), 0, onboard=frozenset([0]))
    with pytest.raises(ValueError):
        best_route_exhaustive(start, [a], TRAVEL, cfg(), {0: a})


def test_exhaustive_tie_breaks_to_smallest_stop_keys():
    # two identical pickups at one point, dropoffs at another: all orders
    # cost the same, so the id-ordered sequence must win
    a = mk(0, 2, 0, 4, 0, 0)
    b = mk(1, 2, 0, 4, 0, 0)
    start = PlanStart(Location(0, 0), 0)
    got = best_route_exhaustive(start, [a, b], TRAVEL, cfg(capacity=2, dwell=0))
    keys = [stop_sort_key(k, r.id) for k, r in got.sequence]
    assert keys == sorted(keys) or got.sequence[0][1].id == 0
    assert [r.id for _k, r in got.sequence] == [0, 1, 0, 1]


def test_insertion_preserves_base_order_and_never_beats_exact():
    rng = random.Random(727)
    config = cfg()
    compared = 0
    for _ in range(120):
        reqs = [random_request(rng, rid, 8.0, 900, TRAVEL) for rid in range(3)]
        start = PlanStart(Location(rng.uniform(0, 8), rng.uniform(0, 8)),
                          rng.randint(0, 300))
        base = best_route_exhaustive(start, reqs[:2], TRAVEL, config)
        if base is None:
            continue
        ins = best_route_insertion(start, base, reqs[2], TRAVEL, config)
        full = best_route_exhaustive(start, reqs, TRAVEL, config)
        if ins is None:
            continue
        base_order = [(k, r.id) for k, r in base.sequence]
        ins_order = [(k, r.id) for k, r in ins.sequence if r.id != 2]
        assert ins_order == base_order
        assert full is not None  # insertion found one, so exact must too
        assert ins.total_distance >= full.total_distance - 1e-12
        compared += 1
    assert compared > 30


def search_records(seed=3030, n_cases=150):
    """What _exact_routes returns on seeded cases too wide for brute force:
    6-10 riders on Euclidean or triangle-breaking matrix tables, 0-2 of
    them aboard and up to 3 joining, then insertions of a rider, or of one
    passenger's dropoff, into a base chain, the two owed chains the engine
    inserts with. Each record is a search's (riders, (distance, slots))
    items in key order."""
    rng = random.Random(seed)
    records = []
    for case in range(n_cases):
        build = matrix_points if case % 2 else euclidean_points
        travel, points = build(rng.randint, rng.randint(3, 8))
        reqs = []
        for rid in range(rng.randint(6, 10)):
            req = Request(rid, rng.choice(points), rng.choice(points),
                          rng.randint(0, 20) * MINUTE, 0, rng.randint(1, 2))
            reqs.append(derive_earliest_dropoff(req, travel))
        config = SolverConfig(
            horizon=3600, step=600, max_wait=rng.randint(5, 30) * MINUTE,
            max_delay=rng.randint(5, 40) * MINUTE, dwell=rng.choice((0, 30, 90)),
            fleet_size=1, capacity=rng.randint(2, 4),
        )
        ids = [r.id for r in reqs]
        rng.shuffle(ids)
        onboard = ids[:rng.randint(0, 2)]
        start = PlanStart(rng.choice(points), rng.randint(0, 10) * MINUTE, frozenset(onboard))
        table = StopTable(reqs, [start.plan_location], travel, config)
        origin = table.origin_slot[start.plan_location]
        # a re-solve's table also holds riders who may not join
        riders = table.mask(ids[len(onboard):len(ids) - rng.randint(0, 2)])
        records.append(sorted(_exact_routes(table, origin, start, riders,
                                            rng.randint(0, 3)).items()))
        # a base chain over some free riders and every passenger aboard but
        # the first, in a random precedence-valid order; the first's
        # dropoff, or else the first free rider, is inserted into it
        free = ids[len(onboard):]
        base_ids = free[1:1 + rng.randint(0, 5)]
        stops = [2 * r for r in base_ids] + [2 * r + 1 for r in base_ids]
        stops += [2 * r + 1 for r in onboard[1:]]
        rng.shuffle(stops)
        seen = set()
        for i, slot in enumerate(stops):
            if slot >> 1 in base_ids:
                stops[i] = slot | 1 if slot >> 1 in seen else slot & ~1
                seen.add(slot >> 1)
        new = (2 * onboard[0] + 1,) if onboard else (2 * free[0], 2 * free[0] + 1)
        # as the stops open under the case's limits, and as shuffled under
        # limits loose enough that a shuffled base is often feasible
        in_order = sorted(stops, key=lambda slot: table.opens[slot])
        records.append(sorted(_exact_routes(table, origin, start, 0, 0,
                                            (in_order, new)).items()))
        loose = dataclasses.replace(config, max_wait=120 * MINUTE, max_delay=120 * MINUTE,
                                    capacity=10)
        table = StopTable(reqs, [start.plan_location], travel, loose)
        records.append(sorted(_exact_routes(table, origin, start, 0, 0,
                                            (stops, new)).items()))
    return records


# recorded from the search that entered every child its own deadlines
# allowed, before children late for the tightest owed stop were skipped
SEARCH_ROUTES = 2003
SEARCH_DIGEST = "e4547c657846be5a65f943c8294874d847a1eda79a9bcff3443cbcd3c6194743"


def test_search_results_are_pinned():
    # every route search returns what it returned before it skipped
    # children that cannot reach their parent's tightest owed stop in time
    records = search_records()
    assert len(records) == 450
    assert sum(len(r) for r in records) == SEARCH_ROUTES
    assert hashlib.sha256(repr(records).encode()).hexdigest() == SEARCH_DIGEST


@st.composite
def insertion_case(draw):
    # few shared points, so stops coincide and placements tie on distance.
    # The base serves up to 5 requests, where the engine inserts (past
    # exhaustive_route_limit 4); the new stops are a pickup and dropoff, or
    # one passenger's dropoff as when a vehicle only delivers its riders
    travel, points = draw(travel_case(draw(st.integers(1, 5))))
    point = st.sampled_from(points)
    lone_dropoff = draw(st.booleans())
    n_onboard = draw(st.integers(int(lone_dropoff), 2))
    n_base = draw(st.integers(0, 5 - n_onboard))
    # ids interleave, so the inserted request's keys sort anywhere in the route
    ids = draw(st.permutations(range(n_base + n_onboard + (not lone_dropoff))))
    reqs = {}
    for rid in ids:
        req = Request(rid, draw(point), draw(point), draw(st.integers(0, 40)) * MINUTE,
                      0, draw(st.integers(1, 2)))
        reqs[rid] = derive_earliest_dropoff(req, travel)
    # loose limits too, or a random order of five requests is rarely feasible
    config = SolverConfig(
        horizon=3600, step=600,
        max_wait=draw(st.integers(0, 30) | st.integers(30, 300)) * MINUTE,
        max_delay=draw(st.integers(0, 40) | st.integers(40, 300)) * MINUTE,
        dwell=draw(st.sampled_from((0, 30, 90))), fleet_size=1,
        capacity=draw(st.integers(1, 3) | st.integers(4, 10)),
    )
    new_id = ids[0]
    if lone_dropoff:
        onboard, base_ids = ids[:n_onboard], ids[n_onboard:]
        new_stops = ((DROPOFF, new_id),)
    else:
        base_ids, onboard = ids[1:n_base + 1], ids[n_base + 1:]
        new_stops = ((PICKUP, new_id), (DROPOFF, new_id))
    # a random precedence-valid base order: shuffle every stop, then let
    # each rider's earlier stop be its pickup. Some other passengers'
    # dropoffs may be missing, as on the intermediate bases of the engine's
    # greedy delivery chain, where those passengers still take their seats
    stops = [(PICKUP, r) for r in base_ids] + [(DROPOFF, r) for r in base_ids]
    others = [r for r in onboard if r != new_id]
    skipped = draw(st.sets(st.sampled_from(others))) if others else set()
    stops += [(DROPOFF, r) for r in others if r not in skipped]
    order = list(draw(st.permutations(stops)))
    seen = set()
    for i, (kind, rid) in enumerate(order):
        if rid in base_ids:
            order[i] = (DROPOFF if rid in seen else PICKUP, rid)
            seen.add(rid)
    if draw(st.booleans()):
        # or visit the stops as they open, which is often feasible; a
        # pickup opens no later than its dropoff, and the sort is stable
        order.sort(key=lambda s: reqs[s[1]].desired_pickup_time if s[0] == PICKUP
                   else reqs[s[1]].earliest_dropoff_time)
    start = PlanStart(draw(point), draw(st.integers(0, 10)) * MINUTE, frozenset(onboard))
    return travel, config, start, tuple(order), new_stops, reqs


@settings(max_examples=600, deadline=None)
@given(insertion_case())
def test_insertion_equals_brute_force_over_order_keeping_placements(case):
    travel, config, start, base_order, new_stops, by_id = case
    # every rider on one table, as in a re-solve; the base fills its legs
    table = StopTable(by_id.values(), [start.plan_location], travel, config)
    base = schedule_route(start, [(k, by_id[r]) for k, r in base_order], travel, config,
                          table=table)
    new = [(k, by_id[r]) for k, r in new_stops]
    if len(new_stops) == 2:
        if not base.feasible:
            with pytest.raises(ValueError):
                best_route_insertion(start, base, new[0][1], travel, config, table=table)
            return

        def insert(**kw):
            return best_route_insertion(start, base, new[0][1], travel, config, **kw)
    else:
        def insert(**kw):
            # any base will do: every stop is re-timed and every load checked
            return _insert_stops(start, base, new, travel, config, **kw)
    got = insert(table=table)
    # a one-off table knows only the riders with a stop on the route, so it
    # must refuse a passenger aboard without one
    if start.onboard <= {r for _k, r in (*base_order, *new_stops)}:
        assert insert() == got
    else:
        with pytest.raises(ValueError):
            insert()
    want = None
    for seq in order_keeping_placements(base_order, new_stops):
        feasible, cost, stops = naive_schedule(
            start.plan_location, start.plan_time, seq, by_id, travel, config, start.onboard
        )
        key = tuple(stop_sort_key(k, r) for k, r in seq)
        if feasible and (want is None or (cost, key) < (want[0], want[1])):
            want = (cost, key, seq, stops)
    assert (got is None) == (want is None)
    if got is None:
        return
    cost, _key, seq, stops = want
    assert got.total_distance == cost
    assert tuple((k, r.id) for k, r in got.sequence) == seq
    assert got.stops == tuple(stops)
    assert got == schedule_route(start, got.sequence, travel, config, table=table)


def test_dropoff_insertion_counts_the_passenger_it_drops():
    # rider 0 (two seats) is aboard but not yet on the base, which is then
    # over capacity; dropping it first frees the seats the base needs
    r0 = Request(0, Location(0, 0), Location(0, 0), 0, 0, load=2)
    r1 = mk(1, 1, 0, 2, 0, 600)
    r2 = mk(2, 1, 0, 2, 0, 600)
    by_id = {0: r0, 1: r1, 2: r2}
    start = PlanStart(Location(0, 0), 0, onboard=frozenset([0]))
    config = cfg(dwell=0, capacity=3)
    table = StopTable(by_id.values(), [start.plan_location], TRAVEL, config)
    base_order = ((PICKUP, 1), (PICKUP, 2), (DROPOFF, 1), (DROPOFF, 2))
    base = schedule_route(start, [(k, by_id[r]) for k, r in base_order], TRAVEL, config,
                          table=table)
    assert not base.feasible and base.start_load == 2
    got = _insert_stops(start, base, ((DROPOFF, r0),), TRAVEL, config, table=table)
    assert [(k, r.id) for k, r in got.sequence] == [(DROPOFF, 0), *base_order]
    assert [s.onboard_after for s in got.stops] == [0, 1, 2, 1, 0]
    assert got.schedule[1:] == base.schedule
    assert got.total_distance == base.total_distance


def test_insertion_checks_the_seats_of_the_pickups_it_owes():
    # rider 0 (two seats) is aboard, so the base's pickup of rider 1 (two
    # seats) fits only after rider 0's far dropoff, though dropping rider 0
    # last would drive half as far
    r0 = Request(0, Location(0, 0), Location(10, 0), 0, 0, load=2)
    r1 = Request(1, Location(1, 0), Location(2, 0), 600, 660, load=2)
    start = PlanStart(Location(0, 0), 0, onboard=frozenset([0]))
    config = cfg(dwell=0, capacity=3)
    table = StopTable([r0, r1], [start.plan_location], TRAVEL, config)
    base = schedule_route(start, ((PICKUP, r1), (DROPOFF, r1)), TRAVEL, config, table=table)
    assert not base.feasible
    got = _insert_stops(start, base, ((DROPOFF, r0),), TRAVEL, config, table=table)
    assert got.feasible and got.total_distance == 20.0
    assert [(k, r.id) for k, r in got.sequence] == [(DROPOFF, 0), (PICKUP, 1), (DROPOFF, 1)]


def test_insertion_requires_feasible_base():
    a = mk(0, 10, 0, 11, 0, 0)
    start = PlanStart(Location(0, 0), 0)
    bad = schedule_route(start, ((PICKUP, a), (DROPOFF, a)), TRAVEL,
                         cfg(max_wait=60))
    assert not bad.feasible
    with pytest.raises(ValueError):
        best_route_insertion(start, bad, mk(1, 1, 0, 2, 0, 0), TRAVEL, cfg())


def test_candidate_routes_pass_independent_validator():
    rng = random.Random(515)
    config = cfg()
    for _ in range(60):
        reqs = [random_request(rng, rid, 8.0, 600, TRAVEL)
                for rid in range(rng.randint(1, 3))]
        start = PlanStart(Location(rng.uniform(0, 8), rng.uniform(0, 8)),
                          rng.randint(0, 300))
        cand = best_route_exhaustive(start, reqs, TRAVEL, config)
        if cand is None:
            continue
        probs = validate_route(
            Route(0, cand.stops), {r.id: r for r in reqs}, TRAVEL, config,
            start_location=start.plan_location, start_time=start.plan_time,
        )
        assert probs == []


def test_search_raising_mid_walk_leaves_no_cyclic_garbage():
    # a travel error thrown inside the search unwinds through the finally
    # that drops its recursive closure, so the search state is freed with
    # the traceback
    travel = MatrixTravel([[0, 60, 120], [60, 0, 60], [120, 60, 0]],
                          [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    req = derive_earliest_dropoff(
        Request(0, Location(1, 0, node_id=1), Location(2, 0, node_id=2), 60, 0), travel)
    start = PlanStart(Location(0, 0), 0)  # no node_id to look up
    with collector_off():
        try:
            best_route_exhaustive(start, [req], travel, cfg())
            raised = False
        except TravelError:
            raised = True
        left = gc.collect()
    assert raised
    assert left == 0
