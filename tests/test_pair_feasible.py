"""pair_feasible against the brute-force oracle and the exact route search.

The screen's verdict must be exactly "some vehicle standing at either
pickup at its desired time can serve both requests", on hostile inputs
too: asymmetric tables that break the triangle inequality, co-located
stops, zero dwell and loads that fill the vehicle.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_best_route
from rollhorizon.model import Location, Request, SolverConfig, derive_earliest_dropoff
from rollhorizon.routing import PlanStart, StopTable, best_route_exhaustive, pair_feasible
from rollhorizon.travel import EuclideanTravel
from strategies import MINUTE, travel_case


@st.composite
def pair_case(draw):
    # points 0-3 are a's pickup and dropoff, then b's
    travel, points = draw(travel_case(4))
    # co-located pickup and dropoff for either request
    for p, d in ((0, 1), (2, 3)):
        if draw(st.booleans()):
            points[d] = points[p]
    capacity = draw(st.integers(1, 3))
    config = SolverConfig(
        horizon=3600, step=600, max_wait=draw(st.integers(0, 15)) * MINUTE,
        max_delay=draw(st.integers(0, 20)) * MINUTE,
        dwell=draw(st.sampled_from((0, 30, 90))), fleet_size=1, capacity=capacity,
    )
    # ids interleave with the other riders', so the pair's table slots vary
    ids = draw(st.permutations(range(5)))
    reqs = []
    for i in (0, 1):
        req = Request(ids[i], points[2 * i], points[2 * i + 1],
                      draw(st.integers(0, 20)) * MINUTE, 0, draw(st.integers(1, 2)))
        reqs.append(derive_earliest_dropoff(req, travel))
    # a shared table also holds other riders and vehicle origins
    point = st.sampled_from(points)
    others = [
        derive_earliest_dropoff(
            Request(rid, draw(point), draw(point), draw(st.integers(0, 20)) * MINUTE, 0),
            travel)
        for rid in ids[2:2 + draw(st.integers(0, 3))]
    ]
    origins = draw(st.lists(point, max_size=2))
    return travel, config, reqs[0], reqs[1], others, origins


@settings(max_examples=400, deadline=None)
@given(pair_case())
def test_pair_feasible_matches_brute_force_from_either_pickup(case):
    travel, config, a, b, others, origins = case
    by_id = {a.id: a, b.id: b}
    oracle = any(
        brute_force_best_route(first.pickup, first.desired_pickup_time, [a.id, b.id],
                               [], by_id, travel, config) is not None
        for first in (a, b)
    )
    exact = any(
        best_route_exhaustive(PlanStart(first.pickup, first.desired_pickup_time),
                              [a, b], travel, config) is not None
        for first in (a, b)
    )
    assert pair_feasible(a, b, travel, config) == oracle == exact
    assert pair_feasible(b, a, travel, config) == oracle
    # on a table shared with other screens, which fill some of its legs first
    table = StopTable([a, b, *others], origins, travel, config)
    for other in others:
        pair_feasible(other, a, travel, config, table=table)
    assert pair_feasible(a, b, travel, config, table=table) == oracle
    assert pair_feasible(b, a, travel, config, table=table) == oracle


def test_vehicle_early_at_second_pickup_waits_for_it():
    travel = EuclideanTravel(1.0)
    # same ride, b wants its pickup 300 s after a: riding together means
    # waiting there, which delays a's dropoff by 300 s
    a = derive_earliest_dropoff(Request(0, Location(0, 0), Location(5, 0), 0, 0), travel)
    b = derive_earliest_dropoff(Request(1, Location(0, 0), Location(5, 0), 300, 0), travel)
    config = SolverConfig(horizon=3600, step=600, max_wait=100, max_delay=299,
                          dwell=0, fleet_size=1, capacity=2)
    assert not pair_feasible(a, b, travel, config)
    assert pair_feasible(a, b, travel, dataclasses.replace(config, max_delay=300))
