"""Seeded random generators shared by the test modules.

Every generator takes an explicit random.Random so each test pins its own
seed; nothing here touches global RNG state.
"""

from __future__ import annotations

import math
import random

from rollhorizon.instance_io import Instance
from rollhorizon.model import (
    Location,
    Request,
    SolverConfig,
    Vehicle,
    derive_earliest_dropoff,
)
from rollhorizon.routing import PlanStart
from rollhorizon.rtv import Edge, RtvGraph
from rollhorizon.travel import EuclideanTravel, MatrixTravel


def random_request(rng: random.Random, rid: int, area: float, latest_pickup: int,
                   travel, load: int = 1) -> Request:
    px, py = rng.uniform(0, area), rng.uniform(0, area)
    while True:
        dx, dy = rng.uniform(0, area), rng.uniform(0, area)
        if ((dx - px) ** 2 + (dy - py) ** 2) ** 0.5 >= 0.5:
            break
    req = Request(
        id=rid,
        pickup=Location(px, py),
        dropoff=Location(dx, dy),
        desired_pickup_time=rng.randint(0, latest_pickup),
        earliest_dropoff_time=0,
        load=load,
    )
    return derive_earliest_dropoff(req, travel)


def random_instance(
    rng: random.Random,
    max_requests: int = 50,
    max_vehicles: int = 6,
    rh_choices=(0, 1, 2, 3),
) -> tuple[Instance, SolverConfig]:
    """A full random problem with randomized service-quality settings."""
    n_req = rng.randint(1, max_requests)
    # a lone vehicle facing a big backlog turns every window into a giant
    # matching problem; keep the fleet at least 2 once demand is heavy
    lo_veh = 2 if n_req > 25 else 1
    n_veh = rng.randint(min(lo_veh, max_vehicles), max_vehicles)
    area = rng.uniform(4.0, 12.0)
    speed = rng.choice([0.5, 1.0, 2.0])
    travel = EuclideanTravel(speed)
    step = rng.choice([120, 300, 600])
    rh_factor = rng.choice(rh_choices)
    # spread arrivals far enough that one window's batch stays around
    # fifteen requests; validity checking wants churn across many
    # iterations, not one monster matching problem
    min_steps = max(2, math.ceil(n_req * (rh_factor + 1) / 15))
    horizon = step * rng.randint(min_steps, max(min_steps, 8))
    capacity = rng.randint(1, 4)
    # busy four-seat instances would enumerate every request quadruple;
    # cap those at triples (loads of 2 still fill the seats) and exercise
    # the cap as an explicit setting on a few smaller draws too
    if capacity == 4 and n_req > 20:
        trip_cap = 3
    else:
        trip_cap = rng.choice([None, None, None, 2, 3])
    config = SolverConfig(
        horizon=horizon,
        step=step,
        rh_factor=rh_factor,
        max_wait=rng.randrange(120, 601, 60),
        max_delay=rng.randrange(120, 1201, 60),
        dwell=rng.choice([0, 15, 30, 60]),
        fleet_size=n_veh,
        capacity=capacity,
        trip_size_limit=trip_cap,
    )
    requests = tuple(
        random_request(rng, rid, area, horizon - step, travel,
                       load=rng.randint(1, min(2, capacity)))
        for rid in range(n_req)
    )
    depot = Location(rng.uniform(0, area), rng.uniform(0, area))
    vehicles = tuple(Vehicle(i, capacity, depot) for i in range(n_veh))
    inst = Instance(requests=requests, vehicles=vehicles, travel=travel,
                    name=f"rand-{n_req}x{n_veh}")
    return inst, config


def matrix_instance(inst: Instance, rng: random.Random) -> Instance:
    """The instance moved onto an asymmetric table that breaks the triangle.

    Node 0 is the first vehicle's depot (every vehicle starts there), nodes
    2i + 1 and 2i + 2 are request i's pickup and dropoff. Each directed
    leg's distance is its planar one times a factor drawn uniformly from
    [1.0, 1.4], and its time is that distance at the instance's speed,
    rounded up to a whole second; each request's earliest dropoff is
    derived again on the table.
    """
    speed = inst.travel.speed
    points = [inst.vehicles[0].depot]
    for r in inst.requests:
        points += [r.pickup, r.dropoff]
    dists = [[0.0 if i == j else math.hypot(a.x - b.x, a.y - b.y) * rng.uniform(1.0, 1.4)
              for j, b in enumerate(points)] for i, a in enumerate(points)]
    travel = MatrixTravel([[math.ceil(d * 60.0 / speed) for d in row] for row in dists], dists)
    node = [Location(p.x, p.y, node_id=i) for i, p in enumerate(points)]
    requests = tuple(
        derive_earliest_dropoff(
            Request(r.id, node[2 * i + 1], node[2 * i + 2], r.desired_pickup_time, 0, r.load),
            travel)
        for i, r in enumerate(inst.requests)
    )
    vehicles = tuple(Vehicle(v.id, v.capacity, node[0]) for v in inst.vehicles)
    return Instance(requests=requests, vehicles=vehicles, travel=travel,
                    name=f"{inst.name}-matrix")


def tiny_instance(rng: random.Random) -> tuple[Instance, SolverConfig]:
    """At most 4 requests, 2 vehicles, one whole-horizon window.

    Capacity is fixed at 4 so the trip-size cap never binds below the
    request count, and the single window covers every desired pickup,
    making the run equivalent to one full-horizon matching problem.
    """
    n_req = rng.randint(1, 4)
    area = rng.uniform(3.0, 8.0)
    travel = EuclideanTravel(1.0)
    step = 600
    horizon = step  # one iteration
    config = SolverConfig(
        horizon=horizon,
        step=step,
        rh_factor=rng.randint(1, 3),
        max_wait=rng.randrange(300, 1201, 60),
        max_delay=rng.randrange(300, 1501, 60),
        dwell=rng.choice([0, 30]),
        fleet_size=2,
        capacity=4,
    )
    requests = tuple(
        random_request(rng, rid, area, horizon - 1, travel)
        for rid in range(n_req)
    )
    depot_a = Location(rng.uniform(0, area), rng.uniform(0, area))
    depot_b = Location(rng.uniform(0, area), rng.uniform(0, area))
    vehicles = (Vehicle(0, 4, depot_a), Vehicle(1, 4, depot_b))
    inst = Instance(requests=requests, vehicles=vehicles, travel=travel,
                    name=f"tiny-{n_req}")
    return inst, config


def random_plan_start(rng: random.Random, area: float) -> PlanStart:
    return PlanStart(
        plan_location=Location(rng.uniform(0, area), rng.uniform(0, area)),
        plan_time=rng.randint(0, 600),
    )


def random_rtv_graph(rng: random.Random, max_edges: int = 12) -> RtvGraph:
    """A structurally valid trip-vehicle graph with made-up costs.

    Routes are irrelevant to the assignment search, so edges carry None.
    """
    n_req = rng.randint(1, 5)
    n_veh = rng.randint(1, 4)
    universe = list(range(n_req))
    all_sets = []
    for size in (1, 2, 3):
        if size <= n_req:
            from itertools import combinations
            all_sets.extend(combinations(universe, size))
    rng.shuffle(all_sets)
    trip_sets = sorted(
        all_sets[: rng.randint(1, min(len(all_sets), 6))],
        key=lambda s: (len(s), s),
    )

    n_edges = rng.randint(1, max_edges)
    combos = [(trip, v) for trip in trip_sets for v in range(n_veh)]
    # a vehicle may also get a serve-nothing edge, mirroring delivery-only
    combos += [((), v) for v in range(n_veh)]
    rng.shuffle(combos)
    chosen = combos[:n_edges]
    edges = tuple(
        Edge(trip, vid, round(rng.uniform(0.5, 20.0), 3), None) for trip, vid in sorted(chosen)
    )
    requiring = frozenset(
        v for v in range(n_veh)
        if any(e.vehicle_id == v for e in edges) and rng.random() < 0.25
    )
    return RtvGraph(
        edges=edges,
        request_universe=frozenset(universe),
        vehicles_requiring_route=requiring,
    )
