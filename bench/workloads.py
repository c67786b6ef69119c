"""Seeded inputs for the benchmark workloads.

Every workload is a list of cases (name, Instance, SolverConfig) built from
seeds; the solver receives nothing else. The random generator below is a
pinned copy of the test suite's `random_instance`, so edits to the tests
never shift the `random-mix` workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rollhorizon import (
    CORPUS_SEEDS,
    EuclideanTravel,
    Instance,
    Location,
    MatrixTravel,
    Request,
    SolverConfig,
    Vehicle,
    corpus_config,
    derive_earliest_dropoff,
    make_instance,
)

# the 200-seed random acceptance gate
RANDOM_MIX_SEEDS = tuple(range(200))
MATRIX_FACTOR_RANGE = (1.0, 1.4)


@dataclass(frozen=True)
class Case:
    name: str
    instance: Instance
    config: SolverConfig
    # matrix workloads keep their own copy of the tables for the checker
    tables: tuple | None = None


def corpus_cases(rh_factor: int) -> list[Case]:
    return [
        Case(f"corpus-{s}-rh{rh_factor}", make_instance(s), corpus_config(rh_factor))
        for s in CORPUS_SEEDS
    ]


# --- pinned copy of tests/instgen.py: random_request and random_instance ---

def _random_request(rng: random.Random, rid: int, area: float, latest_pickup: int,
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


def _random_instance(rng: random.Random, max_requests: int = 50,
                     max_vehicles: int = 6,
                     rh_choices=(0, 1, 2, 3)) -> tuple[Instance, SolverConfig]:
    n_req = rng.randint(1, max_requests)
    lo_veh = 2 if n_req > 25 else 1
    n_veh = rng.randint(min(lo_veh, max_vehicles), max_vehicles)
    area = rng.uniform(4.0, 12.0)
    speed = rng.choice([0.5, 1.0, 2.0])
    travel = EuclideanTravel(speed)
    step = rng.choice([120, 300, 600])
    rh_factor = rng.choice(rh_choices)
    min_steps = max(2, math.ceil(n_req * (rh_factor + 1) / 15))
    horizon = step * rng.randint(min_steps, max(min_steps, 8))
    capacity = rng.randint(1, 4)
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
        _random_request(rng, rid, area, horizon - step, travel,
                        load=rng.randint(1, min(2, capacity)))
        for rid in range(n_req)
    )
    depot = Location(rng.uniform(0, area), rng.uniform(0, area))
    vehicles = tuple(Vehicle(i, capacity, depot) for i in range(n_veh))
    inst = Instance(requests=requests, vehicles=vehicles, travel=travel,
                    name=f"rand-{n_req}x{n_veh}")
    return inst, config

# --- end of pinned copy ---


def random_mix_cases() -> list[Case]:
    out = []
    for s in RANDOM_MIX_SEEDS:
        inst, config = _random_instance(random.Random(s), max_requests=50, max_vehicles=6)
        out.append(Case(f"random-{s}", inst, config))
    return out


def matrix_instance(base: Instance, rng: random.Random) -> tuple[Instance, tuple]:
    """Move a planar instance onto an asymmetric table that breaks the triangle.

    Node 0 is the depot, node 2i+1 request i's pickup and 2i+2 its dropoff.
    Each directed distance is the planar one times a factor drawn uniformly
    from MATRIX_FACTOR_RANGE, row by row; time is ceil(distance * 60 / speed).
    """
    speed = base.travel.speed
    depot = base.vehicles[0].depot
    points = [depot]
    for r in base.requests:
        points += [r.pickup, r.dropoff]
    lo, hi = MATRIX_FACTOR_RANGE
    dist = []
    for i, a in enumerate(points):
        row = []
        for j, b in enumerate(points):
            row.append(0.0 if i == j else math.hypot(a.x - b.x, a.y - b.y) * rng.uniform(lo, hi))
        dist.append(row)
    times = [[math.ceil(d * 60.0 / speed) for d in row] for row in dist]
    travel = MatrixTravel(times, dist)
    requests = tuple(
        derive_earliest_dropoff(
            Request(r.id, Location(r.pickup.x, r.pickup.y, 2 * k + 1),
                    Location(r.dropoff.x, r.dropoff.y, 2 * k + 2),
                    r.desired_pickup_time, 0, r.load),
            travel,
        )
        for k, r in enumerate(base.requests)
    )
    home = Location(depot.x, depot.y, 0)
    vehicles = tuple(Vehicle(v.id, v.capacity, home) for v in base.vehicles)
    inst = Instance(requests, vehicles, travel, dict(base.config_overrides),
                    name=f"{base.name}-matrix")
    return inst, (times, dist)


def matrix_cases(seed: int) -> list[Case]:
    out = []
    for s in CORPUS_SEEDS:
        rng = random.Random(f"{seed}-{s}")
        inst, tables = matrix_instance(make_instance(s), rng)
        out.append(Case(f"corpus-{s}-matrix-rh2", inst, corpus_config(2), tables))
    return out


# Only the matrix factors follow --seed. The other workloads are pinned, so
# every run attempts the same operations, the known failures are the same
# share of them, and served and vmt_per_served are comparable across seeds.
WORKLOADS = {
    "corpus-online": lambda seed: corpus_cases(0),
    "corpus-lookahead": lambda seed: corpus_cases(2),
    "random-mix": lambda seed: random_mix_cases(),
    "matrix-lookahead": matrix_cases,
}
