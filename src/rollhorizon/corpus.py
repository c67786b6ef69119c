"""Seeded synthetic benchmark instances for repeatable experiments."""

from __future__ import annotations

import random

from .instance_io import Instance
from .model import Location, Request, SolverConfig, Vehicle, derive_earliest_dropoff
from .travel import EuclideanTravel

# Pinned seeds of the bundled 20-instance corpus; tests and sweeps rely on
# these exact values, so extend the tuple rather than editing it.
CORPUS_SEEDS = tuple(range(101, 121))

AREA = 12.0  # square city edge, distance units
SPEED = 1.0  # distance units per minute
HORIZON_S = 10_800
STEP_S = 300
MAX_WAIT_S = 600
MAX_DELAY_S = 900
DWELL_S = 60
N_REQUESTS = 100
FLEET_SIZE = 4
CAPACITY = 3
MIN_TRIP_DIST = 1.0


def corpus_config(rh_factor: int = 0, **overrides) -> SolverConfig:
    """The settings every corpus instance is meant to run under."""
    base = dict(
        horizon=HORIZON_S,
        step=STEP_S,
        rh_factor=rh_factor,
        max_wait=MAX_WAIT_S,
        max_delay=MAX_DELAY_S,
        dwell=DWELL_S,
        fleet_size=FLEET_SIZE,
        capacity=CAPACITY,
    )
    base.update(overrides)
    return SolverConfig(**base)


def make_instance(
    seed: int,
    n_requests: int = N_REQUESTS,
    n_vehicles: int = FLEET_SIZE,
    *,
    area: float = AREA,
    speed: float = SPEED,
    horizon: int = HORIZON_S,
    step: int = STEP_S,
    capacity: int = CAPACITY,
) -> Instance:
    """Build one deterministic instance from its seed.

    Endpoints are uniform in an area x area square, trips at least
    MIN_TRIP_DIST long, desired pickups uniform on the step grid's covered
    range so every request is revealed even with no look-ahead. The draw
    order below is part of the corpus definition; changing it changes every
    instance.
    """
    rng = random.Random(seed)
    travel = EuclideanTravel(speed)
    latest_pickup = horizon - step
    requests = []
    for rid in range(n_requests):
        px = rng.uniform(0.0, area)
        py = rng.uniform(0.0, area)
        while True:
            dx = rng.uniform(0.0, area)
            dy = rng.uniform(0.0, area)
            if ((dx - px) ** 2 + (dy - py) ** 2) ** 0.5 >= MIN_TRIP_DIST:
                break
        desired = rng.randrange(0, latest_pickup + 1)
        req = Request(
            id=rid,
            pickup=Location(px, py),
            dropoff=Location(dx, dy),
            desired_pickup_time=desired,
            earliest_dropoff_time=0,
        )
        requests.append(derive_earliest_dropoff(req, travel))
    depot = Location(area / 2.0, area / 2.0)
    vehicles = tuple(Vehicle(i, capacity, depot) for i in range(n_vehicles))
    return Instance(
        requests=tuple(requests),
        vehicles=vehicles,
        travel=travel,
        config_overrides={
            "horizon": horizon,
            "step": step,
            "max_wait": MAX_WAIT_S,
            "max_delay": MAX_DELAY_S,
            "dwell": DWELL_S,
            "fleet_size": n_vehicles,
            "capacity": capacity,
        },
        name=f"corpus-{seed}",
    )
