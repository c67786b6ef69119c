"""Evaluation metrics computed from a finished run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import Request, Route, ServiceRecord, Vehicle


@dataclass(frozen=True)
class MetricsSummary:
    requests_total: int
    requests_served: int
    service_rate: float
    avg_delay_min: float
    avg_delay_defined: bool
    avg_wait_min: float
    total_vmt: float
    compute_time_per_request_s: float
    total_compute_s: float
    iterations: int


def service_rate(records: Sequence[ServiceRecord]) -> float:
    """Served fraction; an empty run counts as fully served."""
    if not records:
        return 1.0
    served = sum(1 for r in records if r.served)
    return served / len(records)


def avg_delay(
    records: Sequence[ServiceRecord], requests_by_id: Mapping[int, Request]
) -> tuple[float, bool]:
    """Mean minutes between actual and earliest possible dropoff.

    Returns (value, defined); with no served requests the mean does not
    exist and is reported as (0.0, False).
    """
    delays = [
        (r.actual_dropoff_time - requests_by_id[r.request_id].earliest_dropoff_time)
        for r in records
        if r.served
    ]
    if not delays:
        return 0.0, False
    return sum(delays) / len(delays) / 60.0, True


def avg_wait(
    records: Sequence[ServiceRecord], requests_by_id: Mapping[int, Request]
) -> float:
    waits = [
        (r.actual_pickup_time - requests_by_id[r.request_id].desired_pickup_time)
        for r in records
        if r.served
    ]
    if not waits:
        return 0.0
    return sum(waits) / len(waits) / 60.0


def total_vmt(
    routes: Sequence[Route], vehicles: Sequence[Vehicle], travel
) -> float:
    """Distance driven over all committed routes.

    Counts the leg from each vehicle's depot to its first stop and every
    leg between consecutive stops; vehicles stay wherever their last
    dropoff leaves them, so no return leg is added.
    """
    depot_of = {v.id: v.depot for v in vehicles}
    total = 0.0
    for route in routes:
        loc = depot_of[route.vehicle_id]
        for stop in route.stops:
            total += travel.distance(loc, stop.location)
            loc = stop.location
    return total


def summarize(
    records: Sequence[ServiceRecord],
    routes: Sequence[Route],
    requests: Sequence[Request],
    vehicles: Sequence[Vehicle],
    travel,
    total_compute_s: float,
    iterations: int,
) -> MetricsSummary:
    requests_by_id = {r.id: r for r in requests}
    delay, defined = avg_delay(records, requests_by_id)
    n = len(records)
    per_request = total_compute_s / n if n else 0.0
    return MetricsSummary(
        requests_total=n,
        requests_served=sum(1 for r in records if r.served),
        service_rate=service_rate(records),
        avg_delay_min=delay,
        avg_delay_defined=defined,
        avg_wait_min=avg_wait(records, requests_by_id),
        total_vmt=total_vmt(routes, vehicles, travel),
        compute_time_per_request_s=per_request,
        total_compute_s=total_compute_s,
        iterations=iterations,
    )
