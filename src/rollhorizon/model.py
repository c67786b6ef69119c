"""Core domain types for the pickup-and-delivery solver.

All times are integer seconds on a single absolute clock starting at 0.
Minute-valued inputs are converted once, at ingest, so schedule arithmetic
is exact and runs are reproducible.

Location, Request, Vehicle and SolverConfig are frozen: they are built
once per run, shared by every re-solve, and locations key dicts. Stop,
Route and ServiceRecord are plain dataclasses, since a run builds
thousands of them and a frozen dataclass sets each field through
object.__setattr__, about three times the cost of building a plain one.
They still compare by value, are not hashable, and no code assigns to a
record once built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

PICKUP = "pickup"
DROPOFF = "dropoff"


@dataclass(frozen=True)
class Location:
    """A planar point, optionally tied to a matrix row via node_id."""

    x: float
    y: float
    node_id: Optional[int] = None


@dataclass(frozen=True)
class Request:
    """One trip demand: carry `load` passengers from pickup to dropoff."""

    id: int
    pickup: Location
    dropoff: Location
    desired_pickup_time: int
    earliest_dropoff_time: int
    load: int = 1


@dataclass
class ServiceRecord:
    """Outcome for one request; times are None when served is False."""

    request_id: int
    served: bool
    vehicle_id: Optional[int] = None
    actual_pickup_time: Optional[int] = None
    actual_dropoff_time: Optional[int] = None


@dataclass(frozen=True)
class Vehicle:
    id: int
    capacity: int
    depot: Location


@dataclass
class Stop:
    """A scheduled pickup or dropoff visit; scheduled_time is service start."""

    kind: str  # PICKUP or DROPOFF
    request_id: int
    location: Location
    scheduled_time: int
    onboard_after: int


@dataclass
class Route:
    vehicle_id: int
    stops: tuple[Stop, ...]
    committed_prefix_len: int = 0


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters, all durations in integer seconds.

    The sliding window spans (rh_factor + 1) * step seconds; rh_factor 0 is
    the pure online setting where each iteration sees only its own step.
    """

    horizon: int
    step: int
    rh_factor: int = 0
    max_wait: int = 1800
    max_delay: int = 1800
    dwell: int = 0
    fleet_size: int = 1
    capacity: int = 1
    exhaustive_route_limit: int = 4
    trip_size_limit: Optional[int] = None

    @property
    def window_span(self) -> int:
        return (self.rh_factor + 1) * self.step

    @property
    def effective_trip_size_limit(self) -> int:
        return self.capacity if self.trip_size_limit is None else self.trip_size_limit


def validate_config(config: SolverConfig) -> list[str]:
    """Return every violated parameter constraint; empty means valid."""
    out = []
    if config.step <= 0:
        out.append("step must be > 0")
    if config.horizon <= 0:
        out.append("horizon must be > 0")
    elif config.step > 0 and config.horizon % config.step != 0:
        out.append("horizon must be a positive multiple of step")
    if config.rh_factor < 0:
        out.append("rh_factor must be >= 0")
    if config.max_wait < 0:
        out.append("max_wait must be >= 0")
    if config.max_delay < 0:
        out.append("max_delay must be >= 0")
    if config.dwell < 0:
        out.append("dwell must be >= 0")
    if config.fleet_size < 1:
        out.append("fleet_size must be >= 1")
    if config.capacity < 1:
        out.append("capacity must be >= 1")
    if config.exhaustive_route_limit < 1:
        out.append("exhaustive_route_limit must be >= 1")
    if config.trip_size_limit is not None and config.trip_size_limit < 1:
        out.append("trip_size_limit must be >= 1 when set")
    return out


def derive_earliest_dropoff(request: Request, travel) -> Request:
    """Fill in earliest_dropoff_time as desired pickup plus direct travel."""
    direct = travel.travel_time(request.pickup, request.dropoff)
    return dataclasses.replace(
        request, earliest_dropoff_time=request.desired_pickup_time + direct
    )


def validate_route(
    route: Route,
    requests_by_id: Mapping[int, Request],
    travel,
    config: SolverConfig,
    *,
    start_location: Optional[Location] = None,
    start_time: int = 0,
    initial_onboard: Iterable[int] = (),
) -> list[str]:
    """Independently check a route against every service constraint.

    Verifies pickup-before-dropoff pairing, that every passenger aboard at
    the start is a known request, that every passenger aboard at the start
    or picked up is dropped off, seat capacity at every stop,
    waiting within [0, max_wait], delay within [0, max_delay], non-decreasing
    service times, and that each service start is reachable given travel
    times and dwell. Returns a list of violation strings; empty means valid.
    This checker recomputes everything from the inputs and shares no code
    with the schedule builder, so it can audit any module's output. Passing
    travel=None skips only the leg reachability checks, for auditing
    serialized routes whose travel model is not available.
    """
    out = []
    v = route.vehicle_id
    start_onboard = frozenset(initial_onboard)
    onboard = set(start_onboard)
    picked = set()
    dropped = set()
    load = 0
    for rid in sorted(start_onboard):
        req = requests_by_id.get(rid)
        if req is None:
            out.append(f"vehicle {v}: passenger {rid} aboard is an unknown request")
        else:
            load += req.load
    if load > config.capacity:
        out.append(f"vehicle {v}: initial onboard load {load} over capacity")

    prev_time = None
    prev_depart = start_time
    prev_loc = start_location
    for i, stop in enumerate(route.stops):
        req = requests_by_id.get(stop.request_id)
        if req is None:
            out.append(f"vehicle {v} stop {i}: unknown request {stop.request_id}")
            continue
        if prev_time is not None and stop.scheduled_time < prev_time:
            out.append(f"vehicle {v} stop {i}: service time decreases")
        prev_time = stop.scheduled_time

        if prev_loc is not None and travel is not None:
            reachable = prev_depart + travel.travel_time(prev_loc, stop.location)
            if stop.scheduled_time < reachable:
                out.append(
                    f"vehicle {v} stop {i}: service at {stop.scheduled_time} "
                    f"before reachable time {reachable}"
                )
        prev_depart = stop.scheduled_time + config.dwell
        prev_loc = stop.location

        if stop.kind == PICKUP:
            if stop.request_id in picked or stop.request_id in onboard:
                out.append(f"vehicle {v} stop {i}: request {req.id} picked up twice")
            picked.add(stop.request_id)
            onboard.add(stop.request_id)
            load += req.load
            wait = stop.scheduled_time - req.desired_pickup_time
            if wait < 0:
                out.append(f"vehicle {v} stop {i}: pickup before desired time")
            elif wait > config.max_wait:
                out.append(
                    f"vehicle {v} stop {i}: waiting {wait} over limit {config.max_wait}"
                )
        elif stop.kind == DROPOFF:
            if stop.request_id not in onboard:
                out.append(f"vehicle {v} stop {i}: dropoff of request {req.id} not onboard")
            else:
                onboard.discard(stop.request_id)
                load -= req.load
            dropped.add(stop.request_id)
            delay = stop.scheduled_time - req.earliest_dropoff_time
            if delay < 0:
                out.append(f"vehicle {v} stop {i}: dropoff before earliest possible")
            elif delay > config.max_delay:
                out.append(
                    f"vehicle {v} stop {i}: delay {delay} over limit {config.max_delay}"
                )
        else:
            out.append(f"vehicle {v} stop {i}: unknown stop kind {stop.kind!r}")

        if load > config.capacity:
            out.append(f"vehicle {v} stop {i}: load {load} over capacity {config.capacity}")
        if stop.onboard_after != load:
            out.append(
                f"vehicle {v} stop {i}: onboard_after {stop.onboard_after} "
                f"inconsistent with recomputed load {load}"
            )

    for rid in picked - dropped:
        out.append(f"vehicle {v}: request {rid} picked up but never dropped off")
    for rid in sorted(start_onboard - dropped):
        out.append(f"vehicle {v}: passenger {rid} aboard at the start never dropped off")
    if route.committed_prefix_len < 0 or route.committed_prefix_len > len(route.stops):
        out.append(f"vehicle {v}: committed_prefix_len out of range")
    return out


def validate_record(
    record: ServiceRecord, request: Request, config: SolverConfig
) -> list[str]:
    """Check one outcome: an unserved record carries no times and names no
    vehicle, and a served one keeps the waiting and delay limits."""
    out = []
    if not record.served:
        if record.actual_pickup_time is not None or record.actual_dropoff_time is not None:
            out.append(f"request {record.request_id}: unserved record carries times")
        if record.vehicle_id is not None:
            out.append(f"request {record.request_id}: unserved record names a vehicle")
        return out
    if record.actual_pickup_time is None or record.actual_dropoff_time is None:
        out.append(f"request {record.request_id}: served record missing times")
        return out
    if record.vehicle_id is None:
        out.append(f"request {record.request_id}: served record missing vehicle")
    wait = record.actual_pickup_time - request.desired_pickup_time
    delay = record.actual_dropoff_time - request.earliest_dropoff_time
    if wait < 0:
        out.append(f"request {record.request_id}: picked up before desired time")
    elif wait > config.max_wait:
        out.append(f"request {record.request_id}: waiting {wait} over {config.max_wait}")
    if delay < 0:
        out.append(f"request {record.request_id}: dropped off before earliest possible")
    elif delay > config.max_delay:
        out.append(f"request {record.request_id}: delay {delay} over {config.max_delay}")
    if record.actual_dropoff_time < record.actual_pickup_time:
        out.append(f"request {record.request_id}: dropoff precedes pickup")
    return out


def routes_cover_records(
    routes: Sequence[Route], records: Sequence[ServiceRecord]
) -> list[str]:
    """Cross-check that served records and route stops tell the same story."""
    out = []
    stop_index: dict[tuple[str, int], tuple[int, int]] = {}
    for route in routes:
        for stop in route.stops:
            key = (stop.kind, stop.request_id)
            if key in stop_index:
                out.append(f"request {stop.request_id}: duplicate {stop.kind} stop")
            stop_index[key] = (route.vehicle_id, stop.scheduled_time)
    for rec in records:
        if not rec.served:
            for kind in (PICKUP, DROPOFF):
                if (kind, rec.request_id) in stop_index:
                    out.append(f"request {rec.request_id}: unserved but has a {kind} stop")
            continue
        for kind, t in ((PICKUP, rec.actual_pickup_time), (DROPOFF, rec.actual_dropoff_time)):
            got = stop_index.get((kind, rec.request_id))
            if got is None:
                out.append(f"request {rec.request_id}: no {kind} stop on any route")
            else:
                veh, sched = got
                if veh != rec.vehicle_id:
                    out.append(f"request {rec.request_id}: {kind} on wrong vehicle")
                if sched != t:
                    out.append(
                        f"request {rec.request_id}: {kind} time {sched} != record {t}"
                    )
    return out
