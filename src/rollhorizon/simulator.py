"""Discrete-event execution of assigned routes between iterations.

Each step commits, for every vehicle, every stop of its route that the
vehicle has left for by the step's end, in order: it boards and delivers
their passengers and fixes those stops permanently. A vehicle with no
route has no stops. Later stops stay open for reoptimization. So no
vehicle is ever mid-leg toward an open stop, every leg it drives ends at a
committed stop, and its next plan starts where it is free after its last
committed stop, once the step has ended. A route that fails validation,
or a vehicle left with passengers aboard and no route, raises
SimulationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .model import (
    PICKUP,
    Location,
    Request,
    Route,
    ServiceRecord,
    SolverConfig,
    Stop,
    validate_route,
)
from .routing import CandidateRoute


class SimulationError(RuntimeError):
    """An assigned route failed validation; indicates an upstream bug."""


@dataclass
class VehicleState:
    """One vehicle between iterations.

    plan_location/plan_time give where and when the next plan may begin:
    where the vehicle is free after its last committed stop, or where it
    stands with none, and never before the step that made the state ends.
    """

    vehicle_id: int
    plan_location: Location
    plan_time: int
    onboard: frozenset[int] = frozenset()
    committed: tuple[Stop, ...] = ()
    planned_suffix: tuple[tuple[str, Request], ...] = ()
    pickup_times: Mapping[int, int] = field(default_factory=dict)


def _check_route(state: VehicleState, route: CandidateRoute, travel,
                 config: SolverConfig) -> None:
    by_id = {req.id: req for _k, req in route.sequence}
    problems = validate_route(
        Route(state.vehicle_id, route.stops, 0),
        by_id,
        travel,
        config,
        start_location=state.plan_location,
        start_time=state.plan_time,
        initial_onboard=state.onboard,
    )
    if problems:
        raise SimulationError(
            f"vehicle {state.vehicle_id} got an invalid route: " + "; ".join(problems)
        )


def simulate_step(
    states: Sequence[VehicleState],
    routes: Mapping[int, Optional[CandidateRoute]],
    t_from: int,
    t_to: int,
    travel,
    config: SolverConfig,
) -> tuple[tuple[VehicleState, ...], tuple[int, ...], tuple[ServiceRecord, ...]]:
    """Advance all vehicles from t_from to t_to along their assigned routes.

    A vehicle with no route has no stops. Each vehicle executes its stops
    in order up to the first whose leg starts at or after t_to, that is,
    the first it has not left for by then, extending its committed stops
    by exactly that prefix. Its next plan then starts where and when it is
    free after the last of them, or t_to if later. Returns the updated
    states in id order, ids of newly boarded requests, and service records
    for completed dropoffs.

    Raises SimulationError for a route that fails validation and for a
    vehicle with passengers aboard but no route, and ValueError for a
    passenger aboard with no pickup time, before that vehicle's stops run.
    """
    if t_to <= t_from:
        raise ValueError("step window must move forward")
    new_states = []
    boarded: list[int] = []
    records: list[ServiceRecord] = []
    for state in sorted(states, key=lambda s: s.vehicle_id):
        vid = state.vehicle_id
        route = routes.get(vid)
        if route is not None:
            _check_route(state, route, travel, config)
            stops, schedule, sequence = route.stops, route.schedule, route.sequence
        elif state.onboard:
            raise SimulationError(
                f"vehicle {vid} has passengers {sorted(state.onboard)} aboard but no route"
            )
        else:
            stops = schedule = sequence = ()
        unknown = state.onboard - state.pickup_times.keys()
        if unknown:
            raise ValueError(
                f"vehicle {vid}: passengers {sorted(unknown)} aboard have no pickup time"
            )

        onboard = set(state.onboard)
        pickup_times = dict(state.pickup_times)
        done: list[Stop] = []
        free_at, free_time = state.plan_location, state.plan_time
        for stop, (_arrival, service, depart) in zip(stops, schedule):
            if free_time >= t_to:
                break
            rid = stop.request_id
            if stop.kind == PICKUP:
                onboard.add(rid)
                pickup_times[rid] = service
                boarded.append(rid)
            else:
                onboard.discard(rid)
                records.append(ServiceRecord(rid, True, vid, pickup_times.pop(rid), service))
            done.append(stop)
            free_at, free_time = stop.location, depart

        new_states.append(
            VehicleState(
                vid,
                free_at,
                max(free_time, t_to),
                frozenset(onboard),
                state.committed + tuple(done),
                sequence[len(done):],
                pickup_times,
            )
        )
    records.sort(key=lambda r: r.request_id)
    boarded.sort()
    return tuple(new_states), tuple(boarded), tuple(records)
