"""Discrete-event execution of assigned routes between iterations.

Each step advances every vehicle through the stops whose service starts
inside the step window, boards and delivers passengers, and fixes those
stops permanently. Later stops stay open for reoptimization. A vehicle
that already left a node finishes that leg before it can be redirected;
one still dwelling or waiting at a node may be replanned from there.
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
    the current node once the vehicle is free there, or the end of the leg
    in flight.
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

    Executes every stop with service start <= t_to, extending each
    vehicle's committed stops by exactly that prefix. Returns the updated
    states, ids of newly boarded requests, and service records for
    completed dropoffs.
    """
    if t_to <= t_from:
        raise ValueError("step window must move forward")
    new_states = []
    boarded: list[int] = []
    records: list[ServiceRecord] = []
    for state in sorted(states, key=lambda s: s.vehicle_id):
        route = routes.get(state.vehicle_id)
        if route is None:
            # nothing assigned: stand at the plan origin until the window ends
            new_states.append(
                VehicleState(
                    state.vehicle_id,
                    state.plan_location,
                    max(state.plan_time, t_to),
                    state.onboard,
                    state.committed,
                    (),
                    state.pickup_times,
                )
            )
            continue
        _check_route(state, route, travel, config)

        executed = 0
        for (arrival, service, depart) in route.schedule:
            if service <= t_to:
                executed += 1
            else:
                break

        onboard = set(state.onboard)
        pickup_times = dict(state.pickup_times)
        committed = list(state.committed)
        for idx in range(executed):
            stop = route.stops[idx]
            service = route.schedule[idx][1]
            if stop.kind == PICKUP:
                onboard.add(stop.request_id)
                pickup_times[stop.request_id] = service
                boarded.append(stop.request_id)
            else:
                onboard.discard(stop.request_id)
                records.append(
                    ServiceRecord(
                        stop.request_id,
                        True,
                        state.vehicle_id,
                        pickup_times.pop(stop.request_id),
                        service,
                    )
                )
            committed.append(stop)

        remaining = route.sequence[executed:]
        if executed:
            prev_loc = route.stops[executed - 1].location
            prev_depart = route.schedule[executed - 1][2]
        else:
            prev_loc = state.plan_location
            prev_depart = state.plan_time

        if not remaining:
            plan_loc = prev_loc
            plan_time = max(prev_depart, t_to)
        else:
            next_stop = route.stops[executed]
            next_arrival = route.schedule[executed][0]
            if prev_depart >= t_to:
                # still dwelling (or not yet free) at the node: replannable here
                plan_loc = prev_loc
                plan_time = prev_depart
            elif next_arrival > t_to:
                # in flight: must finish the leg before any new plan
                plan_loc = next_stop.location
                plan_time = next_arrival
            else:
                # arrived early and is waiting for the service time
                plan_loc = next_stop.location
                plan_time = t_to

        new_states.append(
            VehicleState(
                state.vehicle_id,
                plan_loc,
                plan_time,
                frozenset(onboard),
                tuple(committed),
                tuple(remaining),
                pickup_times,
            )
        )
    records.sort(key=lambda r: r.request_id)
    boarded.sort()
    return tuple(new_states), tuple(boarded), tuple(records)
