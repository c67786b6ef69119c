"""Rolling-horizon driver: batch, match, commit, advance, repeat."""

from __future__ import annotations

import time
import warnings
from typing import Callable, Mapping, Optional

from . import metrics
from .assignment_ilp import UnprovenAssignmentWarning, solve_assignment
from .instance_io import Instance, RunReport
from .model import Request, Route, ServiceRecord, SolverConfig, validate_config
from .rtv import build_rtv_graph
from .simulator import VehicleState, simulate_step
from .window import coverage_end, window_processing

DRAIN_ITERATION_CAP = 10_000


class EngineError(RuntimeError):
    """The run could not finish; state stopped converging."""


class ConfigError(ValueError):
    """Settings rejected before the run started."""


def _travel_info(travel) -> dict:
    if hasattr(travel, "speed"):
        return {"mode": "euclidean", "speed": travel.speed}
    return {"mode": "matrix", "size": len(getattr(travel, "times", ()))}


def run(
    instance: Instance,
    config: SolverConfig,
    *,
    iteration_hook: Optional[Callable[[int, Mapping[int, VehicleState]], None]] = None,
    seed: Optional[int] = None,
) -> RunReport:
    """Solve one instance and return the full service report.

    One loop walks t = 0, step, ...: each step reveals the grid batch while
    t is below the horizon, matches the active requests to vehicles through
    the trip graph and the assignment search, and commits one step. Past
    the horizon the same loop drains the fleet with no new arrivals, and it
    stops once no request is active and no passenger is aboard. A step
    commits every stop a vehicle has left for, so the next re-solve may
    drop or reassign any pickup left on a plan; only passengers aboard are
    bound to their vehicle, which delivers them through its route. A run
    still busy after the drain step at horizon + DRAIN_ITERATION_CAP * step
    raises EngineError. Duplicate vehicle or request ids raise ConfigError
    before the run starts.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    vehicles = tuple(sorted(instance.vehicles, key=lambda v: v.id))
    if len(vehicles) != config.fleet_size:
        raise ConfigError(
            f"config fleet_size={config.fleet_size} but instance has "
            f"{len(vehicles)} vehicles"
        )
    if len({v.id for v in vehicles}) != len(vehicles):
        raise ConfigError("duplicate vehicle ids in instance")
    for v in vehicles:
        if v.capacity != config.capacity:
            raise ConfigError(
                f"vehicle {v.id} capacity {v.capacity} != config capacity {config.capacity}"
            )

    travel = instance.travel
    requests = tuple(sorted(instance.requests, key=lambda r: r.id))
    ids = [r.id for r in requests]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate request ids in instance")

    cover_end = coverage_end(config)
    in_scope: list[Request] = []
    pre_rejected: list[ServiceRecord] = []
    for r in requests:
        if r.desired_pickup_time > cover_end:
            pre_rejected.append(ServiceRecord(r.id, served=False))
        else:
            in_scope.append(r)
    if pre_rejected:
        warnings.warn(
            f"{len(pre_rejected)} request(s) ask for pickup after the last "
            f"batching step ({cover_end}s) and will go unserved",
            stacklevel=2,
        )

    # one state per vehicle, in id order, as simulate_step returns them
    states = tuple(VehicleState(v.id, v.depot, 0) for v in vehicles)
    active: dict[int, Request] = {}  # revealed, not yet picked up or finalized
    records: dict[int, ServiceRecord] = {r.request_id: r for r in pre_rejected}
    iteration_times: list[float] = []
    t = 0
    while t < config.horizon or active or any(st.onboard for st in states):
        if t < config.horizon:
            for r in window_processing(t, in_scope, config).new_requests:
                active[r.id] = r
        # an iteration's compute time counts from its revealed batch
        started = time.perf_counter()
        graph = build_rtv_graph(active.values(), states, travel, config)
        # passengers aboard are no graph requests: their vehicle's rule of
        # exactly one route delivers them
        solution = solve_assignment(graph)
        if not solution.proven_optimal:
            warnings.warn(
                f"assignment at t={t}s stopped after {solution.nodes_explored} "
                "nodes without proving its plan optimal",
                UnprovenAssignmentWarning,
                stacklevel=2,
            )
        routes = {edge.vehicle_id: edge.route for edge in solution.chosen_edges}
        states, boarded, new_records = simulate_step(
            states, routes, t, t + config.step, travel, config
        )
        for rec in new_records:
            records[rec.request_id] = rec
        for rid in boarded:
            active.pop(rid, None)
        # a request whose waiting allowance cannot survive to the next solve
        # is settled now rather than dragged along; a pickup left on a plan
        # starts its leg at or after the step's end, so it never expires here
        deadline = t + config.step
        for rid in sorted(active):
            if active[rid].desired_pickup_time + config.max_wait < deadline:
                records[rid] = ServiceRecord(rid, served=False)
                del active[rid]
        iteration_times.append(time.perf_counter() - started)
        if iteration_hook is not None:
            iteration_hook(t, {st.vehicle_id: st for st in states})
        if t >= config.horizon + DRAIN_ITERATION_CAP * config.step:
            raise EngineError(
                f"fleet failed to drain after {DRAIN_ITERATION_CAP} extra steps; "
                f"{len(active)} request(s) still pending"
            )
        t += config.step

    missing = [rid for rid in (r.id for r in requests) if rid not in records]
    if missing:
        raise EngineError(f"run finished without records for requests {missing}")

    final_routes = tuple(
        Route(st.vehicle_id, st.committed, len(st.committed)) for st in states
    )
    record_list = tuple(records[rid] for rid in sorted(records))
    summary = metrics.summarize(
        record_list,
        final_routes,
        requests,
        vehicles,
        travel,
        total_compute_s=sum(iteration_times),
        iterations=len(iteration_times),
    )
    return RunReport(
        requests=requests,
        vehicles=vehicles,
        records=record_list,
        routes=final_routes,
        config=config,
        summary=summary,
        iteration_times_s=tuple(iteration_times),
        travel_info=_travel_info(travel),
        seed=seed,
    )
