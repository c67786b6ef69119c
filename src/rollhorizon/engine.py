"""Rolling-horizon driver: batch, match, commit, advance, repeat."""

from __future__ import annotations

import time
import warnings
from typing import Callable, Mapping, Optional, Sequence

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

    Requests are revealed in grid batches, matched to vehicles through the
    trip graph and the assignment search, and committed one step at a time.
    Whatever a vehicle has promised (a matched pickup or a passenger
    onboard) stays served in every later re-solve. After the last grid step
    the fleet keeps moving with no new arrivals until everything committed
    is delivered.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    if len(instance.vehicles) != config.fleet_size:
        raise ConfigError(
            f"config fleet_size={config.fleet_size} but instance has "
            f"{len(instance.vehicles)} vehicles"
        )
    for v in instance.vehicles:
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

    states: dict[int, VehicleState] = {
        v.id: VehicleState(vehicle_id=v.id, plan_location=v.depot, plan_time=0)
        for v in sorted(instance.vehicles, key=lambda v: v.id)
    }
    active: dict[int, Request] = {}  # revealed, not yet picked up or finalized
    matched: set[int] = set()  # active ids promised a pickup in the last solve
    records: dict[int, ServiceRecord] = {r.request_id: r for r in pre_rejected}
    iteration_times: list[float] = []
    grid = range(0, config.horizon, config.step)

    def one_iteration(t: int, batch_requests: Sequence[Request]) -> None:
        nonlocal states, matched
        started = time.perf_counter()
        for r in batch_requests:
            active[r.id] = r
        must_serve = set(matched)
        for st in states.values():
            must_serve.update(st.onboard)
        graph = build_rtv_graph(
            sorted(active.values(), key=lambda r: r.id),
            [states[vid] for vid in sorted(states)],
            travel,
            config,
        )
        solution = solve_assignment(graph, must_serve=sorted(must_serve))
        if not solution.proven_optimal:
            warnings.warn(
                f"assignment at t={t}s stopped after {solution.nodes_explored} "
                "nodes without proving its plan optimal",
                UnprovenAssignmentWarning,
                stacklevel=3,
            )
        routes_by_vehicle: dict[int, object] = {vid: None for vid in states}
        chosen_ids: set[int] = set()
        for edge in solution.chosen_edges:
            routes_by_vehicle[edge.vehicle_id] = edge.route
            chosen_ids.update(graph.trip_requests(edge.trip_id))
        advanced, boarded, new_records = simulate_step(
            [states[vid] for vid in sorted(states)],
            routes_by_vehicle, t, t + config.step, travel, config,
        )
        states = {st.vehicle_id: st for st in advanced}
        for rec in new_records:
            records[rec.request_id] = rec
        for rid in boarded:
            active.pop(rid, None)
        matched = {rid for rid in chosen_ids if rid in active}
        # an unmatched request whose waiting allowance cannot survive to the
        # next solve is settled now rather than dragged along
        deadline = t + config.step
        for rid in sorted(set(active) - matched):
            if active[rid].desired_pickup_time + config.max_wait < deadline:
                records[rid] = ServiceRecord(rid, served=False)
                del active[rid]
        iteration_times.append(time.perf_counter() - started)
        if iteration_hook is not None:
            iteration_hook(t, dict(states))

    for t in grid:
        one_iteration(t, window_processing(t, in_scope, config).new_requests)

    t = config.horizon
    drained = 0
    while active or any(st.onboard for st in states.values()):
        one_iteration(t, ())
        t += config.step
        drained += 1
        if drained > DRAIN_ITERATION_CAP:
            raise EngineError(
                f"fleet failed to drain after {DRAIN_ITERATION_CAP} extra steps; "
                f"{len(active)} request(s) still pending"
            )

    for r in in_scope:
        if r.id not in records:
            # revealed to no batch under this window shape: settled unserved
            records[r.id] = ServiceRecord(r.id, served=False)
    missing = [rid for rid in (r.id for r in requests) if rid not in records]
    if missing:
        raise EngineError(f"run finished without records for requests {missing}")

    final_routes = tuple(
        Route(
            vehicle_id=vid,
            stops=states[vid].committed,
            committed_prefix_len=len(states[vid].committed),
        )
        for vid in sorted(states)
    )
    record_list = tuple(records[rid] for rid in sorted(records))
    summary = metrics.summarize(
        record_list,
        final_routes,
        requests,
        instance.vehicles,
        travel,
        total_compute_s=sum(iteration_times),
        iterations=len(iteration_times),
    )
    return RunReport(
        requests=requests,
        vehicles=tuple(sorted(instance.vehicles, key=lambda v: v.id)),
        records=record_list,
        routes=final_routes,
        config=config,
        summary=summary,
        iteration_times_s=tuple(iteration_times),
        travel_info=_travel_info(travel),
        seed=seed,
    )
