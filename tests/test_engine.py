import dataclasses
import gc
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchcode import load_bench
from collector import collector_off
from instgen import matrix_instance, random_instance
from rollhorizon import engine
from rollhorizon.assignment_ilp import AssignmentBudgetError, UnprovenAssignmentWarning
from rollhorizon.corpus import corpus_config, make_instance
from rollhorizon.engine import ConfigError, EngineError, run
from rollhorizon.instance_io import Instance, make_fleet
from rollhorizon.model import (
    Location,
    Request,
    SolverConfig,
    Vehicle,
    derive_earliest_dropoff,
)
from rollhorizon.routing import schedule_route
from rollhorizon.travel import EuclideanTravel, MatrixTravel
from rollhorizon.window import coverage_end
from strategies import MINUTE, travel_case

CHECK, WORKLOADS = load_bench("check"), load_bench("workloads")


def two_request_instance():
    travel = EuclideanTravel(1.0)
    reqs = tuple(
        derive_earliest_dropoff(r, travel)
        for r in (
            Request(0, Location(1, 0), Location(4, 4), 60, 0),
            Request(1, Location(2, 1), Location(5, 5), 300, 0),
        )
    )
    inst = Instance(requests=reqs, vehicles=make_fleet(1, 2, Location(0, 0)),
                    travel=travel)
    cfg = SolverConfig(horizon=1200, step=300, rh_factor=1, max_wait=900,
                       max_delay=900, dwell=30, fleet_size=1, capacity=2)
    return inst, cfg


def test_smoke_pinned_schedule():
    inst, cfg = two_request_instance()
    rep = run(inst, cfg)
    by_id = {r.request_id: r for r in rep.records}
    assert (by_id[0].served, by_id[0].vehicle_id) == (True, 0)
    assert (by_id[0].actual_pickup_time, by_id[0].actual_dropoff_time) == (60, 547)
    assert (by_id[1].actual_pickup_time, by_id[1].actual_dropoff_time) == (300, 662)
    assert rep.summary.service_rate == 1.0
    assert rep.summary.avg_delay_min == pytest.approx(2.075)
    assert rep.summary.avg_wait_min == 0.0
    assert rep.summary.total_vmt == pytest.approx(7.4339784002101785, abs=1e-12)
    assert rep.summary.iterations == 4
    (route,) = rep.routes
    assert route.committed_prefix_len == len(route.stops)
    assert [(s.kind, s.request_id, s.scheduled_time) for s in route.stops] == [
        ("pickup", 0, 60), ("pickup", 1, 300),
        ("dropoff", 0, 547), ("dropoff", 1, 662),
    ]


def test_every_request_gets_exactly_one_record():
    for seed in range(12):
        rng = random.Random(1000 + seed)
        inst, cfg = random_instance(rng, max_requests=20, max_vehicles=3)
        rep = run(inst, cfg)
        assert sorted(r.request_id for r in rep.records) == sorted(
            r.id for r in inst.requests)
        for rec in rep.records:
            if rec.served:
                assert rec.actual_pickup_time is not None
            else:
                assert rec.vehicle_id is None


def test_committed_stops_never_change():
    rng = random.Random(42)
    inst, cfg = random_instance(rng, max_requests=25, max_vehicles=3,
                                rh_choices=(2,))
    snapshots = []

    def hook(t, states):
        snapshots.append({vid: st.committed for vid, st in states.items()})

    rep = run(inst, cfg, iteration_hook=hook)
    assert snapshots
    final = {rt.vehicle_id: rt.stops for rt in rep.routes}
    for snap in snapshots:
        for vid, committed in snap.items():
            assert final[vid][:len(committed)] == committed


def test_pickup_beyond_coverage_is_rejected_up_front():
    inst, cfg = two_request_instance()
    late = derive_earliest_dropoff(
        Request(9, Location(1, 1), Location(2, 2), 5000, 0), inst.travel)
    inst = dataclasses.replace(inst, requests=inst.requests + (late,))
    with pytest.warns(UserWarning, match="after the last batching step"):
        rep = run(inst, cfg)
    rec = next(r for r in rep.records if r.request_id == 9)
    assert not rec.served
    # rh_factor 1 covers the whole horizon, so only past-horizon times trip it
    ok = dataclasses.replace(late, id=10, desired_pickup_time=1100)
    ok = derive_earliest_dropoff(ok, inst.travel)
    inst2 = dataclasses.replace(inst, requests=inst.requests[:2] + (ok,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(inst2, cfg)


def late_ride_instance():
    # desired right at the last grid step, and a minute's dwell after the
    # pickup puts the dropoff's leg past the horizon: only a drain step
    # can commit the dropoff
    travel = EuclideanTravel(1.0)
    req = derive_earliest_dropoff(
        Request(0, Location(0.5, 0), Location(8, 0), 870, 0), travel)
    inst = Instance(requests=(req,), vehicles=make_fleet(1, 2, Location(0, 0)),
                    travel=travel)
    cfg = SolverConfig(horizon=900, step=300, rh_factor=1, max_wait=600,
                       max_delay=900, dwell=60, fleet_size=1, capacity=2)
    return inst, cfg


def test_drain_finishes_rides_started_late():
    inst, cfg = late_ride_instance()
    rep = run(inst, cfg)
    (rec,) = rep.records
    assert rec.served
    assert rec.actual_dropoff_time > cfg.horizon
    assert rep.summary.iterations == cfg.horizon // cfg.step + 1


def test_drain_past_its_cap_is_an_engine_error(monkeypatch):
    monkeypatch.setattr(engine, "DRAIN_ITERATION_CAP", 0)
    inst, cfg = late_ride_instance()
    with pytest.raises(EngineError, match="failed to drain after 0 extra steps"):
        run(inst, cfg)
    # rides that end inside the grid never reach the drain
    inst, cfg = two_request_instance()
    assert run(inst, cfg).summary.service_rate == 1.0


def _stitched_runs(monkeypatch, check):
    """Run corpus case 101 at rh_factor 2, the benchmark's first
    matrix-lookahead case, then four small matrix instances, calling
    check(states before, routes, t_to, states after, travel, config) after
    every step; both state lists are in vehicle id order."""
    real = engine.simulate_step

    def stitching(states, routes, t_from, t_to, travel, config):
        out = real(states, routes, t_from, t_to, travel, config)
        check(sorted(states, key=lambda s: s.vehicle_id), routes, t_to, out[0], travel, config)
        return out

    monkeypatch.setattr(engine, "simulate_step", stitching)
    run(make_instance(101), corpus_config(2))
    case = WORKLOADS.matrix_cases(1)[0]
    run(case.instance, case.config)
    for seed in range(4):
        rng = random.Random(seed)
        planar, cfg = random_instance(rng, max_requests=20, max_vehicles=3)
        run(matrix_instance(planar, rng), cfg)


def test_each_step_commits_every_stop_its_vehicle_left_for(monkeypatch):
    # the stitching rule: a step commits a route's stops up to the first
    # whose leg starts at or after the step's end. The next plan starts
    # where the vehicle is free after its last committed stop, or, with no
    # stop committed, where it stood; never before the step's end. A stop
    # left on the plan has not been left for, so no leg is in flight
    counts = {"committed": 0, "stood": 0, "planned": 0}
    broken = []

    def check(before, routes, t_to, after, _travel, _config):
        for old, new in zip(before, after):
            n = len(new.committed) - len(old.committed)
            if n:
                route = routes[old.vehicle_id]
                at, free = route.stops[n - 1].location, route.schedule[n - 1][2]
            else:
                at, free = old.plan_location, old.plan_time
            counts["committed" if n else "stood"] += 1
            counts["planned"] += bool(new.planned_suffix)
            if (new.plan_location, new.plan_time) != (at, max(free, t_to)) or (
                    new.planned_suffix and free < t_to):
                broken.append(f"t={t_to} vehicle {new.vehicle_id}: plan starts at "
                              f"{new.plan_location} {new.plan_time}, want {at} {free}")

    _stitched_runs(monkeypatch, check)
    assert broken == []
    assert counts["committed"] > 100 and counts["stood"] > 50 and counts["planned"] > 100


def test_each_step_leaves_a_plan_that_keeps_its_committed_times(monkeypatch):
    # the stitching contract: the plan a step leaves a vehicle re-times from
    # its new start as feasible, at exactly the times and loads the chosen
    # route gave those stops, since a step starts the next plan at the
    # departure the route already had
    plans = 0
    broken = []

    def check(_before, routes, t_to, after, travel, config):
        nonlocal plans
        for st in after:
            if not st.planned_suffix:
                continue
            plans += 1
            route = routes[st.vehicle_id]
            tail = len(route.sequence) - len(st.planned_suffix)
            new = schedule_route(st, st.planned_suffix, travel, config)
            if not (new.feasible and new.schedule == route.schedule[tail:]
                    and new.stops == route.stops[tail:]):
                broken.append(f"t={t_to} vehicle {st.vehicle_id}: {route.schedule[tail:]} "
                              f"re-timed as {new.schedule}, feasible {new.feasible}")

    _stitched_runs(monkeypatch, check)
    assert broken == []
    assert plans == 287


def test_config_errors():
    inst, cfg = two_request_instance()
    with pytest.raises(ConfigError, match="step"):
        run(inst, dataclasses.replace(cfg, step=0))
    with pytest.raises(ConfigError, match="fleet"):
        run(inst, dataclasses.replace(cfg, fleet_size=3))
    with pytest.raises(ConfigError, match="capacity"):
        run(inst, dataclasses.replace(cfg, capacity=5))
    dup = dataclasses.replace(inst, requests=inst.requests + (inst.requests[0],))
    with pytest.raises(ConfigError, match="duplicate"):
        run(dup, cfg)


def test_duplicate_vehicle_ids_are_a_config_error():
    # two vehicles both numbered 0 would share one state and one route
    inst = make_instance(101, n_requests=20, n_vehicles=2)
    twins = tuple(dataclasses.replace(v, id=0) for v in inst.vehicles)
    with pytest.raises(ConfigError, match="duplicate vehicle ids"):
        run(dataclasses.replace(inst, vehicles=twins), corpus_config(0, fleet_size=2))


def test_same_input_same_report():
    rng = random.Random(7)
    inst, cfg = random_instance(rng, max_requests=15, max_vehicles=3)
    a = run(inst, cfg)
    b = run(inst, cfg)
    assert a.records == b.records
    assert a.routes == b.routes
    assert a.summary.total_vmt == b.summary.total_vmt


def _starved_assignment(monkeypatch, budget):
    """Every re-solve gets only `budget` search nodes."""
    real = engine.solve_assignment

    def starved(graph, **kwargs):
        return real(graph, budget=budget, **kwargs)

    monkeypatch.setattr(engine, "solve_assignment", starved)


def test_unproven_assignment_warns(monkeypatch):
    # two twins at the depot: budget 6 pays for the first solve's first
    # dive (the root and its three options, the twin below, the leaf) but
    # not for its next child, so the solve keeps that leaf unproven
    inst, cfg = two_request_instance()
    inst = dataclasses.replace(inst, vehicles=make_fleet(2, 2, Location(0, 0)))
    _starved_assignment(monkeypatch, budget=6)
    with pytest.warns(UnprovenAssignmentWarning) as caught:
        rep = run(inst, dataclasses.replace(cfg, fleet_size=2))
    assert re.match(r"assignment at t=0s stopped after \d+ nodes", str(caught[0].message))
    # the first leaf puts both requests on vehicle 0
    assert [(r.served, r.vehicle_id) for r in rep.records] == [(True, 0), (True, 0)]


def test_budget_exhausted_without_fallback_is_a_typed_error(monkeypatch):
    # one node is the root alone: the search reaches no leaf
    inst, cfg = two_request_instance()
    _starved_assignment(monkeypatch, budget=1)
    with pytest.raises(AssignmentBudgetError, match="no incumbent"):
        run(inst, cfg)


def test_exhaustive_route_limit_one_runs():
    # a one-request cap on exact search leaves pairs to cheapest insertion
    # instead of raising
    inst, cfg = two_request_instance()
    rep = run(inst, dataclasses.replace(cfg, exhaustive_route_limit=1))
    assert [(r.served, r.vehicle_id) for r in rep.records] == [(True, 0), (True, 0)]


def test_runs_leave_no_cyclic_garbage():
    # the route and assignment searches recurse through closures, each
    # dropped as its root call returns, so every re-solve is freed by
    # reference counting and a run leaves the cyclic collector nothing
    inst, cfg = two_request_instance()
    rng = random.Random(0)  # 13 requests, 2 vehicles, all served
    planar, matrix_cfg = random_instance(rng, max_requests=20, max_vehicles=3)
    runs = [
        (make_instance(101), corpus_config(0)),
        (make_instance(101), corpus_config(2)),
        # insertion, and the separate delivery-only search
        (inst, dataclasses.replace(cfg, exhaustive_route_limit=1)),
        # no late-stop kill off the triangle inequality
        (matrix_instance(planar, rng), matrix_cfg),
    ]
    left = []
    with collector_off():
        for instance, config in runs:
            run(instance, config)
            left.append(gc.collect())
    assert left == [0, 0, 0, 0]


@st.composite
def hostile_case(draw):
    # a few nodes on an asymmetric table that breaks the triangle
    # inequality, or co-located integer points; loads above 1 at tiny
    # capacities; pickups at the first and the last batched instant
    travel, points = draw(travel_case(draw(st.integers(1, 6))))
    point = st.sampled_from(points)
    step = draw(st.integers(1, 15)) * MINUTE
    n_vehicles = draw(st.integers(1, 3))
    config = SolverConfig(
        horizon=draw(st.integers(1, 4)) * step, step=step, rh_factor=draw(st.integers(0, 3)),
        max_wait=draw(st.integers(0, 10)) * MINUTE, max_delay=draw(st.integers(0, 20)) * MINUTE,
        dwell=draw(st.sampled_from((0, MINUTE))), fleet_size=n_vehicles,
        capacity=draw(st.integers(1, 3)),
    )
    last = coverage_end(config)
    desired = st.one_of(st.sampled_from((0, last)), st.integers(0, last))
    requests = tuple(
        derive_earliest_dropoff(
            Request(rid, draw(point), draw(point), draw(desired), 0, draw(st.integers(1, 2))),
            travel)
        for rid in range(draw(st.integers(1, 6)))
    )
    vehicles = tuple(Vehicle(vid, config.capacity, draw(point)) for vid in range(n_vehicles))
    tables = (travel.times, travel.distances) if isinstance(travel, MatrixTravel) else None
    return WORKLOADS.Case("hostile", Instance(requests, vehicles, travel), config, tables)


@settings(max_examples=300, deadline=None)
@given(hostile_case())
def test_runs_on_hostile_inputs_keep_every_service_rule(case):
    # the benchmark's auditor re-times each committed route over the case's
    # own tables or points: every committed leg must be drivable, and every
    # wait, delay, capacity and record rule must hold
    assert CHECK.check_report(case, run(case.instance, case.config)) == ([], [])
