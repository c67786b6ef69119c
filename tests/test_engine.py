import dataclasses
import gc
import random
import re
import warnings

import pytest

from collector import collector_off
from instgen import matrix_instance, random_instance
from rollhorizon import engine
from rollhorizon.assignment_ilp import AssignmentBudgetError, UnprovenAssignmentWarning
from rollhorizon.corpus import corpus_config, make_instance
from rollhorizon.engine import ConfigError, EngineError, run
from rollhorizon.instance_io import Instance, make_fleet
from rollhorizon.model import (
    PICKUP,
    Location,
    Request,
    SolverConfig,
    derive_earliest_dropoff,
)
from rollhorizon.routing import schedule_route
from rollhorizon.travel import EuclideanTravel


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
    # desired right at the last grid step: dropoff can only land in the drain
    travel = EuclideanTravel(1.0)
    req = derive_earliest_dropoff(
        Request(0, Location(0.5, 0), Location(8, 0), 870, 0), travel)
    inst = Instance(requests=(req,), vehicles=make_fleet(1, 2, Location(0, 0)),
                    travel=travel)
    cfg = SolverConfig(horizon=900, step=300, rh_factor=1, max_wait=600,
                       max_delay=900, dwell=0, fleet_size=1, capacity=2)
    return inst, cfg


def test_drain_finishes_rides_started_late():
    inst, cfg = late_ride_instance()
    rep = run(inst, cfg)
    (rec,) = rep.records
    assert rec.served
    assert rec.actual_dropoff_time > cfg.horizon


def test_drain_past_its_cap_is_an_engine_error(monkeypatch):
    monkeypatch.setattr(engine, "DRAIN_ITERATION_CAP", 0)
    inst, cfg = late_ride_instance()
    with pytest.raises(EngineError, match="failed to drain after 0 extra steps"):
        run(inst, cfg)
    # rides that end inside the grid never reach the drain
    inst, cfg = two_request_instance()
    assert run(inst, cfg).summary.service_rate == 1.0


def test_must_serve_is_the_pickups_left_on_the_plans(monkeypatch):
    # a re-solve must serve what the last step left on the vehicles' plans to
    # pick up; passengers aboard are no graph requests and are not passed
    real = engine.solve_assignment
    must_serve = []

    def recording(graph, **kwargs):
        must_serve.append(list(kwargs["must_serve"]))
        return real(graph, **kwargs)

    monkeypatch.setattr(engine, "solve_assignment", recording)
    before = [{}]  # the vehicles' states each re-solve starts from
    rep = run(make_instance(101), corpus_config(2),
              iteration_hook=lambda t, states: before.append(states))
    assert len(must_serve) == len(rep.iteration_times_s) == len(before) - 1
    for served, states in zip(must_serve, before):
        pickups = sorted(req.id for st in states.values()
                         for kind, req in st.planned_suffix if kind == PICKUP)
        assert served == pickups
        assert not {rid for st in states.values() for rid in st.onboard} & set(served)
    assert any(must_serve)
    assert any(st.onboard for states in before for st in states.values())


def test_each_step_leaves_a_plan_that_keeps_its_committed_times(monkeypatch):
    # the stitching contract: the plan a step leaves a vehicle re-times from
    # its new start as feasible, at the service and departure times the
    # chosen route gave those stops; only the first stop's arrival may move,
    # to the step's end, when the vehicle left for it and got there early
    real = engine.simulate_step
    plans = moved = 0
    broken = []

    def stitching(states, routes, t_from, t_to, travel, config):
        nonlocal plans, moved
        out = real(states, routes, t_from, t_to, travel, config)
        for st in out[0]:
            if not st.planned_suffix:
                continue
            plans += 1
            old = routes[st.vehicle_id].schedule[-len(st.planned_suffix):]
            new = schedule_route(st, st.planned_suffix, travel, config)
            (a0, s0, d0), (a1, s1, d1) = old[0], new.schedule[0]
            moved += a1 != a0
            if not (new.feasible and (s1, d1) == (s0, d0) and (a1 == a0 or a0 < a1 == t_to)
                    and new.schedule[1:] == old[1:]):
                broken.append(f"t={t_to} vehicle {st.vehicle_id}: {old} re-timed as "
                              f"{new.schedule}, feasible {new.feasible}")
        return out

    monkeypatch.setattr(engine, "simulate_step", stitching)
    run(make_instance(101), corpus_config(2))
    assert plans == 147
    for seed in range(4):
        rng = random.Random(seed)
        planar, cfg = random_instance(rng, max_requests=20, max_vehicles=3)
        run(matrix_instance(planar, rng), cfg)
    assert broken == []
    assert plans > 147 and moved > 0


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


def _starved_assignment(monkeypatch, budget, *, keep_fallback=True, full_calls=0):
    """Re-solves after the first full_calls get only `budget` search nodes."""
    real = engine.solve_assignment
    calls = [0]

    def starved(graph, **kwargs):
        calls[0] += 1
        if calls[0] <= full_calls:
            return real(graph, **kwargs)
        if not keep_fallback:
            graph = dataclasses.replace(graph, fallback_assignment=())
        return real(graph, budget=budget, **kwargs)

    monkeypatch.setattr(engine, "solve_assignment", starved)


def test_unproven_assignment_warns(monkeypatch):
    inst, cfg = two_request_instance()
    _starved_assignment(monkeypatch, budget=1)
    with pytest.warns(UnprovenAssignmentWarning) as caught:
        rep = run(inst, cfg)
    assert re.match(r"assignment at t=0s stopped after \d+ nodes", str(caught[0].message))
    # the empty plan is the only incumbent a starved first solve can adopt
    assert not any(r.served for r in rep.records)


def test_budget_exhausted_without_fallback_is_a_typed_error(monkeypatch):
    inst, cfg = two_request_instance()
    _starved_assignment(monkeypatch, budget=1, keep_fallback=False, full_calls=1)
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
