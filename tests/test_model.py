import random

import pytest

from rollhorizon.model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    Route,
    ServiceRecord,
    SolverConfig,
    Stop,
    Vehicle,
    derive_earliest_dropoff,
    routes_cover_records,
    validate_config,
    validate_record,
    validate_route,
)
from rollhorizon.travel import EuclideanTravel


def good_config(**kw):
    base = dict(horizon=3600, step=600, rh_factor=1, max_wait=600,
                max_delay=900, dwell=30, fleet_size=2, capacity=3)
    base.update(kw)
    return SolverConfig(**base)


def test_valid_config_passes():
    assert validate_config(good_config()) == []


@pytest.mark.parametrize("kw,frag", [
    (dict(step=0), "step"),
    (dict(horizon=0), "horizon"),
    (dict(horizon=3601), "multiple"),
    (dict(rh_factor=-1), "rh_factor"),
    (dict(max_wait=-1), "max_wait"),
    (dict(max_delay=-5), "max_delay"),
    (dict(dwell=-1), "dwell"),
    (dict(fleet_size=0), "fleet_size"),
    (dict(capacity=0), "capacity"),
    (dict(exhaustive_route_limit=0), "exhaustive_route_limit"),
    (dict(trip_size_limit=0), "trip_size_limit"),
])
def test_invalid_config_flagged(kw, frag):
    problems = validate_config(good_config(**kw))
    assert problems and any(frag in p for p in problems)


def test_window_span_and_trip_limit():
    cfg = good_config(rh_factor=2, step=300)
    assert cfg.window_span == 900
    assert cfg.effective_trip_size_limit == cfg.capacity
    assert good_config(trip_size_limit=2).effective_trip_size_limit == 2


def test_earliest_dropoff_right_triangle():
    # 3-4-5 legs at speed 1 unit/min: direct ride is 5 minutes
    travel = EuclideanTravel(1.0)
    req = Request(0, Location(0, 0), Location(3, 4), 600, 0)
    assert derive_earliest_dropoff(req, travel).earliest_dropoff_time == 900


def build_served_pair(travel, config):
    """One vehicle serving one request, timed by hand."""
    req = derive_earliest_dropoff(
        Request(7, Location(0, 0), Location(3, 4), 600, 0), travel
    )
    stops = (
        Stop(PICKUP, 7, req.pickup, 600, 1),
        Stop(DROPOFF, 7, req.dropoff, 900, 0),
    )
    route = Route(0, stops, committed_prefix_len=2)
    record = ServiceRecord(7, True, 0, 600, 900)
    return req, route, record


def test_validate_route_accepts_correct_route():
    travel = EuclideanTravel(1.0)
    config = good_config(dwell=0)
    req, route, _rec = build_served_pair(travel, config)
    assert validate_route(route, {7: req}, travel, config,
                          start_location=Location(0, 0), start_time=0) == []


def corrupt(route, idx, **changes):
    stops = list(route.stops)
    stop = stops[idx]
    stops[idx] = Stop(
        changes.get("kind", stop.kind),
        changes.get("request_id", stop.request_id),
        changes.get("location", stop.location),
        changes.get("scheduled_time", stop.scheduled_time),
        changes.get("onboard_after", stop.onboard_after),
    )
    return Route(route.vehicle_id, tuple(stops), route.committed_prefix_len)


def test_validate_route_catches_each_violation_kind():
    travel = EuclideanTravel(1.0)
    config = good_config(dwell=0)
    req, route, _ = build_served_pair(travel, config)
    by_id = {7: req}

    early = corrupt(route, 0, scheduled_time=500)
    assert any("before desired" in p for p in validate_route(early, by_id, travel, config))

    late = corrupt(route, 0, scheduled_time=1300)
    # pushing the pickup late also reorders nothing else, so only waiting trips
    assert any("waiting" in p for p in
               validate_route(late, by_id, travel, config,
                              start_location=Location(0, 0)))

    slow = corrupt(route, 1, scheduled_time=850)
    assert any("reachable" in p for p in
               validate_route(slow, by_id, travel, config,
                              start_location=Location(0, 0)))

    decreasing = corrupt(route, 1, scheduled_time=599)
    probs = validate_route(decreasing, by_id, travel, config)
    assert any("decreases" in p for p in probs)

    wrong_load = corrupt(route, 0, onboard_after=2)
    assert any("onboard_after" in p for p in
               validate_route(wrong_load, by_id, travel, config))

    misplaced = corrupt(route, 1, location=req.pickup)
    assert [p for p in validate_route(misplaced, by_id, travel, config) if "point" in p] == [
        "vehicle 0 stop 1: not at request 7's dropoff point"]

    unknown = corrupt(route, 0, request_id=99)
    assert any("unknown request" in p for p in
               validate_route(unknown, by_id, travel, config))


def test_validate_route_capacity_and_precedence():
    travel = EuclideanTravel(1.0)
    config = good_config(capacity=1, dwell=0)
    a = derive_earliest_dropoff(Request(0, Location(0, 0), Location(2, 0), 0, 0), travel)
    b = derive_earliest_dropoff(Request(1, Location(1, 0), Location(3, 0), 0, 0), travel)
    by_id = {0: a, 1: b}
    stops = (
        Stop(PICKUP, 0, a.pickup, 0, 1),
        Stop(PICKUP, 1, b.pickup, 60, 2),
        Stop(DROPOFF, 0, a.dropoff, 120, 1),
        Stop(DROPOFF, 1, b.dropoff, 180, 0),
    )
    probs = validate_route(Route(0, stops), by_id, travel, config)
    assert any("over capacity" in p for p in probs)

    orphan = (Stop(DROPOFF, 0, a.dropoff, 120, 0),)
    probs = validate_route(Route(0, orphan), by_id, travel, config)
    assert any("not onboard" in p for p in probs)

    unfinished = (Stop(PICKUP, 0, a.pickup, 0, 1),)
    probs = validate_route(Route(0, unfinished), by_id, travel, config)
    assert any("never dropped off" in p for p in probs)


def test_validate_route_needs_every_start_passenger_dropped_off():
    travel = EuclideanTravel(1.0)
    config = good_config(dwell=0)
    a = derive_earliest_dropoff(Request(0, Location(0, 0), Location(2, 0), 0, 0), travel)
    b = derive_earliest_dropoff(Request(1, Location(1, 0), Location(3, 0), 60, 0), travel)
    by_id = {0: a, 1: b}
    serve_b = (Stop(PICKUP, 1, b.pickup, 60, 3), Stop(DROPOFF, 1, b.dropoff, 180, 2))
    probs = validate_route(Route(0, serve_b), by_id, travel, config,
                           start_location=Location(0, 0), initial_onboard=[0, 2])
    assert [p for p in probs if "aboard at the start" in p] == [
        "vehicle 0: passenger 0 aboard at the start never dropped off",
        "vehicle 0: passenger 2 aboard at the start never dropped off",
    ]
    deliver_a = serve_b + (Stop(DROPOFF, 0, a.dropoff, 240, 1),)
    probs = validate_route(Route(0, deliver_a), by_id, travel, config,
                           start_location=Location(0, 0), initial_onboard=[0, 2])
    assert [p for p in probs if "aboard at the start" in p] == [
        "vehicle 0: passenger 2 aboard at the start never dropped off",
    ]


def test_validate_route_names_an_unknown_passenger_aboard_without_seating_it():
    # a passenger aboard with no request to read a load from takes no
    # guessed seat: the auditor names it instead of blaming the stops
    travel = EuclideanTravel(1.0)
    config = good_config(dwell=0, capacity=1)
    r = derive_earliest_dropoff(Request(1, Location(1, 0), Location(3, 0), 60, 0), travel)
    stops = (Stop(PICKUP, 1, r.pickup, 60, 1), Stop(DROPOFF, 1, r.dropoff, 180, 0))
    probs = validate_route(Route(0, stops, 0), {1: r}, travel, config,
                           start_location=Location(0, 0), initial_onboard={7})
    assert probs == [
        "vehicle 0: passenger 7 aboard is an unknown request",
        "vehicle 0: passenger 7 aboard at the start never dropped off",
    ]


def test_validate_route_without_travel_skips_reachability_only():
    config = good_config(dwell=0)
    travel = EuclideanTravel(1.0)
    req, route, _ = build_served_pair(travel, config)
    teleporting = corrupt(route, 1, scheduled_time=601)
    with_travel = validate_route(teleporting, {7: req}, travel, config,
                                 start_location=Location(0, 0))
    assert any("reachable" in p for p in with_travel)
    without = validate_route(teleporting, {7: req}, None, config,
                             start_location=Location(0, 0))
    assert not any("reachable" in p for p in without)


def test_validate_record():
    travel = EuclideanTravel(1.0)
    config = good_config()
    req, _route, rec = build_served_pair(travel, config)
    assert validate_record(rec, req, config) == []
    assert validate_record(ServiceRecord(7, False), req, config) == []

    bad_wait = ServiceRecord(7, True, 0, 1300, 1400)
    assert any("waiting" in p for p in validate_record(bad_wait, req, config))
    bad_delay = ServiceRecord(7, True, 0, 600, 2000)
    assert any("delay" in p for p in validate_record(bad_delay, req, config))
    early_pick = ServiceRecord(7, True, 0, 599, 900)
    assert any("before desired" in p for p in validate_record(early_pick, req, config))
    missing = ServiceRecord(7, True, 0, None, None)
    assert any("missing times" in p for p in validate_record(missing, req, config))
    ghost_times = ServiceRecord(7, False, None, 600, 900)
    assert any("carries times" in p for p in validate_record(ghost_times, req, config))
    ghost_vehicle = ServiceRecord(7, False, 0)
    assert validate_record(ghost_vehicle, req, config) == [
        "request 7: unserved record names a vehicle"]
    backwards = ServiceRecord(7, True, 0, 900, 650)
    assert any("precedes" in p for p in validate_record(backwards, req, config))


def test_routes_cover_records_cross_check():
    travel = EuclideanTravel(1.0)
    config = good_config()
    req, route, rec = build_served_pair(travel, config)
    assert routes_cover_records([route], [rec]) == []

    off_by_one = ServiceRecord(7, True, 0, 601, 900)
    assert any("time" in p for p in routes_cover_records([route], [off_by_one]))
    wrong_vehicle = ServiceRecord(7, True, 1, 600, 900)
    assert any("wrong vehicle" in p for p in routes_cover_records([route], [wrong_vehicle]))
    unserved_with_stops = ServiceRecord(7, False)
    assert any("unserved but has" in p
               for p in routes_cover_records([route], [unserved_with_stops]))
    assert any("no pickup stop" in p
               for p in routes_cover_records([], [rec]))
