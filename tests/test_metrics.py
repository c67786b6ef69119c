import pytest

from rollhorizon.metrics import (
    avg_delay,
    avg_wait,
    service_rate,
    summarize,
    total_vmt,
)
from rollhorizon.model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    Route,
    ServiceRecord,
    Stop,
    Vehicle,
    derive_earliest_dropoff,
)
from rollhorizon.travel import EuclideanTravel

TRAVEL = EuclideanTravel(1.0)


def served(rid, pick, drop, vid=0):
    return ServiceRecord(rid, True, vid, pick, drop)


def test_service_rate():
    assert service_rate([]) == 1.0
    recs = [served(0, 10, 20), ServiceRecord(1, False)]
    assert service_rate(recs) == 0.5


def test_avg_delay_and_wait_in_minutes():
    reqs = {
        0: derive_earliest_dropoff(Request(0, Location(0, 0), Location(3, 4), 60, 0), TRAVEL),
        1: derive_earliest_dropoff(Request(1, Location(0, 0), Location(0, 1), 0, 0), TRAVEL),
    }
    # request 0: earliest dropoff 360, wait 30s, delay 120s
    # request 1: earliest dropoff 60, wait 90s, delay 120s
    recs = [served(0, 90, 480), served(1, 90, 180), ServiceRecord(2, False)]
    delay, defined = avg_delay(recs, reqs)
    assert defined
    assert delay == pytest.approx((120 + 120) / 2 / 60)
    assert avg_wait(recs, reqs) == pytest.approx((30 + 90) / 2 / 60)

    none_served = [ServiceRecord(0, False)]
    delay, defined = avg_delay(none_served, reqs)
    assert not defined


def test_total_vmt_counts_depot_leg_but_no_return():
    # depot (0,0) -> (3,4) -> (3,8): 5 + 4, return leg not driven
    stops = (
        Stop(PICKUP, 0, Location(3, 4), 100, 1),
        Stop(DROPOFF, 0, Location(3, 8), 400, 0),
    )
    routes = [Route(0, stops, 2), Route(1, (), 0)]
    vehicles = [Vehicle(0, 2, Location(0, 0)), Vehicle(1, 2, Location(9, 9))]
    assert total_vmt(routes, vehicles, TRAVEL) == pytest.approx(9.0)


def test_summarize_wires_everything():
    req = derive_earliest_dropoff(Request(0, Location(0, 0), Location(3, 4), 60, 0), TRAVEL)
    stops = (
        Stop(PICKUP, 0, req.pickup, 60, 1),
        Stop(DROPOFF, 0, req.dropoff, 360, 0),
    )
    routes = [Route(0, stops, 2)]
    vehicles = [Vehicle(0, 2, Location(0, 0))]
    recs = [served(0, 60, 360)]
    s = summarize(recs, routes, [req], vehicles, TRAVEL,
                  total_compute_s=0.5, iterations=4)
    assert s.requests_total == 1
    assert s.requests_served == 1
    assert s.service_rate == 1.0
    assert s.avg_delay_min == 0.0
    assert s.avg_wait_min == 0.0
    assert s.total_vmt == pytest.approx(5.0)
    assert s.total_compute_s == 0.5
    assert s.compute_time_per_request_s == 0.5
    assert s.iterations == 4
