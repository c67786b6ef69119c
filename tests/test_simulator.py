import pytest

from rollhorizon.model import (
    DROPOFF,
    PICKUP,
    Location,
    Request,
    SolverConfig,
    derive_earliest_dropoff,
)
from rollhorizon.routing import PlanStart, StopTable, best_route_exhaustive, schedule_route
from rollhorizon.simulator import SimulationError, VehicleState, simulate_step
from rollhorizon.travel import EuclideanTravel, MatrixTravel

TRAVEL = EuclideanTravel(1.0)


def cfg(**kw):
    base = dict(horizon=3600, step=600, max_wait=900, max_delay=1200,
                dwell=30, fleet_size=1, capacity=3)
    base.update(kw)
    return SolverConfig(**base)


def mk(rid, px, py, dx, dy, desired):
    return derive_earliest_dropoff(
        Request(rid, Location(px, py), Location(dx, dy), desired, 0), TRAVEL
    )


def plan_for(state, reqs, config):
    cand = best_route_exhaustive(state, reqs, TRAVEL, config)
    assert cand is not None
    return cand


def test_executes_only_stops_inside_the_window():
    config = cfg()
    req = mk(0, 1, 0, 4, 4, 120)
    state = VehicleState(0, Location(0, 0), 0)
    route = plan_for(state, [req], config)
    assert route.schedule == ((60, 120, 150), (450, 450, 480))
    # the vehicle left for the pickup at 0, inside the window, so the pickup
    # commits although its service at 120 falls after the window's end; the
    # dropoff's leg starts at 150, after it
    new, boarded, records = simulate_step([state], {0: route}, 0, 100, TRAVEL, config)
    st = new[0]
    assert boarded == (0,)
    assert records == ()
    assert [s.kind for s in st.committed] == [PICKUP]
    assert st.onboard == frozenset([0])
    assert st.pickup_times == {0: 120}
    assert [k for k, _r in st.planned_suffix] == [DROPOFF]
    assert (st.plan_location, st.plan_time) == (req.pickup, 150)

    new2, boarded2, records2 = simulate_step(
        new, {0: schedule_route(st, st.planned_suffix, TRAVEL, config)},
        100, 600, TRAVEL, config,
    )
    st2 = new2[0]
    assert boarded2 == ()
    assert len(records2) == 1
    rec = records2[0]
    # the pickup time crossed the window boundary intact
    assert (rec.request_id, rec.actual_pickup_time, rec.actual_dropoff_time) == (0, 120, 450)
    assert [s.kind for s in st2.committed] == [PICKUP, DROPOFF]
    assert st2.onboard == frozenset()


def test_stop_on_window_boundary_is_executed():
    config = cfg(dwell=0)
    req = mk(0, 1, 0, 2, 0, 300)
    state = VehicleState(0, Location(0, 0), 0)
    route = plan_for(state, [req], config)
    assert route.schedule[0][1] == 300
    _new, boarded, _recs = simulate_step([state], {0: route}, 0, 300, TRAVEL, config)
    assert boarded == (0,)


def test_plan_origin_still_dwelling():
    config = cfg(dwell=120)
    req = mk(0, 1, 0, 4, 0, 550)
    state = VehicleState(0, Location(0, 0), 0)
    route = plan_for(state, [req], config)
    # service 550, dwell to 670: at 600 the vehicle is mid-dwell at the stop
    new, _b, _r = simulate_step([state], {0: route}, 0, 600, TRAVEL, config)
    st = new[0]
    assert st.plan_location == req.pickup
    assert st.plan_time == 670


def test_plan_origin_in_flight_interpolates():
    config = cfg(dwell=0)
    req = mk(0, 10, 0, 20, 0, 0)
    state = VehicleState(0, Location(0, 0), 0)
    route = plan_for(state, [req], config)
    # pickup at 600; at t=300 the vehicle is halfway there, so the pickup is
    # committed, and the next plan starts at it, not at a point on the leg
    new, boarded, _r = simulate_step([state], {0: route}, 0, 300, TRAVEL, config)
    st = new[0]
    assert boarded == (0,)
    assert [s.kind for s in st.committed] == [PICKUP]
    assert st.committed[0].scheduled_time == 600
    assert st.plan_location == req.pickup
    assert st.plan_time == 600


def test_plan_origin_arrived_and_waiting_is_replannable_now():
    config = cfg(dwell=0, fleet_size=2)
    # vehicle 0's ride ends at 120, so at 600 it waits at the dropoff with
    # nothing left to drive and is replannable now. Vehicle 1 arrives at its
    # pickup at 60 and waits there for service at 900: it left for that
    # stop, so the stop is committed and its next plan starts at 900
    done, waiting = mk(0, 1, 0, 2, 0, 0), mk(1, 1, 0, 2, 0, 900)
    states = [VehicleState(0, Location(0, 0), 0), VehicleState(1, Location(0, 0), 0)]
    routes = {0: plan_for(states[0], [done], config), 1: plan_for(states[1], [waiting], config)}
    assert routes[1].schedule[0] == (60, 900, 900)
    new, boarded, records = simulate_step(states, routes, 0, 600, TRAVEL, config)
    assert boarded == (0, 1)
    assert [r.request_id for r in records] == [0]
    idle, busy = new
    assert (idle.plan_location, idle.plan_time) == (done.dropoff, 600)
    assert idle.planned_suffix == ()
    assert [s.kind for s in busy.committed] == [PICKUP]
    assert (busy.plan_location, busy.plan_time) == (waiting.pickup, 900)


def test_matrix_mode_holds_position_at_last_node():
    times = [[0, 600], [600, 0]]
    dists = [[0.0, 10.0], [10.0, 0.0]]
    mt = MatrixTravel(times, dists)
    a, b = Location(0, 0, node_id=0), Location(9, 9, node_id=1)
    req = derive_earliest_dropoff(
        Request(0, b, a, 0, 0), mt
    )
    config = cfg(dwell=0, max_wait=1200)
    state = VehicleState(0, a, 0)
    route = best_route_exhaustive(state, [req], mt, config)
    assert route is not None
    new, _b, _r = simulate_step([state], {0: route}, 0, 300, mt, config)
    # mid-leg the next plan can only begin at the leg's end node
    assert new[0].plan_location == b


def test_no_route_stands_still():
    config = cfg()
    state = VehicleState(0, Location(2, 2), 100,
                         planned_suffix=((PICKUP, mk(0, 1, 1, 3, 3, 50)),))
    new, boarded, records = simulate_step([state], {0: None}, 0, 600, TRAVEL, config)
    st = new[0]
    assert boarded == () and records == ()
    assert st.planned_suffix == ()
    assert st.plan_location == Location(2, 2)
    assert st.plan_time == 600


def test_rejects_invalid_route():
    config = cfg()
    req = mk(0, 1, 0, 4, 4, 120)
    state = VehicleState(0, Location(0, 0), 0)
    route = plan_for(state, [req], config)
    # claim the same route from a vehicle that cannot reach it in time
    liar = VehicleState(0, Location(50, 50), 0)
    with pytest.raises(SimulationError):
        simulate_step([liar], {0: route}, 0, 300, TRAVEL, config)


def test_rejects_route_that_leaves_a_passenger_aboard():
    # passenger 0 is aboard at the start; the route only serves newcomer 1,
    # and times feasibly with the seat 0 takes, but never delivers 0
    config = cfg()
    aboard = mk(0, 0, 0, 2, 0, 0)
    newcomer = mk(1, 1, 0, 3, 0, 120)
    state = VehicleState(0, Location(0, 0), 0, onboard=frozenset({0}))
    table = StopTable([aboard, newcomer], [state.plan_location], TRAVEL, config)
    route = schedule_route(state, [(PICKUP, newcomer), (DROPOFF, newcomer)], TRAVEL, config,
                           table=table)
    assert route.feasible
    assert [s.onboard_after for s in route.stops] == [2, 1]
    with pytest.raises(SimulationError, match="passenger 0 aboard at the start"):
        simulate_step([state], {0: route}, 0, 600, TRAVEL, config)


def test_a_loaded_vehicle_with_no_route_is_an_error():
    # with no route, passenger 0 would ride on, standing still, forever
    state = VehicleState(0, Location(0, 0), 0, onboard=frozenset({0}))
    with pytest.raises(SimulationError, match=r"vehicle 0 has passengers \[0\] aboard"):
        simulate_step([state], {0: None}, 0, 600, TRAVEL, cfg())


def test_a_passenger_aboard_with_no_pickup_time_is_named():
    config = cfg()
    aboard = mk(0, 0, 0, 2, 0, 0)
    state = VehicleState(0, Location(0, 0), 0, onboard=frozenset({0}))
    table = StopTable([aboard], [state.plan_location], TRAVEL, config)
    route = schedule_route(state, [(DROPOFF, aboard)], TRAVEL, config, table=table)
    assert route.feasible and route.schedule[0][1] <= 600
    with pytest.raises(ValueError, match=r"vehicle 0: passengers \[0\] aboard have no pickup"):
        simulate_step([state], {0: route}, 0, 600, TRAVEL, config)


def test_window_must_advance():
    state = VehicleState(0, Location(0, 0), 0)
    with pytest.raises(ValueError):
        simulate_step([state], {0: None}, 300, 300, TRAVEL, cfg())
