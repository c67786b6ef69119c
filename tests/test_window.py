import random

import pytest

from instgen import random_request
from rollhorizon.model import SolverConfig
from rollhorizon.travel import EuclideanTravel
from rollhorizon.window import coverage_end, window_processing


def cfg(rh, step=300, horizon=1800):
    return SolverConfig(horizon=horizon, step=step, rh_factor=rh,
                        fleet_size=1, capacity=1)


def req_at(rid, desired):
    travel = EuclideanTravel(1.0)
    r = random_request(random.Random(rid), rid, 5.0, 0, travel)
    return r.__class__(**{**r.__dict__, "desired_pickup_time": desired})


def test_first_batch_takes_everything_up_to_the_lookahead():
    reqs = [req_at(i, t) for i, t in enumerate([0, 299, 300, 600, 601])]
    batch = window_processing(0, reqs, cfg(rh=1))
    assert [r.id for r in batch.new_requests] == [0, 1, 2]
    batch0 = window_processing(0, reqs, cfg(rh=0))
    assert [r.id for r in batch0.new_requests] == [0]
    batch2 = window_processing(0, reqs, cfg(rh=2))
    assert [r.id for r in batch2.new_requests] == [0, 1, 2, 3]


def test_later_batches_are_left_open_right_closed():
    # rh=1 at t: membership is (t, t+step]
    reqs = [req_at(i, t) for i, t in enumerate([300, 301, 600, 601])]
    batch = window_processing(300, reqs, cfg(rh=1))
    assert [r.id for r in batch.new_requests] == [1, 2]
    # rh=0 at t: membership is (t-step, t]
    batch0 = window_processing(300, reqs, cfg(rh=0))
    assert [r.id for r in batch0.new_requests] == [0]
    # rh=2 at t: membership is (t+step, t+2*step]
    batch2 = window_processing(300, reqs, cfg(rh=2))
    assert [r.id for r in batch2.new_requests] == [3]


def test_batches_sorted_by_request_id():
    reqs = [req_at(3, 100), req_at(1, 200), req_at(2, 50)]
    batch = window_processing(0, reqs, cfg(rh=1))
    assert [r.id for r in batch.new_requests] == [1, 2, 3]


def test_off_grid_time_rejected():
    with pytest.raises(ValueError):
        window_processing(150, [], cfg(rh=1))
    with pytest.raises(ValueError):
        window_processing(-300, [], cfg(rh=1))


def test_coverage_end_per_lookahead():
    assert coverage_end(cfg(rh=0)) == 1500  # last step's arrivals are unseen
    assert coverage_end(cfg(rh=1)) == 1800
    assert coverage_end(cfg(rh=2)) == 1800  # capped at the horizon
    assert coverage_end(cfg(rh=3)) == 1800


@pytest.mark.parametrize("rh", [0, 1, 2, 3])
def test_batches_partition_covered_requests(rh):
    rng = random.Random(900 + rh)
    config = cfg(rh, step=300, horizon=2100)
    travel = EuclideanTravel(1.0)
    for _ in range(20):
        reqs = [random_request(rng, rid, 6.0, config.horizon, travel)
                for rid in range(rng.randint(1, 40))]
        covered = [r for r in reqs if r.desired_pickup_time <= coverage_end(config)]
        batches = [window_processing(t, covered, config)
                   for t in range(0, config.horizon, config.step)]
        seen = [r.id for b in batches for r in b.new_requests]
        assert sorted(seen) == sorted(r.id for r in covered)
        assert len(set(seen)) == len(seen)
