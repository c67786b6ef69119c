import math
import random

import pytest

from rollhorizon.model import Location
from rollhorizon.travel import EuclideanTravel, MatrixTravel, TravelError


def test_euclidean_examples():
    t = EuclideanTravel(1.0)
    a, b = Location(0, 0), Location(3, 4)
    assert t.distance(a, b) == 5.0
    assert t.travel_time(a, b) == 300
    assert t.travel_time(a, a) == 0
    assert EuclideanTravel(2.0).travel_time(a, b) == 150


def test_euclidean_rounds_up_to_whole_seconds():
    t = EuclideanTravel(1.0)
    # sqrt(2) units at 1 unit/min is 84.85..s; never round travel down
    assert t.travel_time(Location(0, 0), Location(1, 1)) == 85


def test_euclidean_speed_must_be_positive():
    with pytest.raises(TravelError):
        EuclideanTravel(0.0)
    with pytest.raises(TravelError):
        EuclideanTravel(-1.0)
    # NaN fails every comparison, and infinity makes every leg take no time
    with pytest.raises(TravelError):
        EuclideanTravel(float("nan"))
    with pytest.raises(TravelError):
        EuclideanTravel(float("inf"))


def test_euclidean_symmetry_and_triangle_inequality():
    rng = random.Random(4242)
    t = EuclideanTravel(1.3)
    for _ in range(200):
        pts = [Location(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(3)]
        a, b, c = pts
        assert t.travel_time(a, b) == t.travel_time(b, a)
        assert t.distance(a, b) == t.distance(b, a)
        assert t.travel_time(a, c) <= t.travel_time(a, b) + t.travel_time(b, c)
        assert t.distance(a, c) <= t.distance(a, b) + t.distance(b, c) + 1e-9


def nodes(n):
    return [Location(float(i), 0.0, node_id=i) for i in range(n)]


def test_matrix_lookup_and_asymmetry():
    times = [[0, 10, 20], [12, 0, 7], [25, 9, 0]]
    dists = [[0.0, 1.0, 2.0], [1.2, 0.0, 0.7], [2.5, 0.9, 0.0]]
    t = MatrixTravel(times, dists)
    a, b, c = nodes(3)
    assert t.travel_time(a, b) == 10
    assert t.travel_time(b, a) == 12  # one-way streets allowed
    assert t.distance(b, c) == 0.7
    assert t.travel_time(c, c) == 0


def test_matrix_times_become_integers():
    t = MatrixTravel([[0, 9.6], [9.4, 0]], [[0.0, 1.0], [1.0, 0.0]])
    a, b = nodes(2)
    assert t.travel_time(a, b) == 10
    assert t.travel_time(b, a) == 9


@pytest.mark.parametrize("times,dists,frag", [
    ([[0, 1]], [[0.0, 1.0]], "entries"),
    ([[0, 1], [1, 0]], [[0.0], [1.0]], "entries"),
    ([[0, -1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], "negative"),
    ([[1, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], "diagonal"),
    ([[0, 1], [1, 0]], [[0.0, 1.0], [-2.0, 0.0]], "negative"),
    ([[0, float("nan")], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], "not finite"),
    ([[0, 1], [1, 0]], [[0.0, float("inf")], [1.0, 0.0]], "not finite"),
])
def test_matrix_validation(times, dists, frag):
    with pytest.raises(TravelError, match=frag):
        MatrixTravel(times, dists)


def test_matrix_requires_node_ids():
    t = MatrixTravel([[0, 5], [5, 0]], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(TravelError):
        t.travel_time(Location(0, 0), Location(1, 0))
    a, _b = nodes(2)
    with pytest.raises(TravelError):
        t.travel_time(a, Location(1, 0, node_id=7))
