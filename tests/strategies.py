"""Hostile travel models shared by the route tests.

Each case is a travel model and `n_points` locations on it: integer
planar points under EuclideanTravel, or matrix nodes whose independent
entries make the table asymmetric and routinely break the triangle
inequality. The builders take `integer(lo, hi)`, a draw of an int in
[lo, hi], so a seeded `random.Random(...).randint` builds the same kinds
of case as the Hypothesis strategies below.
"""

from hypothesis import strategies as st

from rollhorizon.model import Location
from rollhorizon.travel import EuclideanTravel, MatrixTravel

MINUTE = 60


def euclidean_points(integer, n_points):
    points = [Location(float(integer(0, 8)), float(integer(0, 8))) for _ in range(n_points)]
    return EuclideanTravel(1.0), points


def matrix_points(integer, n_points):
    times = [[0 if i == j else integer(0, 15 * MINUTE) for j in range(n_points)]
             for i in range(n_points)]
    dists = [[t / MINUTE for t in row] for row in times]
    points = [Location(float(i), 0.0, node_id=i) for i in range(n_points)]
    return MatrixTravel(times, dists), points


@st.composite
def _drawn(draw, build, n_points):
    return build(lambda lo, hi: draw(st.integers(lo, hi)), n_points)


def travel_case(n_points):
    return st.one_of(_drawn(euclidean_points, n_points), _drawn(matrix_points, n_points))
