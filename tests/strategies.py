"""Hypothesis strategies for hostile travel models shared by the route tests.

Each strategy draws a travel model and `n_points` locations on it:
integer planar points under EuclideanTravel, or matrix nodes whose
independent entries make the table asymmetric and routinely break the
triangle inequality.
"""

from hypothesis import strategies as st

from rollhorizon.model import Location
from rollhorizon.travel import EuclideanTravel, MatrixTravel

MINUTE = 60


@st.composite
def euclidean_case(draw, n_points):
    coord = st.integers(0, 8).map(float)
    points = [Location(draw(coord), draw(coord)) for _ in range(n_points)]
    return EuclideanTravel(1.0), points


@st.composite
def matrix_case(draw, n_points):
    leg = st.integers(0, 15 * MINUTE)
    times = [[0 if i == j else draw(leg) for j in range(n_points)]
             for i in range(n_points)]
    dists = [[t / MINUTE for t in row] for row in times]
    points = [Location(float(i), 0.0, node_id=i) for i in range(n_points)]
    return MatrixTravel(times, dists), points


def travel_case(n_points):
    return st.one_of(euclidean_case(n_points), matrix_case(n_points))
