"""Travel-time and distance providers.

Two modes: planar Euclidean movement at a constant speed, and table lookup
from precomputed matrices (which may be asymmetric, matching road networks).
Times are integer seconds, distances are raw units as floats.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import Location


class TravelError(ValueError):
    """A location cannot be resolved by the configured provider."""


class EuclideanTravel:
    """Straight-line travel at `speed` distance units per minute.

    Travel times round up to the next whole second. Rounding up keeps the
    triangle inequality intact (ceil(a) + ceil(b) >= ceil(a + b)), which
    nearest-rounding would not.
    """

    # detouring never shortens a leg; route search may prune on that
    obeys_triangle = True

    def __init__(self, speed: float = 1.0):
        if speed <= 0:
            raise TravelError(f"speed must be positive, got {speed}")
        self.speed = float(speed)

    def distance(self, a: Location, b: Location) -> float:
        return math.hypot(a.x - b.x, a.y - b.y)

    def travel_time(self, a: Location, b: Location) -> int:
        return math.ceil(math.hypot(a.x - b.x, a.y - b.y) * 60.0 / self.speed)


class MatrixTravel:
    """Lookup provider over precomputed n x n time and distance tables."""

    # tables are arbitrary; a detour could legitimately arrive earlier
    obeys_triangle = False

    def __init__(self, times: Sequence[Sequence[float]], distances: Sequence[Sequence[float]]):
        n = len(times)
        if len(distances) != n:
            raise TravelError("time and distance matrices must have the same size")
        for name, m in (("time", times), ("distance", distances)):
            for i, row in enumerate(m):
                if len(row) != n:
                    raise TravelError(f"{name} matrix row {i} has {len(row)} entries, want {n}")
                for j, val in enumerate(row):
                    if val < 0:
                        raise TravelError(f"{name} matrix entry [{i}][{j}] is negative")
                if m[i][i] != 0:
                    raise TravelError(f"{name} matrix diagonal entry [{i}][{i}] is nonzero")
        self.n = n
        self.times = [[int(round(v)) for v in row] for row in times]
        self.distances = [[float(v) for v in row] for row in distances]

    def _index(self, loc: Location) -> int:
        if loc.node_id is None:
            raise TravelError(f"location ({loc.x}, {loc.y}) has no node_id for matrix lookup")
        if not 0 <= loc.node_id < self.n:
            raise TravelError(f"node_id {loc.node_id} outside matrix of size {self.n}")
        return loc.node_id

    def distance(self, a: Location, b: Location) -> float:
        return self.distances[self._index(a)][self._index(b)]

    def travel_time(self, a: Location, b: Location) -> int:
        return self.times[self._index(a)][self._index(b)]
