"""Batch selection for each rolling-horizon iteration.

Each iteration at time t admits the requests whose desired pickup falls in
the newest step-sized slice of the sliding window. The first iteration also
sweeps up everything from the start of the horizon so nothing is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Request, SolverConfig


@dataclass
class Batch:
    """Requests entering the active set at iteration time t."""

    t: int
    new_requests: tuple[Request, ...]


def window_processing(t: int, requests: Iterable[Request], config: SolverConfig) -> Batch:
    """Select the requests that become active at iteration time t.

    At t = 0 every request with desired pickup at most rh_factor * step is
    taken (inclusive of time 0). Later iterations take the half-open slice
    (t + (rh_factor - 1) * step, t + rh_factor * step]. Slices are disjoint
    across the grid and their union covers the horizon, so each request is
    batched exactly once.
    """
    if t < 0 or t % config.step != 0:
        raise ValueError(f"iteration time {t} is not on the step grid")
    look = config.rh_factor * config.step
    if t == 0:
        chosen = [r for r in requests if r.desired_pickup_time <= look]
    else:
        lo = t + look - config.step
        hi = t + look
        chosen = [r for r in requests if lo < r.desired_pickup_time <= hi]
    chosen.sort(key=lambda r: r.id)
    return Batch(t, tuple(chosen))


def coverage_end(config: SolverConfig) -> int:
    """Largest desired pickup time guaranteed to be batched by the grid.

    The grid runs t = 0 .. horizon - step, so the last slice tops out at
    horizon + (rh_factor - 1) * step. With rh_factor 0 that is one step
    short of the horizon: the online setting never looks ahead, so pickups
    in the final step cannot enter any batch.
    """
    return min(config.horizon, config.horizon + (config.rh_factor - 1) * config.step)

