"""Exact trip-vehicle assignment.

Minimizes summed route cost plus a per-request penalty for leaving a
request unserved, subject to: at most one route per vehicle (exactly one
for vehicles carrying passengers) and each request in at most one chosen
trip. Any request may go unserved: passengers aboard are no graph
requests, and their vehicle's exactly-one-route rule delivers them.
Solved by depth-first branch and bound over per-vehicle choices; the
penalty construction makes serving more requests always win, so the
solver maximizes served count and breaks ties by cost. The search state is
bit masks over the sorted request ids; every bound term it needs is fixed
per branching position and built once per solve, and a parent bounds each
child before entering it. Each position's options are sorted once by their
own share of a child's bound, so a node walks them in bound order,
passes over those that overlap its served set, and stops at the first
one past the incumbent, overlapping or not; its budget is charged as if
it passed every option in menu order. Vehicles that
reach the most requests are branched on first, and a node enters its
children best bound first, which shrinks the tree without changing a
completed search's answer. The recursive search closure holds itself
through its cell, so its name is deleted in a finally once the root call
returns or raises: a solve's menus, bound terms and the graph records
they reach are then freed by reference counting, not left for the cyclic
collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .rtv import Edge, RtvGraph


class StrandedRequestError(RuntimeError):
    """No assignment gives a route to every vehicle carrying passengers, so
    some passengers aboard cannot be delivered; upstream bug."""

    def __init__(self, vehicle_ids):
        self.vehicle_ids = tuple(sorted(vehicle_ids))
        super().__init__(
            f"no assignment gives a route to every vehicle carrying passengers: "
            f"vehicles {list(self.vehicle_ids)}")


class AssignmentBudgetError(RuntimeError):
    """The search ran out of nodes before reaching any assignment."""


class UnprovenAssignmentWarning(RuntimeWarning):
    """The search ran out of nodes and returned a plan not proven optimal."""


@dataclass
class IlpSolution:
    chosen_edges: tuple[Edge, ...]
    ignored_requests: frozenset[int]
    objective_value: float
    proven_optimal: bool
    nodes_explored: int


def compute_penalty(graph: RtvGraph) -> float:
    """Per-request cost of leaving it unserved.

    One plus the sum over vehicles of their most expensive incident edge.
    Any assignment's total edge cost stays below that sum, so trading a
    served request for any amount of routing savings never pays off:
    served count is effectively maximized first.
    """
    worst: dict[int, float] = {}
    for e in graph.edges:
        if e.vehicle_id not in worst or e.cost > worst[e.vehicle_id]:
            worst[e.vehicle_id] = e.cost
    return 1.0 + sum(worst[v] for v in sorted(worst))


def solve_assignment(
    graph: RtvGraph,
    budget: int = 2_000_000,
) -> IlpSolution:
    """Find the cost-minimal valid assignment of vehicles to trips.

    Exceeding the node budget returns the incumbent flagged not proven
    optimal, or raises AssignmentBudgetError when the search reached no
    leaf; a graph where no assignment gives every vehicle carrying
    passengers a route raises StrandedRequestError. Until the first leaf the
    limit is infinite, so the first dive enters a child at every position: a
    vehicle needing no route may go idle, and a vehicle carrying passengers
    has its delivery-only edge, which holds no request. Such a dive is
    charged at most one unit per vehicle and per edge, plus one for the
    leaf; only a loaded vehicle without a delivery-only edge can make it
    backtrack. Under planar travel every loaded vehicle has one, since the
    dropoffs of its feasible previous plan, in order, are such a route; so
    only matrix travel can. Ties are broken deterministically,
    so results are reproducible. Vehicles with identical menus (same
    trips, costs and stop orders) are twins, and the search keeps one
    labeling of them: twins in id order take options in increasing menu
    position (cost, then trip request ids), and idle twins come after busy
    ones. Among the assignments so kept, the lexicographically smallest
    (request ids, vehicle id) edge set wins. A tie between two labelings
    of twins therefore goes to the one whose lower-id twin drives the
    cheaper trip, which need not be the smaller edge set. A branch is
    pruned only when its bound exceeds the incumbent's objective by more
    than a relative 1e-9: bounds are summed in another order than
    objectives, so an exact tie can round a few ulps above, and the answer
    must depend only on the leaves.

    The search order is chosen to prove fast: vehicles are branched on
    widest reach first (the most distinct requests their menus cover),
    then narrowest menu, and a node enters its children in increasing
    bound order, with leaving the vehicle idle last. Every optimal leaf is
    entered in any order, so a search that completes returns the same
    answer whatever the order; only a search that runs out of budget can
    return another incumbent. A node walks all its options in bound order,
    passing over those that overlap its served set or lie before its twin
    start, and stops at the first whose bound, before its never negative
    seat term, exceeds the incumbent's objective by more than the pruning
    slack again: options ascend in that bound, so no child the limit would
    keep is left unwalked. nodes_explored counts every node entered plus
    every option from the node's first menu position on, as if it passed
    them all in menu order: those passed over and those past the walk's
    stop included. A node charges its options before entering any child,
    and the budget caps that count.
    """
    penalty = compute_penalty(graph)

    all_vehicles = sorted(
        {e.vehicle_id for e in graph.edges} | set(graph.vehicles_requiring_route)
    )
    # requests become bits, ordered by id, so request sets are ints; a menu
    # row is (edge, its request bits), in menu order
    bit_of = {rid: 1 << k for k, rid in enumerate(sorted(graph.request_universe))}
    menu_of: dict[int, list] = {v: [] for v in all_vehicles}
    reach_of = dict.fromkeys(all_vehicles, 0)  # the requests the vehicle's menu covers
    for e in graph.edges:
        bits = 0
        for rid in e.requests:
            bits |= bit_of[rid]
        menu_of[e.vehicle_id].append((e, bits))
        reach_of[e.vehicle_id] |= bits
    for menu in menu_of.values():
        menu.sort(key=lambda row: (row[0].cost, row[0].requests))

    # vehicles with identical menus (same trips, costs and stop orders, e.g.
    # an idle fleet parked at one depot) are interchangeable; the search
    # keeps only the labeling where they take options in increasing menu
    # position. That is not always the labeling with the smallest solution
    # key: with menu (64,) before (51,), twins 0 and 1 get (64,) and (51,)
    # although ((51,), 0), ((64,), 1) ties it with a smaller key. An edge's
    # stop slots stand for its stop order: within one graph they map one to one
    sig_of = {v: (v in graph.vehicles_requiring_route,
                  tuple([(e.requests, e.cost, e.slots) for e, _bits in menu_of[v]]))
              for v in all_vehicles}
    group_rank: dict = {}
    for v in sorted(all_vehicles, key=lambda v: (len(menu_of[v]), v)):
        group_rank.setdefault(sig_of[v], len(group_rank))
    # branch first on the vehicles that reach the most requests, whose
    # choices decide the most of the rest (fail-first), then on the
    # narrowest menus; twins share every key but the id, so they stay
    # adjacent. The answer does not depend on the branching order, only
    # the tree size does
    vehicle_ids = sorted(all_vehicles, key=lambda v: (
        -reach_of[v].bit_count(), len(menu_of[v]), group_rank[sig_of[v]], v))
    n_veh = len(vehicle_ids)
    grouped_with_prev = [pos > 0 and sig_of[v] == sig_of[vehicle_ids[pos - 1]]
                         for pos, v in enumerate(vehicle_ids)]

    # the admissible remainder bound at position p charges each open
    # request its term there: its cheapest share among edges at positions
    # >= p (an edge's cost split evenly over its requests, so summing
    # per-request minima never overshoots), capped at the penalty; the
    # penalty when no such edge covers it
    term = [None] * n_veh + [dict.fromkeys(bit_of.values(), penalty)]
    covered = [0] * (n_veh + 1)  # requests some edge at position >= p covers
    # seats still reachable from position p on: each remaining vehicle can
    # absorb at most its largest incident trip, so any surplus of open
    # requests beyond this sum is guaranteed to pay the full penalty
    coverable = [0] * (n_veh + 1)
    ranked = [None] * (n_veh + 1)  # (term, bit) of covered requests, largest first
    step = [None] * n_veh  # (bit, its term at p + 1 minus at p) where they differ
    # per option, in walk order: its bound's own term (cost minus drop), its
    # menu index, edge, request bits, drop (the sum of their terms at p + 1)
    # and how many of them compete for seats from p + 1 on. A child's bound
    # is the node's cost plus terms at p + 1, plus that own term, plus a
    # seat term that is never negative, so a walk in this order may stop at
    # the first option whose bound without the seat term exceeds the limit
    options_at = [None] * n_veh
    for p in range(n_veh - 1, -1, -1):
        nxt, cov_next = term[p + 1], covered[p + 1]
        row, cov, widest = dict(nxt), cov_next, 0
        in_menu, options = {}, []  # in_menu: the menu's request bits, in menu order
        for i, (e, bits) in enumerate(menu_of[vehicle_ids[p]]):
            reqs, drop = e.requests, 0.0
            widest = max(widest, len(reqs))
            share = e.cost / len(reqs) if reqs else 0.0
            for rid in reqs:
                b = bit_of[rid]
                drop += nxt[b]
                in_menu[b] = None
                t = penalty if penalty < share else share
                if not cov & b or t < row[b]:
                    row[b] = t
                    cov |= b
            options.append((e.cost - drop, i, e, bits, drop, (bits & cov_next).bit_count()))
        options.sort()  # menu indices are distinct, so edges are never compared
        term[p], covered[p], coverable[p] = row, cov, coverable[p + 1] + widest
        options_at[p] = options
        # summed in menu order, so bounds do not depend on the walk order
        step[p] = tuple([(b, nxt[b] - row[b]) for b in in_menu if nxt[b] != row[b]])

    best: Optional[tuple[float, list, tuple[Edge, ...], int]] = None
    # prune a bound above this: bounds are summed in another order than
    # objectives, so an exact tie may round a few ulps above the incumbent
    limit = math.inf
    # stop a node's walk at a partial bound above this: it is summed in yet
    # another order, so it carries the same relative slack again
    stop = math.inf
    nodes = 0
    out_of_budget = False
    chosen: list[Edge] = []

    def dfs(pos: int, cost: float, served: int, t_here: float, start_idx: int):
        """Enter a node whose bound its parent checked; t_here sums the
        bound's terms at pos over the open requests."""
        nonlocal best, limit, stop, nodes, out_of_budget
        nodes += 1
        if nodes > budget:
            out_of_budget = True
            return
        if pos == n_veh:
            # the objective is summed in (request ids, vehicle id) order, for
            # bit-stable totals, and ties go to the smaller list of those
            # pairs; the edges fix the served set, so it is no part of the key
            ordered = sorted(chosen, key=lambda e: (e.requests, e.vehicle_id))
            obj = 0.0
            for e in ordered:
                obj += e.cost
            for _ in range(len(bit_of) - served.bit_count()):
                obj += penalty
            key = [(e.requests, e.vehicle_id) for e in ordered]
            if best is None or (obj, key) < (best[0], best[1]):
                best = (obj, key, tuple(ordered), served)
                limit = obj + 1e-9 * abs(obj)
                stop = limit + 1e-9 * abs(limit)
            return
        # bound each child here, from the terms at pos + 1: a node-constant
        # total minus the terms struck out by the option's own requests
        nxt = pos + 1
        open_bits = ~served
        t_next = t_here
        for b, d in step[pos]:
            if open_bits & b:
                t_next += d
        over = (open_bits & covered[nxt]).bit_count() - coverable[nxt]
        options = options_at[pos]
        next_grouped = nxt < n_veh and grouped_with_prev[nxt]
        # every option from start_idx on is charged as if passed in menu
        # order, whether bounded, skipped or left past the walk's stop
        nodes += len(options) - start_idx
        if nodes > budget:
            out_of_budget = True
            return
        # more open requests compete for seats from pos + 1 on than there
        # are seats: each one over costs at least the penalty minus the
        # largest term at pos + 1 among the open ones
        if over > 0:
            ranks = ranked[nxt]
            if ranks is None:
                ranks = ranked[nxt] = sorted(
                    ((t, b) for b, t in term[nxt].items() if covered[nxt] & b), reverse=True)
            top = 0
            while not open_bits & ranks[top][1]:
                top += 1
        base = cost + t_next
        children = []
        # options ascend in v, so once one is past the stop every later one
        # is too, whether or not it overlaps the served set
        for v, i, e, bits, drop, n_comp in options:
            if base + v > stop:
                break
            if bits & served or i < start_idx:
                continue
            bound = cost + e.cost + t_next - drop
            if over > n_comp:
                # an option holding the largest open term leaves the next
                k = top
                while bits & ranks[k][1] or not open_bits & ranks[k][1]:
                    k += 1
                bound += (over - n_comp) * (penalty - ranks[k][0])
            if bound <= limit:
                children.append((bound, i, e, bits, drop))
        # enter the most promising child first: a good early leaf lowers the
        # limit that prunes its siblings. Every optimal leaf is still
        # entered, so the order changes only the tree size. Ties go to menu
        # order; option indices are distinct, so edges are never compared
        children.sort()
        for bound, i, e, bits, drop in children:
            if bound > limit:
                continue
            chosen.append(e)
            dfs(nxt, cost + e.cost, served | bits, t_next - drop, i + 1 if next_grouped else 0)
            chosen.pop()
            if out_of_budget:
                return
        if vehicle_ids[pos] not in graph.vehicles_requiring_route:
            bound = base
            if over > 0:
                bound += over * (penalty - ranks[top][0])
            if bound <= limit:
                # an idle twin after a skipped twin must also skip
                dfs(nxt, cost, served, t_next, len(options) if next_grouped else 0)

    try:
        dfs(0, 0.0, 0, sum(term[0].values()), 0)
    finally:
        # dfs holds itself through its closure cell; dropping the name
        # breaks that cycle, so the menus, bound terms and graph records it
        # reaches are freed by reference counting, not by the cyclic collector
        del dfs
    if best is None and out_of_budget:
        raise AssignmentBudgetError("assignment search exhausted its budget with no incumbent")
    if best is None:
        raise StrandedRequestError(graph.vehicles_requiring_route)
    obj, _key, ordered, served = best
    ignored = frozenset(rid for rid, b in bit_of.items() if not served & b)
    # skipped options are charged in bulk, which can overshoot the budget
    return IlpSolution(ordered, ignored, obj, not out_of_budget, min(nodes, budget + 1))
