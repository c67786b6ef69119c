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
own share of a child's bound, so a node walks the options still disjoint
from the served set in bound order and stops at the first one past the
incumbent; the options past it cost the node no work, though its budget
is charged as if it passed every option in menu order. Vehicles that
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
from typing import Iterable, Optional

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


def canonical_objective(chosen: Iterable[Edge], ignored: Iterable[int], penalty: float) -> float:
    """Accumulate the objective in a fixed order for bit-stable totals."""
    total = 0.0
    ordered = sorted(chosen, key=lambda e: (e.requests, e.vehicle_id))
    for e in ordered:
        total += e.cost
    for _rid in sorted(ignored):
        total += penalty
    return total


def _solution_key(chosen, ignored):
    """The tie-break key: the sorted (request ids, vehicle id) pairs, then
    the sorted ignored request ids."""
    return (tuple(sorted((e.requests, e.vehicle_id) for e in chosen)), tuple(sorted(ignored)))


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
    backtrack. Ties are broken deterministically,
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
    return another incumbent. A node walks its options in bound order and
    stops at the first whose bound, before its never negative seat term,
    exceeds the incumbent's objective by more than the pruning slack
    again, so no child the limit would keep is left unwalked.
    nodes_explored counts every node entered plus every option from the
    node's first menu position on, as if it passed them all in menu
    order: those skipped for overlapping the served set and those past
    the walk's stop included. A node charges its options before entering
    any child, and the budget caps that count.
    """
    penalty = compute_penalty(graph)
    universe = graph.request_universe

    all_vehicles = sorted(
        {e.vehicle_id for e in graph.edges} | set(graph.vehicles_requiring_route)
    )
    # requests become bits, ordered by id, so request sets are ints; a menu
    # row is (edge, its request ids, their bits), in menu order
    bit_of = {rid: 1 << k for k, rid in enumerate(sorted(universe))}
    menu_of: dict[int, list] = {v: [] for v in all_vehicles}
    for e in graph.edges:
        bits = 0
        for rid in e.requests:
            bits |= bit_of[rid]
        menu_of[e.vehicle_id].append((e, e.requests, bits))
    reach_of = {}  # the requests the vehicle's menu covers
    for v, menu in menu_of.items():
        menu.sort(key=lambda row: (row[0].cost, row[1]))
        reach = 0
        for row in menu:
            reach |= row[2]
        reach_of[v] = reach

    # vehicles with identical menus (same trips, costs and stop orders, e.g.
    # an idle fleet parked at one depot) are interchangeable; the search
    # keeps only the labeling where they take options in increasing menu
    # position. That is not always the labeling with the smallest solution
    # key: with menu (64,) before (51,), twins 0 and 1 get (64,) and (51,)
    # although ((51,), 0), ((64,), 1) ties it with a smaller key. An edge's
    # stop slots stand for its stop order: within one graph they map one to one
    def menu_signature(v):
        rows = tuple([(e.requests, e.cost, e.slots) for e, _reqs, _bits in menu_of[v]])
        return (v in graph.vehicles_requiring_route, rows)

    sig_of = {v: menu_signature(v) for v in all_vehicles}
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
    grouped_with_prev = [
        pos > 0 and sig_of[vehicle_ids[pos]] == sig_of[vehicle_ids[pos - 1]]
        for pos in range(n_veh)
    ]

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
    touched = [0] * n_veh  # requests the vehicle at p can take
    holding = [None] * n_veh  # bit -> bits of the options holding it
    # per option, in walk order: its bound's own term (cost minus drop), its
    # menu index, edge, request bits, drop (the sum of their terms at p + 1)
    # and how many of them compete for seats from p + 1 on. A child's bound
    # is the node's cost plus terms at p + 1, plus that own term, plus a
    # seat term that is never negative, so a walk in this order may stop at
    # the first option whose bound without the seat term exceeds the limit
    options_at = [None] * n_veh
    # for a later twin: menu index -> bits of the options at or past it
    from_index = [None] * n_veh
    for p in range(n_veh - 1, -1, -1):
        nxt, cov_next = term[p + 1], covered[p + 1]
        row, cov, widest = dict(nxt), cov_next, 0
        hold, options = {}, []
        for i, (e, reqs, bits) in enumerate(menu_of[vehicle_ids[p]]):
            drop = 0.0
            if len(reqs) > widest:
                widest = len(reqs)
            share = e.cost / len(reqs) if reqs else 0.0
            for rid in reqs:
                b = bit_of[rid]
                drop += nxt[b]
                hold[b] = 0  # keys in menu order, the order step sums its terms in
                t = penalty if penalty < share else share
                if not cov & b or t < row[b]:
                    row[b] = t
                    cov |= b
            options.append((e.cost - drop, i, e, bits, drop, (bits & cov_next).bit_count()))
        options.sort()  # menu indices are distinct, so edges are never compared
        for k, (_v, _i, e, _b, _d, _n) in enumerate(options):
            for rid in e.requests:
                hold[bit_of[rid]] |= 1 << k
        if grouped_with_prev[p]:
            at_or_past = [0] * (len(options) + 1)
            for k, option in enumerate(options):
                at_or_past[option[1]] = 1 << k
            for i in range(len(options) - 1, -1, -1):
                at_or_past[i] |= at_or_past[i + 1]
            from_index[p] = at_or_past
        term[p], covered[p], coverable[p] = row, cov, coverable[p + 1] + widest
        holding[p], options_at[p] = hold, options
        touched[p] = sum(hold)
        step[p] = tuple([(b, nxt[b] - row[b]) for b in hold if nxt[b] != row[b]])

    best: Optional[tuple[float, tuple, tuple[Edge, ...], frozenset]] = None
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
            ignored = frozenset(rid for rid, b in bit_of.items() if not served & b)
            obj = canonical_objective(chosen, ignored, penalty)
            key = _solution_key(chosen, ignored)
            if best is None or (obj, key) < (best[0], best[1]):
                best = (obj, key, tuple(chosen), ignored)
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
        competing = open_bits & covered[nxt]
        over = competing.bit_count() - coverable[nxt]
        # the options from start_idx on that are disjoint from served
        hold = holding[pos]
        options = options_at[pos]
        avail = from_index[pos][start_idx] if start_idx else (1 << len(options)) - 1
        m = served & touched[pos]
        while m:
            b = m & -m
            avail &= ~hold[b]
            m ^= b
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
        while avail:
            k = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            v, i, e, bits, drop, n_comp = options[k]
            if base + v > stop:
                break
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
    obj, _key, chosen, ignored = best
    ordered = tuple(sorted(chosen, key=lambda e: (e.requests, e.vehicle_id)))
    # skipped options are charged in bulk, which can overshoot the budget
    return IlpSolution(ordered, ignored, obj, not out_of_budget, min(nodes, budget + 1))
