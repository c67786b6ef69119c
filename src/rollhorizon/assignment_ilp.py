"""Exact trip-vehicle assignment.

Minimizes summed route cost plus a per-request penalty for leaving a
request unserved, subject to: at most one route per vehicle (exactly one
for vehicles carrying passengers), each request in at most one chosen
trip, and no penalty allowed for requests the caller marks must-serve.
Solved by depth-first branch and bound over per-vehicle choices; the
penalty construction makes serving more requests always win, so the
solver maximizes served count and breaks ties by cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .rtv import Edge, RtvGraph


class StrandedRequestError(RuntimeError):
    """A must-serve request has no way to be covered; upstream bug."""

    def __init__(self, request_ids):
        self.request_ids = tuple(sorted(request_ids))
        super().__init__(f"must-serve requests with no covering edge: {self.request_ids}")


class AssignmentBudgetError(RuntimeError):
    """The search ran out of nodes with no assignment and no valid fallback."""


class UnprovenAssignmentWarning(RuntimeWarning):
    """The search ran out of nodes and returned a plan not proven optimal."""


@dataclass(frozen=True)
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


def canonical_objective(chosen: Iterable[Edge], ignored: Iterable[int],
                        penalty: float, graph: RtvGraph) -> float:
    """Accumulate the objective in a fixed order for bit-stable totals."""
    total = 0.0
    ordered = sorted(chosen, key=lambda e: (graph.trip_requests(e.trip_id), e.vehicle_id))
    for e in ordered:
        total += e.cost
    for _rid in sorted(ignored):
        total += penalty
    return total


def _fallback_incumbent(graph, must, penalty, solution_key):
    """Adopt the graph's carried-over assignment when the search found none.

    Returns a (objective, key, chosen, ignored) incumbent, or None when the
    graph carries no valid fallback.
    """
    positions = graph.fallback_assignment
    if not positions:
        if graph.vehicles_requiring_route or must:
            return None
        chosen: tuple = ()
        ignored = frozenset(graph.request_universe)
        obj = canonical_objective(chosen, ignored, penalty, graph)
        return (obj, solution_key(chosen, ignored), chosen, ignored)
    try:
        edges = [graph.edges[i] for i in positions]
    except IndexError:
        return None
    seen_vehicles = set()
    covered: set[int] = set()
    for e in edges:
        reqs = graph.trip_requests(e.trip_id)
        if e.vehicle_id in seen_vehicles or not covered.isdisjoint(reqs):
            return None
        seen_vehicles.add(e.vehicle_id)
        covered.update(reqs)
    if not set(graph.vehicles_requiring_route) <= seen_vehicles:
        return None
    if not must <= covered:
        return None
    ignored = frozenset(graph.request_universe - covered)
    obj = canonical_objective(edges, ignored, penalty, graph)
    return (obj, solution_key(edges, ignored), tuple(edges), ignored)


def solve_assignment(
    graph: RtvGraph,
    must_serve: Iterable[int] = (),
    budget: int = 2_000_000,
) -> IlpSolution:
    """Find the cost-minimal valid assignment of vehicles to trips.

    must_serve ids outside the graph's request universe are taken to be
    passengers already aboard; their delivery is enforced through the
    exactly-one-route rule for their vehicle rather than a variable here.
    Exceeding the node budget returns the incumbent flagged not proven
    optimal. Ties are broken deterministically, so results are
    reproducible. Vehicles with identical menus (same trips, costs and stop
    orders) are twins, and the search keeps one labeling of them: twins in
    id order take options in increasing menu position (cost, then trip
    request ids), and idle twins come after busy ones. Among the
    assignments so kept, the lexicographically smallest (trip request ids,
    vehicle id) edge set wins. A tie between two labelings of twins
    therefore goes to the one whose lower-id twin drives the cheaper trip,
    which need not be the smaller edge set.
    """
    penalty = compute_penalty(graph)
    universe = graph.request_universe
    must = frozenset(must_serve) & universe

    covering: dict[int, list[int]] = {rid: [] for rid in universe}
    for i, e in enumerate(graph.edges):
        for rid in graph.trip_requests(e.trip_id):
            covering[rid].append(i)
    stranded = sorted(rid for rid in must if not covering[rid])
    if stranded:
        raise StrandedRequestError(stranded)

    all_vehicles = sorted(
        {e.vehicle_id for e in graph.edges} | set(graph.vehicles_requiring_route)
    )
    edges_of: dict[int, list[Edge]] = {v: [] for v in all_vehicles}
    for e in graph.edges:
        edges_of[e.vehicle_id].append(e)
    for v in all_vehicles:
        edges_of[v].sort(key=lambda e: (e.cost, graph.trip_requests(e.trip_id)))

    # vehicles with identical menus (same trips, costs and stop orders, e.g.
    # an idle fleet parked at one depot) are interchangeable; the search
    # keeps only the labeling where they take options in increasing menu
    # position. That is not always the labeling with the smallest solution
    # key: with menu (64,) before (51,), twins 0 and 1 get (64,) and (51,)
    # although ((51,), 0), ((64,), 1) ties it with a smaller key
    def menu_signature(v):
        rows = []
        for e in edges_of[v]:
            seq = None
            if e.route is not None:
                seq = tuple((k, r.id) for k, r in e.route.sequence)
            rows.append((e.trip_id, e.cost, seq))
        return (v in graph.vehicles_requiring_route, tuple(rows))

    sig_of = {v: menu_signature(v) for v in all_vehicles}
    group_rank: dict = {}
    for v in sorted(all_vehicles, key=lambda v: (len(edges_of[v]), v)):
        group_rank.setdefault(sig_of[v], len(group_rank))
    # branch on the narrowest choice first; the answer does not depend on
    # the branching order, only the tree size does
    vehicle_ids = sorted(
        all_vehicles, key=lambda v: (len(edges_of[v]), group_rank[sig_of[v]], v)
    )
    n_veh_total = len(vehicle_ids)
    grouped_with_prev = [
        pos > 0 and sig_of[vehicle_ids[pos]] == sig_of[vehicle_ids[pos - 1]]
        for pos in range(n_veh_total)
    ]

    # cheapest per-request share among edges at vehicle position >= p, used
    # as an admissible remainder bound: an edge's cost is split evenly over
    # its requests, so summing per-request minima never overshoots
    n_veh = len(vehicle_ids)
    share_from: list[dict[int, float]] = [dict() for _ in range(n_veh + 1)]
    for p in range(n_veh - 1, -1, -1):
        cur = dict(share_from[p + 1])
        for e in edges_of[vehicle_ids[p]]:
            reqs = graph.trip_requests(e.trip_id)
            if not reqs:
                continue
            share = e.cost / len(reqs)
            for rid in reqs:
                if rid not in cur or share < cur[rid]:
                    cur[rid] = share
        share_from[p] = cur

    # seats still reachable from position p on: each remaining vehicle can
    # absorb at most its largest incident trip, so any surplus of open
    # requests beyond this sum is guaranteed to pay the full penalty
    coverable_from = [0] * (n_veh + 1)
    for p in range(n_veh - 1, -1, -1):
        widest = max(
            (len(graph.trip_requests(e.trip_id)) for e in edges_of[vehicle_ids[p]]),
            default=0,
        )
        coverable_from[p] = coverable_from[p + 1] + widest

    options_of: dict[int, list[tuple[Edge, frozenset[int]]]] = {
        v: [(e, frozenset(graph.trip_requests(e.trip_id))) for e in edges_of[v]]
        for v in vehicle_ids
    }

    def solution_key(chosen, ignored):
        return (
            tuple(sorted((graph.trip_requests(e.trip_id), e.vehicle_id) for e in chosen)),
            tuple(sorted(ignored)),
        )

    best: Optional[tuple[float, tuple, tuple[Edge, ...], frozenset]] = None
    nodes = 0
    out_of_budget = False

    def lower_bound(pos: int, cost: float, served: frozenset) -> Optional[float]:
        bound = cost
        shares = share_from[pos]
        competing = 0  # open requests some remaining vehicle could still take
        optional_competing = 0
        max_capped = 0.0  # largest capped share among the optional ones
        for rid in universe:
            if rid in served:
                continue
            share = shares.get(rid)
            if rid in must:
                if share is None:
                    return None  # cannot be covered anymore on this branch
                bound += share
                competing += 1
            elif share is None:
                bound += penalty
            else:
                capped = share if share < penalty else penalty
                bound += capped
                competing += 1
                optional_competing += 1
                if capped > max_capped:
                    max_capped = capped
        overflow = competing - coverable_from[pos]
        if overflow > 0:
            if overflow > optional_competing:
                return None  # a must-serve request would be crowded out
            # overflow requests go unserved; each costs at least the gap
            # between the penalty and the largest capped share
            bound += overflow * (penalty - max_capped)
        return bound

    def dfs(pos: int, cost: float, served: frozenset, chosen: list[Edge],
            start_idx: int = 0):
        nonlocal best, nodes, out_of_budget
        if out_of_budget:
            return
        nodes += 1
        if nodes > budget:
            out_of_budget = True
            return
        if pos == n_veh:
            ignored = universe - served
            if must & ignored:
                return
            obj = canonical_objective(chosen, ignored, penalty, graph)
            key = solution_key(chosen, ignored)
            if best is None or (obj, key) < (best[0], best[1]):
                best = (obj, key, tuple(chosen), frozenset(ignored))
            return
        lb = lower_bound(pos, cost, served)
        if lb is None or (best is not None and lb > best[0]):
            return
        # preview each child's share bound without paying for the child
        # call: the bound is a node-constant total minus the terms struck
        # out by the option's own requests
        shares_next = share_from[pos + 1]
        t_total = 0.0
        term: dict[int, float] = {}
        blockers = []  # must-serve ids only this vehicle can still cover
        for rid in universe:
            if rid in served:
                continue
            share = shares_next.get(rid)
            if rid in must:
                if share is None:
                    blockers.append(rid)
                    continue
                val = share
            elif share is None:
                val = penalty
            else:
                val = share if share < penalty else penalty
            term[rid] = val
            t_total += val
        vid = vehicle_ids[pos]
        options = options_of[vid]
        next_grouped = pos + 1 < n_veh and grouped_with_prev[pos + 1]
        for i in range(start_idx, len(options)):
            # option scans dominate the work here, so they spend budget too
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return
            e, reqs = options[i]
            if not served.isdisjoint(reqs):
                continue
            if blockers and not reqs.issuperset(blockers):
                continue
            if best is not None:
                drop = 0.0
                for rid in reqs:
                    drop += term.get(rid, 0.0)
                if cost + e.cost + t_total - drop > best[0]:
                    continue
            chosen.append(e)
            dfs(pos + 1, cost + e.cost, served | reqs, chosen,
                i + 1 if next_grouped else 0)
            chosen.pop()
            if out_of_budget:
                return
        if vid not in graph.vehicles_requiring_route and not blockers:
            if best is None or cost + t_total <= best[0]:
                # an idle twin after a skipped twin must also skip
                dfs(pos + 1, cost, served, chosen,
                    len(options) if next_grouped else 0)

    dfs(0, 0.0, frozenset(), [])
    if best is None and out_of_budget:
        best = _fallback_incumbent(graph, must, penalty, solution_key)
        if best is None:
            raise AssignmentBudgetError(
                "assignment search exhausted its budget with no incumbent"
            )
    if best is None:
        raise StrandedRequestError(sorted(must))
    obj, _key, chosen, ignored = best
    ordered = tuple(
        sorted(chosen, key=lambda e: (graph.trip_requests(e.trip_id), e.vehicle_id))
    )
    return IlpSolution(ordered, ignored, obj, not out_of_budget, nodes)
