import gc
import hashlib
import itertools
import random

import pytest

import rollhorizon.engine as engine
from collector import collector_off
from instgen import matrix_instance, random_instance, random_rtv_graph
from oracles import enumerate_assignments
from rollhorizon.assignment_ilp import (
    AssignmentBudgetError,
    StrandedRequestError,
    compute_penalty,
    solve_assignment,
)
from rollhorizon.corpus import corpus_config, make_instance
from rollhorizon.rtv import Edge, RtvGraph


def graph_of(edge_specs, n_req, requiring=()):
    """Hand-build a graph; edge_specs is [(trip_set_or_None, vid, cost)]."""
    edges = tuple(
        Edge(() if s is None else tuple(sorted(s)), vid, cost, None)
        for s, vid, cost in edge_specs
    )
    return RtvGraph(
        edges=edges,
        request_universe=frozenset(range(n_req)),
        vehicles_requiring_route=frozenset(requiring),
    )


def oracle_edges(graph):
    return [
        (frozenset(e.requests), e.vehicle_id, e.cost)
        for e in graph.edges
    ]


def test_penalty_dominates_any_single_assignment():
    g = graph_of(
        [({0}, 0, 4.0), ({1}, 0, 6.0), ({0, 1}, 0, 9.0), ({0}, 1, 3.0)],
        n_req=2,
    )
    # one plus the sum over vehicles of their costliest edge
    assert compute_penalty(g) == 1.0 + 9.0 + 3.0


def test_prefers_serving_over_penalty():
    g = graph_of(
        [({0}, 0, 5.0), ({1}, 1, 50.0)],
        n_req=2,
    )
    sol = solve_assignment(g)
    assert sol.ignored_requests == frozenset()
    assert {(e.requests, e.vehicle_id) for e in sol.chosen_edges} == {((0,), 0), ((1,), 1)}
    assert sol.proven_optimal


def test_disjointness_forces_a_choice():
    # both vehicles can only serve request 0; exactly one may
    g = graph_of(
        [({0}, 0, 5.0), ({0}, 1, 4.0)],
        n_req=1,
    )
    sol = solve_assignment(g)
    assert len(sol.chosen_edges) == 1
    assert sol.chosen_edges[0].vehicle_id == 1
    assert sol.objective_value == 4.0


def test_loaded_vehicles_with_no_joint_assignment_are_named():
    # vehicles 3 and 5 carry passengers, so each needs a route, but their
    # only edges share request 0: no assignment gives both a route
    g = graph_of([({0}, 3, 1.0), ({0}, 5, 2.0), ({1}, 4, 1.0)], n_req=2,
                 requiring=[5, 3])
    with pytest.raises(StrandedRequestError, match=r"vehicles \[3, 5\]") as exc:
        solve_assignment(g)
    assert exc.value.vehicle_ids == (3, 5)


def test_requiring_vehicle_never_left_idle():
    # vehicle 0 must take a route even though skipping would cost less
    g = graph_of(
        [({0}, 0, 8.0), (None, 0, 2.0), ({0}, 1, 1.0)],
        n_req=1,
        requiring=[0],
    )
    sol = solve_assignment(g)
    v0 = [e for e in sol.chosen_edges if e.vehicle_id == 0]
    assert len(v0) == 1
    # delivery-only is enough to satisfy the requirement
    assert v0[0].requests == ()
    assert {e.vehicle_id for e in sol.chosen_edges} == {0, 1}


def test_matches_exhaustive_enumeration_on_random_graphs():
    rng = random.Random(60601)
    for trial in range(200):
        graph = random_rtv_graph(rng)
        penalty = compute_penalty(graph)
        want = enumerate_assignments(
            oracle_edges(graph),
            graph.request_universe,
            sorted({e.vehicle_id for e in graph.edges}
                   | set(graph.vehicles_requiring_route)),
            penalty,
            graph.vehicles_requiring_route,
        )
        try:
            got = solve_assignment(graph)
        except StrandedRequestError:
            got = None
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got.objective_value == want[0]  # identical float, same order
        want_served = sum(len(s) for s, _v, _c in want[1])
        got_served = len(graph.request_universe) - len(got.ignored_requests)
        assert got_served == want_served
        assert got.proven_optimal


def tie_prone_graph(rng):
    """A graph of 3-7 requests, 2-4 vehicles, trips of 1-3 requests and up
    to 24 edges, priced k/3, k/7, k/9 or k/10 (one denominator per graph):
    such costs sum to exact ties that round differently in different
    orders, and requests often outnumber seats."""
    n_req, n_veh = rng.randint(3, 7), rng.randint(2, 4)
    sets = [frozenset(c) for size in (1, 2, 3)
            for c in itertools.combinations(range(n_req), size)]
    combos = [(s, v) for s in sets + [None] for v in range(n_veh)]
    den = rng.choice((3, 7, 9, 10))
    specs = [(s, v, rng.randint(1, 10) / den)
             for s, v in rng.sample(combos, rng.randint(2, min(24, len(combos))))]
    with_edges = sorted({v for _s, v, _c in specs})
    requiring = [v for v in with_edges if rng.random() < 0.25]
    return graph_of(specs, n_req, requiring)


def has_twins(g):
    menus = [
        (v in g.vehicles_requiring_route,
         sorted((e.requests, e.cost) for e in g.edges if e.vehicle_id == v))
        for v in {e.vehicle_id for e in g.edges}
    ]
    return any(a == b for a, b in itertools.combinations(menus, 2))


def test_exact_ties_are_not_pruned_by_rounding():
    # a bound summed in another order than the objective can round an exact
    # tie a few ulps above the incumbent; the search must still reach the
    # tied leaf with the smaller key, and never certify a larger objective
    rng = random.Random(1)
    checked = 0
    for _trial in range(2000):
        g = tie_prone_graph(rng)
        if has_twins(g):
            continue
        want = enumerate_assignments(
            oracle_edges(g), g.request_universe, sorted({e.vehicle_id for e in g.edges}),
            compute_penalty(g), g.vehicles_requiring_route,
        )
        if want is None:
            with pytest.raises(StrandedRequestError):
                solve_assignment(g)
            continue
        got = solve_assignment(g)
        assert got.proven_optimal
        assert got.objective_value == want[0]
        assert sorted((e.requests, e.vehicle_id, e.cost)
                      for e in got.chosen_edges) == sorted(
            (tuple(sorted(s)), v, c) for s, v, c in want[1])
        checked += 1
    assert checked > 1000


def tree_records(seed=2029, n_graphs=120):
    """What each solve of seeded random, tie-prone and twinned graphs returns
    at the full budget and at budgets 7, 50 and 500: the nodes it spent,
    whether it proved, its objective and its edges, or the error it raised.
    The twinned graphs copy a tie-prone graph's vehicle 0 menu onto a new
    vehicle, so the twin rule starts later twins past a menu position."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(n_graphs):
        graphs.append(random_rtv_graph(rng, max_edges=16))
        g = tie_prone_graph(rng)
        graphs.append(g)
        twin = 1 + max(e.vehicle_id for e in g.edges)
        copies = tuple(Edge(e.requests, twin, e.cost, None)
                       for e in g.edges if e.vehicle_id == 0)
        graphs.append(RtvGraph(g.edges + copies, g.request_universe,
                               g.vehicles_requiring_route))
    records = []
    for g in graphs:
        for budget in (2_000_000, 7, 50, 500):
            try:
                sol = solve_assignment(g, budget)
            except (StrandedRequestError, AssignmentBudgetError) as e:
                records.append(type(e).__name__)
                continue
            records.append((sol.nodes_explored, sol.proven_optimal, sol.objective_value,
                            [(e.requests, e.vehicle_id) for e in sol.chosen_edges]))
    return records


# recorded from the search that bounded every available option in menu
# order; a solve cut before any leaf records AssignmentBudgetError
TREE_NODES = 49295
TREE_DIGEST = "69b6ae5d00f9d38957401e9104b4c77c44762340cbbd1e5b27db7be8b2815d02"


def test_search_tree_is_pinned():
    # every solve enters the same nodes in the same order as the search
    # that bounded each option in menu order, budget-cut solves included.
    # Tie-prone costs make a child's bound land on the incumbent's
    # objective exactly, where a walk in bound order must not stop early
    # on a few ulps of rounding
    records = tree_records()
    assert len(records) == 1440
    assert sum(r[0] for r in records if isinstance(r, tuple)) == TREE_NODES
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == TREE_DIGEST


def test_served_count_lexicographically_first():
    # cheap: ignore both (penalty 2x small?) - no: penalty construction
    # guarantees serving wins; check with wildly expensive edges
    g = graph_of(
        [({0}, 0, 1000.0), ({1}, 1, 2000.0)],
        n_req=2,
    )
    sol = solve_assignment(g)
    assert sol.ignored_requests == frozenset()


def test_deterministic_tie_break():
    # two equal-cost ways to serve request 0
    g = graph_of(
        [({0}, 0, 5.0), ({0}, 1, 5.0)],
        n_req=1,
    )
    a = solve_assignment(g)
    b = solve_assignment(g)
    assert a == b
    assert a.chosen_edges[0].vehicle_id == 0  # smallest (trip, vehicle) pair


def test_twin_tie_goes_to_menu_order_not_smallest_key():
    # vehicles 0 and 1 have identical menus, {1} before {0} by cost, so the
    # search keeps only the labeling where vehicle 0 takes {1}; the tied
    # relabeling ({0} on 0, {1} on 1) has the smaller key and is not chosen
    g = graph_of(
        [({0}, 0, 5.0), ({1}, 0, 3.0), ({0}, 1, 5.0), ({1}, 1, 3.0)],
        n_req=2,
    )
    sol = solve_assignment(g)
    assert sol.proven_optimal
    assert sol.objective_value == 8.0
    got = [(e.requests, e.vehicle_id) for e in sol.chosen_edges]
    assert got == [((0,), 1), ((1,), 0)]
    # with one more edge on vehicle 1 the menus differ, there are no twins,
    # and the smallest key wins the same tie
    g = graph_of(
        [({0}, 0, 5.0), ({1}, 0, 3.0), ({0}, 1, 5.0), ({1}, 1, 3.0), ({2}, 1, 9.0)],
        n_req=3,
    )
    sol = solve_assignment(g)
    got = [(e.requests, e.vehicle_id) for e in sol.chosen_edges]
    assert got == [((0,), 0), ((1,), 1)]


def test_twins_need_the_same_stop_slots():
    # both vehicles list {1, 2} before {0} by cost; with the same stop slots
    # they are twins and vehicle 0 takes the menu's first trip, while other
    # slots for vehicle 1 (another stop order) make the menus differ, and
    # the smallest key wins the same tie
    def solve(slots_of_1):
        edges = (Edge((0,), 0, 5.0, None, (0, 1)), Edge((1, 2), 0, 3.0, None, (2, 4, 3, 5)),
                 Edge((0,), 1, 5.0, None, (0, 1)), Edge((1, 2), 1, 3.0, None, slots_of_1))
        g = RtvGraph(edges, frozenset(range(3)), frozenset())
        sol = solve_assignment(g)
        assert sol.proven_optimal and sol.objective_value == 8.0
        return [(e.requests, e.vehicle_id) for e in sol.chosen_edges]

    assert solve((2, 4, 3, 5)) == [((0,), 1), ((1, 2), 0)]
    assert solve((2, 4, 5, 3)) == [((0,), 0), ((1, 2), 1)]


def blocking_graph():
    # vehicle 0 reaches all three requests, so it branches first, and
    # enters {0, 2} first, its child of lowest bound; that blocks vehicle
    # 1's only trip. The first leaf costs 7 budget units (the root and its
    # three option scans, the node below and its one scan, the leaf) and
    # leaves an incumbent ({0, 2} served, 1 ignored); entering the next
    # child, {0}, then exhausts budget 7, so the incumbent survives
    # uncertified
    return graph_of(
        [({0, 2}, 0, 1.0), ({0}, 0, 1.5), ({1}, 0, 4.0), ({1, 2}, 1, 2.0)],
        n_req=3,
    )


def test_budget_exhaustion_not_claimed_optimal():
    g = blocking_graph()
    sol = solve_assignment(g, budget=7)
    assert not sol.proven_optimal
    assert sol.objective_value == 1.0 + compute_penalty(g)
    assert sol.ignored_requests == frozenset({1})
    full = solve_assignment(g)
    assert full.proven_optimal
    assert full.ignored_requests == frozenset()


def skipping_graph(requiring=()):
    # vehicle 0 reaches as many requests as vehicle 1 with a shorter menu,
    # so it branches first; it takes {0, 1, 2}, and below it vehicle 1
    # passes four options, all overlapping the served set. Each option
    # passed in menu order spends budget although the search skips it, so
    # budget 5 runs out there, before any leaf: root, its option and the
    # node below spend three, and the four skipped options overrun it.
    # Without that charge the search would reach its leaf at the fourth
    return graph_of(
        [({0, 1, 2}, 0, 1.0), ({0, 1}, 1, 1.0), ({0, 2}, 1, 1.0), ({0}, 1, 2.0),
         ({1}, 1, 5.0)],
        n_req=3,
        requiring=requiring,
    )


def test_skipped_options_spend_budget():
    with pytest.raises(AssignmentBudgetError, match="no incumbent"):
        solve_assignment(skipping_graph(), budget=5)
    # the dive's whole charge, one unit per vehicle and per edge plus the
    # leaf, reaches that leaf
    assert solve_assignment(skipping_graph(), budget=8).ignored_requests == frozenset()


def test_unwound_searches_leave_no_cyclic_garbage():
    # a search cut short by its budget drops its recursive closure on the
    # way out, as a completed one does: whether it keeps its incumbent or
    # raises for want of one
    outcomes = []
    left = []
    with collector_off():
        sol = solve_assignment(blocking_graph(), budget=7)
        outcomes.append(sol.proven_optimal or sol.ignored_requests)
        left.append(gc.collect())
        try:
            solve_assignment(skipping_graph(), budget=5)
        except AssignmentBudgetError:
            outcomes.append("raised")
        left.append(gc.collect())
        try:
            solve_assignment(skipping_graph(requiring={1}), budget=5)
        except AssignmentBudgetError:
            outcomes.append("raised")
        left.append(gc.collect())
    assert outcomes == [frozenset({1}), "raised", "raised"]
    assert left == [0, 0, 0]


def test_first_dive_reaches_a_leaf_on_live_graphs(monkeypatch):
    # the graphs an engine run builds give every vehicle a child at every
    # node of the first dive: one needing no route may go idle, and one
    # carrying passengers has its delivery-only edge. So a budget of one
    # unit per vehicle and per edge, plus the leaf, always returns a plan
    graphs = []
    real = engine.build_rtv_graph

    def record(*args):
        graphs.append(real(*args))
        return graphs[-1]

    monkeypatch.setattr(engine, "build_rtv_graph", record)
    engine.run(make_instance(101), corpus_config(rh_factor=2))
    for seed in (6, 10, 16, 19):  # capacities 4, 4, 4 and 3
        rng = random.Random(seed)
        inst, config = random_instance(rng)
        engine.run(inst, config)
        engine.run(matrix_instance(inst, rng), config)
    for graph in graphs:
        vehicles = {e.vehicle_id for e in graph.edges} | graph.vehicles_requiring_route
        solve_assignment(graph, budget=len(vehicles) + len(graph.edges) + 1)
    assert len(graphs) >= 100
    assert sum(bool(graph.vehicles_requiring_route) for graph in graphs) >= 100
