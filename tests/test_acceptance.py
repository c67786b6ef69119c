"""End-to-end acceptance gates for the solver as a whole.

Each test prints one [acceptance] PASS/FAIL line with its headline
numbers, outside pytest's capture so the scorecard survives in any log.
Budgets and tolerances are pinned in the tests; a budget miss is a
failure, not a skip.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from instgen import (
    random_instance,
    random_request,
    random_rtv_graph,
    tiny_instance,
)
from oracles import (
    brute_force_best_route,
    coverage_violations,
    enumerate_assignments,
    global_best_service,
    record_violations,
    route_violations,
)
from rollhorizon.assignment_ilp import (
    StrandedRequestError,
    compute_penalty,
    solve_assignment,
)
from rollhorizon.cli import _setup
from rollhorizon.corpus import CORPUS_SEEDS, corpus_config, make_instance
from rollhorizon.engine import run
from rollhorizon.instance_io import write_report
from rollhorizon.model import Location, SolverConfig
from rollhorizon.routing import PlanStart, best_route_exhaustive, best_route_insertion
from rollhorizon.travel import EuclideanTravel
from rollhorizon.window import batch_partition_check, coverage_end, window_processing


@pytest.fixture
def announce(capsys):
    """One visible PASS/FAIL line per criterion, then the real assert."""

    def _p(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"{name}: {detail}"

    return _p


def test_random_runs_respect_every_service_constraint(announce):
    budget_s = 120.0
    t0 = time.perf_counter()
    bad: list[str] = []
    n_requests = n_served = 0
    for seed in range(200):
        rng = random.Random(seed)
        inst, config = random_instance(rng, max_requests=50, max_vehicles=6)
        report = run(inst, config)
        by_id = {r.id: r for r in inst.requests}
        depots = {v.id: v.depot for v in inst.vehicles}
        for route in report.routes:
            bad += [f"seed {seed}: {v}" for v in route_violations(
                route, by_id, depots[route.vehicle_id], inst.travel, config)]
        ids = sorted(r.request_id for r in report.records)
        if ids != sorted(by_id):
            bad.append(f"seed {seed}: records do not cover the request set")
        for rec in report.records:
            bad += [f"seed {seed}: {v}" for v in record_violations(rec, by_id, config)]
        bad += [f"seed {seed}: {v}"
                for v in coverage_violations(report.routes, report.records)]
        n_requests += len(report.records)
        n_served += sum(1 for r in report.records if r.served)
    wall = time.perf_counter() - t0
    detail = (f"200 runs, {n_requests} requests, {n_served} served, "
              f"{len(bad)} violations, {wall:.1f}s of {budget_s:.0f}s")
    if bad:
        detail += f"; first: {bad[0]}"
    announce("every route and record within limits", not bad and wall < budget_s, detail)


def test_assignment_search_matches_exhaustive_enumeration(announce):
    budget_s = 60.0
    t0 = time.perf_counter()
    bad: list[str] = []
    solvable = 0
    for trial in range(100):
        rng = random.Random(10_000 + trial)
        graph, must = random_rtv_graph(rng)
        penalty = compute_penalty(graph)
        edges = [(frozenset(graph.trip_requests(e.trip_id)), e.vehicle_id, e.cost)
                 for e in graph.edges]
        want = enumerate_assignments(
            edges,
            graph.request_universe,
            sorted({e.vehicle_id for e in graph.edges}
                   | set(graph.vehicles_requiring_route)),
            must,
            penalty,
            graph.vehicles_requiring_route,
        )
        try:
            got = solve_assignment(graph, must_serve=must)
        except StrandedRequestError:
            got = None
        if (want is None) != (got is None):
            bad.append(f"trial {trial}: feasibility verdicts disagree")
            continue
        if want is None:
            continue
        solvable += 1
        want_served = sum(len(s) for s, _v, _c in want[1])
        got_served = len(graph.request_universe) - len(got.ignored_requests)
        if got.objective_value != want[0]:
            bad.append(f"trial {trial}: objective {got.objective_value} != {want[0]}")
        elif got_served != want_served:
            bad.append(f"trial {trial}: served {got_served} != {want_served}")
        elif not got.proven_optimal:
            bad.append(f"trial {trial}: optimum not certified")
    wall = time.perf_counter() - t0
    detail = (f"100 graphs, {solvable} solvable, {len(bad)} mismatches, "
              f"{wall:.1f}s of {budget_s:.0f}s")
    if bad:
        detail += f"; first: {bad[0]}"
    announce("assignment equals exhaustive enumeration",
             not bad and wall < budget_s, detail)


def test_route_search_matches_permutation_brute_force(announce):
    travel = EuclideanTravel(1.0)
    bad: list[str] = []
    feasible = inserted = 0
    for trial in range(100):
        rng = random.Random(20_000 + trial)
        area = rng.uniform(3.0, 8.0)
        config = SolverConfig(
            horizon=3600,
            step=600,
            max_wait=rng.randrange(300, 1201, 60),
            max_delay=rng.randrange(300, 1501, 60),
            dwell=rng.choice([0, 30]),
            fleet_size=1,
            capacity=rng.randint(1, 3),
        )
        n_new = rng.randint(1, 3)
        n_onboard = rng.randint(0, 2)
        reqs = [random_request(rng, rid, area, 1800, travel) for rid in range(n_new)]
        onboard = [random_request(rng, 100 + k, area, 1800, travel)
                   for k in range(n_onboard)]
        by_id = {r.id: r for r in reqs + onboard}
        start = PlanStart(
            plan_location=Location(rng.uniform(0, area), rng.uniform(0, area)),
            plan_time=rng.randint(0, 600),
            onboard=frozenset(r.id for r in onboard),
        )
        got = best_route_exhaustive(start, reqs, travel, config, requests_by_id=by_id)
        want = brute_force_best_route(
            start.plan_location, start.plan_time,
            [r.id for r in reqs], [r.id for r in onboard],
            by_id, travel, config,
        )
        if (got is None) != (want is None):
            bad.append(f"trial {trial}: feasibility verdicts disagree")
            continue
        if got is None:
            continue
        feasible += 1
        if got.total_distance != want[0] or tuple(got.stops) != tuple(want[2]):
            bad.append(f"trial {trial}: {got.total_distance} != {want[0]} "
                       "or stops differ")
            continue
        # the one-request insertion heuristic may only ever do worse
        base = best_route_exhaustive(start, reqs[:-1], travel, config,
                                     requests_by_id=by_id)
        if base is None:
            continue
        ins = best_route_insertion(start, base, reqs[-1], travel, config)
        if ins is None:
            continue
        inserted += 1
        if ins.total_distance < got.total_distance - 1e-9:
            bad.append(f"trial {trial}: insertion beat the exact search")
    detail = (f"100 trials, {feasible} feasible, {inserted} insertion comparisons, "
              f"{len(bad)} mismatches")
    if bad:
        detail += f"; first: {bad[0]}"
    announce("route search equals permutation brute force", not bad, detail)


def test_grid_batches_partition_the_request_stream(announce):
    bad: list[str] = []
    covered = 0
    for trial in range(50):
        rng = random.Random(30_000 + trial)
        for rh in (0, 1, 2, 3):
            inst, config = random_instance(rng, max_requests=40, rh_choices=(rh,))
            batches = [window_processing(t, inst.requests, config)
                       for t in range(0, config.horizon, config.step)]
            end = coverage_end(config)
            in_scope = [r for r in inst.requests if r.desired_pickup_time <= end]
            bad += [f"trial {trial} rh={rh}: {m}"
                    for m in batch_partition_check(batches, in_scope)]
            # nothing outside the guarantee may be batched twice either
            bad += [f"trial {trial} rh={rh}: {m}"
                    for m in batch_partition_check(batches, inst.requests)
                    if "batched at both" in m]
            covered += len(in_scope)
    detail = f"200 grids, {covered} covered requests, {len(bad)} partition breaks"
    if bad:
        detail += f"; first: {bad[0]}"
    announce("batches partition the request stream", not bad, detail)


def test_committed_stops_are_never_rewritten(announce):
    bad: list[str] = []
    snapshots = 0
    for trial in range(50):
        rng = random.Random(40_000 + trial)
        inst, config = random_instance(rng, max_requests=50, rh_choices=(2,))
        snaps: list[dict[int, tuple]] = []
        run(inst, config, iteration_hook=lambda t, states: snaps.append(
            {vid: tuple(st.committed) for vid, st in states.items()}))
        final = snaps[-1]
        for snap in snaps:
            snapshots += 1
            for vid, prefix in snap.items():
                if final[vid][: len(prefix)] != prefix:
                    bad.append(f"trial {trial}: vehicle {vid} rewrote "
                               "a committed stop")
    detail = f"50 runs, {snapshots} snapshots, {len(bad)} rewrites"
    if bad:
        detail += f"; first: {bad[0]}"
    announce("committed stops never rewritten", not bad, detail)


def test_single_window_run_matches_global_brute_force(announce):
    bad: list[str] = []
    for trial in range(30):
        rng = random.Random(50_000 + trial)
        inst, config = tiny_instance(rng)
        report = run(inst, config)
        served = sum(1 for r in report.records if r.served)
        vmt = report.summary.total_vmt
        want_served, want_vmt, _assign = global_best_service(
            inst.requests, {v.id: v.depot for v in inst.vehicles},
            inst.travel, config)
        if served != want_served:
            bad.append(f"trial {trial}: served {served}, brute force {want_served}")
        elif abs(vmt - want_vmt) > 1e-9:
            bad.append(f"trial {trial}: vmt {vmt!r} vs {want_vmt!r}")
    detail = f"30 single-window instances, {len(bad)} mismatches, tolerance 1e-9"
    if bad:
        detail += f"; first: {bad[0]}"
    announce("single window equals global brute force", not bad, detail)


def test_lookahead_beats_pure_online_on_the_corpus(announce):
    budget_s = 600.0
    t0 = time.perf_counter()
    rates = {0: [], 2: []}
    for seed in CORPUS_SEEDS:
        inst = make_instance(seed)
        for rh in (0, 2):
            report = run(inst, corpus_config(rh_factor=rh))
            rates[rh].append(report.summary.service_rate)
    mean0 = sum(rates[0]) / len(rates[0])
    mean2 = sum(rates[2]) / len(rates[2])
    gap_pp = (mean2 - mean0) * 100.0
    wall = time.perf_counter() - t0
    ok = mean2 >= mean0 and gap_pp >= 1.0 and wall < budget_s
    announce("look-ahead beats pure online on the corpus", ok,
             f"{len(CORPUS_SEEDS)} instances, mean service {mean0:.4f} online "
             f"vs {mean2:.4f} look-ahead, gap {gap_pp:.2f}pp (need >= 1.00), "
             f"{wall:.1f}s of {budget_s:.0f}s")


def test_adapted_benchmark_runs_at_full_service(announce):
    name = "adapted lc101 benchmark"
    path = Path(os.environ.get("ROLLHORIZON_LC101", "")
                or Path(__file__).parent / "data" / "lc101.txt")
    if not path.exists():
        announce(name, False,
                 "lc101.txt not found: place the published Li & Lim lc101 "
                 "instance at tests/data/lc101.txt or point ROLLHORIZON_LC101 "
                 "at it; this environment has no network route to fetch it "
                 "and the file cannot be reconstructed here")
    inst, config = _setup(str(path), "lilim", {"step_min": 5.0, "rh_factor": 1})
    setup_ok = (len(inst.requests) == 53 and config.step == 515
                and config.max_wait == 3090 and config.max_delay == 3090
                and config.dwell == 515)
    t0 = time.perf_counter()
    report = run(inst, config)
    wall = time.perf_counter() - t0
    rate = report.summary.service_rate
    vmt = report.summary.total_vmt
    lo, hi = 1127.0 * 0.8, 1127.0 * 1.2
    ok = setup_ok and rate == 1.0 and lo <= vmt <= hi and wall < 5.0
    announce(name, ok,
             f"{len(inst.requests)} pairs, step {config.step}s, service "
             f"{rate:.3f} (need 1.000), vmt {vmt:.1f} in [{lo:.1f}, {hi:.1f}], "
             f"{wall:.2f}s of 5s")


def test_same_seed_reruns_are_byte_identical(announce, tmp_path):
    cases = []
    for label, build in (
        ("random", lambda: random_instance(random.Random(77), max_requests=25,
                                           max_vehicles=4)),
        ("corpus", lambda: (make_instance(CORPUS_SEEDS[0]),
                            corpus_config(rh_factor=2))),
    ):
        blobs = []
        for arm in "ab":
            inst, config = build()
            out = tmp_path / f"{label}_{arm}.json"
            write_report(run(inst, config, seed=7), out)
            blobs.append(out.read_bytes())
        cases.append((label, blobs[0] == blobs[1]))
    detail = "; ".join(f"{label} {'identical' if same else 'DIFFERS'}"
                       for label, same in cases)
    announce("same-seed reruns byte-identical", all(s for _, s in cases), detail)
