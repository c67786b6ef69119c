"""rollhorizon benchmark: timed solves of seeded workloads, checked outputs.

One workload in this process:
    python3 bench/run.py --workload corpus-lookahead --seed 1 --seconds 30 --trace 0
prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1); the last stdout line is one JSON object. Every
workload, each in its own fresh process, untraced then traced:
    python3 bench/run.py --all
Canonical timing-free reports of every case, for diffing two commits:
    python3 bench/run.py --write-reports --workload random-mix --seed 1
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("corpus-online", "corpus-lookahead", "random-mix", "matrix-lookahead")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_p50_ms": "ms",
    "iter_p98_ms": "ms",
    "served": "requests",
    "vmt_per_served": "dist/request",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    **{f"routing.{k}_{f}": u for k in ("pair", "vehicle", "insertion")
       for f, u in (("calls", "count"), ("s", "s"), ("found_ratio", "ratio"))},
    "routing.schedule_calls": "count",
    "routing.schedule_s": "s",
    "travel.calls": "count",
    "rtv.s": "s",
    "rtv.self_s": "s",
    "rtv.trips": "count",
    "rtv.edges": "count",
    "assignment.s": "s",
    "assignment.nodes": "count",
    "assignment.max_nodes": "count",
    "assignment.unproven": "count",
    "window.s": "s",
    "window.batched": "count",
    "simulator.s": "s",
    "simulator.boarded": "count",
    "simulator.delivered": "count",
    "engine.iterations": "count",
    "engine.s": "s",
    "engine.self_s": "s",
}


def _load_solver():
    """Import the solver from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rollhorizon
    except ImportError as e:
        sys.exit(f"bench: cannot import rollhorizon from {src}: {e}")
    if not Path(rollhorizon.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: rollhorizon resolved outside {src}: {rollhorizon.__file__}")


def _percentile(sorted_xs, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q / 100 * len(sorted_xs)) - 1)]


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds a fresh process spends importing and building inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def setup_only(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    _load_solver()
    import workloads

    workloads.WORKLOADS[workload](seed)
    print(time.perf_counter() - t0)


class ProofWatch:
    """Wraps engine.solve_assignment to keep the proven_optimal flag the
    engine drops; one call per re-solve, so the cost is negligible."""

    def __init__(self, engine):
        self.engine = engine
        self.real = engine.solve_assignment
        self.unproven = 0

    def __enter__(self):
        def solve_assignment(*args, **kwargs):
            sol = self.real(*args, **kwargs)
            self.unproven += not sol.proven_optimal
            return sol

        self.engine.solve_assignment = solve_assignment
        return self

    def __exit__(self, *exc):
        self.engine.solve_assignment = self.real


def judge(case, report, unproven: int):
    """(failure reason or None, other problems) for one solved case.

    A case fails when an assignment solve ran out of budget unproven, or
    when its committed stops cannot be reached over the committed legs;
    both are program faults that repeat on every pass. Any other checker
    finding makes the run incorrect.
    """
    from check import check_report

    late, problems = check_report(case, report)
    reasons = []
    if unproven:
        reasons.append(f"{unproven} unproven assignment solves")
    if late:
        reasons.append(f"{len(late)} stops served before the committed legs arrive, "
                       f"first {late[0]}")
    reason = f"{case.name}: {'; '.join(reasons)}" if reasons else None
    return reason, [f"{case.name}: {p}" for p in problems]


def run_untraced(cases, seconds: float, setup_s: float):
    import rollhorizon.engine as engine

    # per case, one wall time and one tuple of re-solve times per pass
    times = [[] for _ in cases]
    iter_times = [[] for _ in cases]
    first, failed, problems = [], [], []
    passes = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        with ProofWatch(engine) as watch:
            for i, case in enumerate(cases):
                before = watch.unproven
                t0 = time.perf_counter()
                report = engine.run(case.instance, case.config)
                times[i].append(time.perf_counter() - t0)
                iter_times[i].append(report.iteration_times_s)
                reason, found = judge(case, report, watch.unproven - before)
                failed += [reason] if reason else []
                problems += found
                outcome = (report.records, report.routes, report.summary.total_vmt,
                           len(report.iteration_times_s))
                if not passes:
                    first.append(outcome)
                elif outcome != first[i]:
                    problems.append(f"{case.name}: report differs from the first pass")
        passes += 1

    # the fastest of the passes, per case and per re-solve: the work of every
    # pass is the same (checked above), and load from outside the process
    # only ever slows a pass, so the minimum is the least disturbed reading
    iters = sorted(min(col) for runs in iter_times for col in zip(*runs))
    served = sum(1 for records, *_rest in first for rec in records if rec.served)
    values = {
        "setup_s": setup_s,
        "solve_s": sum(min(t) for t in times),
        "iter_p50_ms": _percentile(iters, 50) * 1e3,
        "iter_p98_ms": _percentile(iters, 98) * 1e3,
        "served": served,
        "vmt_per_served": sum(vmt for _rec, _routes, vmt, _n in first) / served,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"passes {passes}, re-solves per pass {len(iters)}, solve_s per pass "
          f"{[round(sum(t), 4) for t in zip(*times)]}")
    return values, problems, passes, failed


def run_traced(cases, seconds: float, trace_path: Path):
    from check import CommitWatch, check_batches
    from layer_trace import Tracer

    first, per_pass, problems, failed = None, [], [], []
    started = time.perf_counter()
    while not per_pass or time.perf_counter() - started < seconds:
        tracer = Tracer()
        for case in cases:
            watch = CommitWatch()
            before = tracer.counts["assignment.unproven"]
            report = tracer.run(case, iteration_hook=watch)
            reason, found = judge(case, report, tracer.counts["assignment.unproven"] - before)
            failed += [reason] if reason else []
            problems += found + [f"{case.name}: {p}" for p in
                                 check_batches(case, tracer.batches) + watch.problems]
        per_pass.append(tracer.layer_metrics())
        first = first or tracer  # later passes keep only their metrics

    values = {}
    for key, value in per_pass[0].items():
        column = [m[key] for m in per_pass]
        if LAYER_UNITS[key] == "s":
            values[key] = min(column)  # fastest pass, as for solve_s
        else:
            values[key] = value
            if any(v != value for v in column):
                problems.append(f"counter {key} differs between passes: {column}")

    # every traced nanosecond belongs to exactly one span's self time, so
    # the self times must add up to the root spans, the traced solve time
    self_s = first.self_times()
    root_s = sum(t1 - t0 for _s, parent, _n, t0, t1 in first.spans if parent == 0) / 1e9
    if abs(sum(self_s.values()) - root_s) > 1e-6:
        problems.append(f"self times sum to {sum(self_s.values())} s, traced solve {root_s} s")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:  # one summary line, then one span per line
        fh.write(json.dumps({
            "passes": len(per_pass),
            "layer_metrics": values,
            "self_s": self_s,
            "self_sum_s": sum(self_s.values()),
            "traced_solve_s": root_s,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        }) + "\n")
        for span in first.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"passes {len(per_pass)}, spans per pass {len(first.spans)}, "
          f"trace of the first pass in {trace_path.relative_to(ROOT)}")
    print(f"self times of the first pass sum to {sum(self_s.values()):.6f} s; "
          f"traced solve {root_s:.6f} s")
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:<18} {secs:10.4f} s")
    return values, problems, len(per_pass), failed


def one_workload(args) -> None:
    _load_solver()
    import workloads

    cases = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.jsonl"
        values, problems, passes, failed = run_traced(cases, args.seconds, path)
        units = LAYER_UNITS
    else:
        setup_s = measure_setup(args.workload, args.seed)
        values, problems, passes, failed = run_untraced(cases, args.seconds, setup_s)
        units = END_TO_END_UNITS
    for reason in sorted(set(failed)):
        print(f"failed: {reason}")
    for p in problems[:20]:
        print(f"problem: {p}")
    for key, value in values.items():
        print(f"{args.workload:<17} {key:<30} {value:>16.6f} {units[key]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": passes * len(cases),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def write_reports(args) -> None:
    """Fresh timing-free JSON report for every case of the workload."""
    _load_solver()
    import workloads
    from rollhorizon import run, write_report

    target = OUT_DIR / "reports" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    cases = sorted(workloads.WORKLOADS[args.workload](args.seed), key=lambda c: c.name)
    for case in cases:
        write_report(run(case.instance, case.config), target / f"{case.name}.json",
                     include_timing=False)
    print(f"{len(cases)} reports in {target.relative_to(ROOT)}")


def run_all(args) -> None:
    """Each workload in a fresh process, untraced and then traced."""
    table = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"bench: {workload} --trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            table[(workload, trace)] = result
            for line in proc.stdout.splitlines()[:-1]:
                if not line.startswith(workload):  # metric lines are reprinted below
                    print(f"[{workload} trace={trace}] {line}")
    summary = {}
    for workload in WORKLOAD_NAMES:
        plain, traced = table[(workload, 0)], table[(workload, 1)]
        overhead = traced["metrics"]["engine.s"]["value"] - plain["metrics"]["solve_s"]["value"]
        summary[workload] = {"untraced": plain, "traced": traced, "trace_overhead_s": overhead}
        print(f"\n{workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, m in plain["metrics"].items():
            print(f"  {key:<28} {m['value']:>16.6f} {m['unit']}")
        for key, m in traced["metrics"].items():
            print(f"  {key:<28} {m['value']:>16.6f} {m['unit']}  (traced)")
        print(f"  {'trace overhead':<28} {overhead:>16.6f} s")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if not all(r["correct"] for r in table.values()):
        sys.exit("bench: some outputs failed their checks")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    mode.add_argument("--write-reports", action="store_true",
                      help="write each case's timing-free report under bench/out/reports")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all:
        run_all(args)
    elif args.workload is None:
        ap.error("--workload is required unless --all is given")
    elif args.setup_only:
        setup_only(args.workload, args.seed)
    elif args.write_reports:
        write_reports(args)
    else:
        one_workload(args)


if __name__ == "__main__":
    main()
