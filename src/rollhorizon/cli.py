"""Command-line front end: run experiments, sweeps, and report audits."""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import corpus as corpus_mod
from .assignment_ilp import AssignmentBudgetError, StrandedRequestError
from .engine import ConfigError, EngineError, run
from .instance_io import (
    Instance,
    ParseError,
    adapt_benchmark,
    load_csv_requests,
    load_lilim,
    load_report_dict,
    load_travel_tables,
    make_fleet,
    report_violations,
    scale_to_native_day,
    write_report,
)
from .model import Location, SolverConfig
from .simulator import SimulationError
from .travel import EuclideanTravel, TravelError

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_ASSIGNMENT_BUDGET = 4
EXIT_STRANDED = 5
EXIT_SIMULATION = 6

# how a command reports each failure: stderr prefix, then exit code
FAILURES = (
    (OSError, "error: cannot read instance: ", EXIT_PARSE),
    (ParseError, "error: ", EXIT_PARSE),
    (ConfigError, "config error: ", EXIT_CONFIG),
    (TravelError, "config error: ", EXIT_CONFIG),
    (EngineError, "error: ", EXIT_VIOLATIONS),
    (AssignmentBudgetError, "assignment error: ", EXIT_ASSIGNMENT_BUDGET),
    (StrandedRequestError, "assignment error: ", EXIT_STRANDED),
    (SimulationError, "simulation error: ", EXIT_SIMULATION),
)
FAILURE_TYPES = tuple(kind for kind, _, _ in FAILURES)

DEFAULT_FORMAT = "lilim"
DEFAULT_STEP_MIN = 15.0
DEFAULT_WAIT_MIN = 30.0
DEFAULT_DELAY_MIN = 30.0
DEFAULT_DWELL_MIN = 10.0
DEFAULT_CAPACITY = 8
DEFAULT_FLEET = 4

# the instance and config flags _setup reads, besides the fleet size and
# look-ahead factor that a sweep sets per run
SETUP_KEYS = (
    "capacity", "speed", "depot_x", "depot_y",
    "step_min", "max_wait_min", "max_delay_min", "dwell_min",
)

SWEEP_COLUMNS = [
    "instance", "fleet_size", "rh_factor", "status",
    "service_rate", "avg_delay_min", "vmt", "sec_per_request",
]


def _fail(e: Exception) -> int:
    """Print e under its FAILURES prefix and return its exit code."""
    prefix, code = next((p, c) for kind, p, c in FAILURES if isinstance(e, kind))
    print(f"{prefix}{e}", file=sys.stderr)
    return code


def _unwritable(out: str) -> bool:
    """Report an output path no file can take before a run, not after it."""
    path = Path(out)
    if path.is_dir():
        problem = "is a directory"
    elif not path.parent.is_dir():
        problem = f"no directory {path.parent}"
    else:
        return False
    print(f"error: cannot write {out}: {problem}", file=sys.stderr)
    return True


def _given(opt: dict, key: str, default):
    """opt[key] unless it was left unset; an explicit zero is kept."""
    value = opt.get(key)
    return default if value is None else value


def _flags(opt: dict, keys) -> list[str]:
    """The command-line spelling of each of keys that opt sets."""
    return [f"--{key.replace('_', '-')}" for key in keys if opt.get(key) is not None]


def _setup(path: str, fmt: str, opt: dict) -> tuple[Instance, SolverConfig]:
    """Load one instance and derive its fleet and solver settings from opt.

    A benchmark file ("lilim") brings its own fleet, speed, depot and
    service limits, and minute flags are quoted against the reference day;
    a csv request list takes them from opt or the defaults, in literal
    minutes. The config is not checked here: `run` rejects a bad one.
    """
    # NaN and infinity are no place and no number of seconds; the speed is
    # EuclideanTravel's to check
    endless = [key for key in SETUP_KEYS if key not in ("capacity", "speed")
               and opt.get(key) is not None and not math.isfinite(opt[key])]
    if endless:
        raise ConfigError(f"{', '.join(_flags(opt, endless))} must be finite")
    if fmt == "lilim":
        given = _flags(opt, ("speed", "depot_x", "depot_y"))
        if given:
            raise ConfigError(f"only --format csv takes {', '.join(given)}")
        inst = load_lilim(path, fleet_size=opt.get("fleet_size"))
        h = inst.native_horizon
        if h <= 0:
            raise ParseError(f"{inst.name}: benchmark file has no horizon")
        inst = adapt_benchmark(inst)
        defaults = inst.config_overrides
        # the file's fleet stands at its depot; it is empty only when the
        # fleet size is below 1, and then make_fleet places no vehicle
        depot = inst.vehicles[0].depot if inst.vehicles else None
        to_seconds = functools.partial(scale_to_native_day, h)
    elif fmt == "csv":
        if (opt.get("depot_x") is None) != (opt.get("depot_y") is None):
            raise ConfigError("--depot-x and --depot-y must be given together")
        inst = load_csv_requests(path, EuclideanTravel(_given(opt, "speed", 1.0)))
        if not inst.requests:
            raise ParseError(f"{path}: no requests")
        if opt.get("depot_x") is not None:
            depot = Location(opt["depot_x"], opt["depot_y"])
        else:
            n = len(inst.requests)
            depot = Location(
                sum(r.pickup.x for r in inst.requests) / n,
                sum(r.pickup.y for r in inst.requests) / n,
            )

        def to_seconds(minutes: float) -> int:
            return round(minutes * 60)

        defaults = dict(max_wait=to_seconds(DEFAULT_WAIT_MIN),
                        max_delay=to_seconds(DEFAULT_DELAY_MIN),
                        dwell=to_seconds(DEFAULT_DWELL_MIN),
                        fleet_size=DEFAULT_FLEET, capacity=DEFAULT_CAPACITY)
    else:
        raise ParseError(f"unknown instance format {fmt!r}")

    step = to_seconds(_given(opt, "step_min", DEFAULT_STEP_MIN))
    if step <= 0:
        horizon = 0
    elif fmt == "lilim":
        horizon = max(step, math.ceil(h / step) * step)
    else:
        latest = max(r.desired_pickup_time for r in inst.requests)
        horizon = (latest // step + 2) * step
    limits = {
        key: defaults[key] if opt.get(f"{key}_min") is None else to_seconds(opt[f"{key}_min"])
        for key in ("max_wait", "max_delay", "dwell")
    }
    fleet = _given(opt, "fleet_size", defaults["fleet_size"])
    capacity = _given(opt, "capacity", defaults["capacity"])
    config = SolverConfig(
        horizon=horizon,
        step=step,
        rh_factor=_given(opt, "rh_factor", 0),
        fleet_size=fleet,
        capacity=capacity,
        **limits,
    )
    return dataclasses.replace(inst, vehicles=make_fleet(fleet, capacity, depot)), config


def _summary_line(report) -> str:
    s = report.summary
    delay = f"{s.avg_delay_min:.2f}" if s.avg_delay_defined else "n/a"
    return (
        f"service_rate={s.service_rate:.4f} served={s.requests_served}/"
        f"{s.requests_total} avg_delay_min={delay} "
        f"avg_wait_min={s.avg_wait_min:.2f} vmt={s.total_vmt:.3f} "
        f"sec_per_request={s.compute_time_per_request_s:.4f}"
    )


def cmd_solve(args: argparse.Namespace) -> int:
    out = args.output or f"{Path(args.instance).stem}.report.{args.output_format}"
    if _unwritable(out):
        return EXIT_PARSE
    try:
        inst, config = _setup(args.instance, args.format or DEFAULT_FORMAT, vars(args))
        report = run(inst, config, seed=args.seed)
    except FAILURE_TYPES as e:
        return _fail(e)
    write_report(report, out, format=args.output_format, include_timing=args.timings)
    print(f"{_summary_line(report)} report={out}")
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ParseError(f"{flag} expects at least one value")
    return values


def _run_sweep_job(job: dict) -> dict:
    """One sweep cell; module-level so worker processes can import it."""
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(instance=job["name"], fleet_size=job["fleet"], rh_factor=job["rh"], status="ok")
    try:
        if job["kind"] == "corpus":
            inst = corpus_mod.make_instance(job["seed"], job["n_requests"], job["fleet"])
            config = corpus_mod.corpus_config(job["rh"], fleet_size=job["fleet"])
        else:
            opt = {**job["opt"], "fleet_size": job["fleet"], "rh_factor": job["rh"]}
            inst, config = _setup(job["path"], job["format"], opt)
        report = run(inst, config)
    except ConfigError as e:
        row["status"] = f"config error: {e}"
        return row
    except Exception as e:  # a failed cell must not sink the sweep
        row["status"] = f"{type(e).__name__}: {e}"
        return row
    s = report.summary
    row["service_rate"] = f"{s.service_rate:.4f}"
    row["avg_delay_min"] = f"{s.avg_delay_min:.3f}" if s.avg_delay_defined else ""
    row["vmt"] = f"{s.total_vmt:.3f}"
    if job["timings"]:
        row["sec_per_request"] = f"{s.compute_time_per_request_s:.6f}"
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        fleets = _parse_int_list(args.fleet_sizes, "--fleet-sizes")
        rhs = _parse_int_list(args.rh_factors, "--rh-factors")
        if args.corpus is None and args.instance is None:
            raise ParseError("sweep needs --instance or --corpus")
        if args.corpus is not None:
            # the corpus brings its own instances and settings
            given = _flags(vars(args), ("format", *SETUP_KEYS))
            if given:
                raise ConfigError(f"--corpus takes no {', '.join(given)}")
            n = args.corpus
            if n < 1 or n > len(corpus_mod.CORPUS_SEEDS):
                raise ParseError(f"--corpus must be 1..{len(corpus_mod.CORPUS_SEEDS)}")
            n_requests = _given(vars(args), "corpus_requests", corpus_mod.N_REQUESTS)
            sources = [{"kind": "corpus", "name": f"corpus-{seed}", "seed": seed,
                        "n_requests": n_requests} for seed in corpus_mod.CORPUS_SEEDS[:n]]
        else:
            if args.corpus_requests is not None:
                raise ConfigError("only --corpus takes --corpus-requests")
            source = {"kind": "file", "name": Path(args.instance).stem, "path": args.instance,
                      "format": args.format or DEFAULT_FORMAT,
                      "opt": {k: getattr(args, k) for k in SETUP_KEYS}}
            # a file or flag that no cell could run fails once, before any cell
            _setup(source["path"], source["format"], source["opt"])
            sources = [source]
        jobs = [{**source, "fleet": fleet, "rh": rh, "timings": args.timings}
                for source in sources for fleet in fleets for rh in rhs]
    except FAILURE_TYPES as e:
        return _fail(e)
    out = args.output or "sweep.csv"
    if _unwritable(out):
        return EXIT_PARSE

    workers = 1
    env = os.environ.get("ROLLHORIZON_THREADS", "").strip()
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            print(f"warning: ignoring ROLLHORIZON_THREADS={env!r}", file=sys.stderr)
    if workers > 1 and len(jobs) > 1:
        # a fork pool starts every worker up front, so never more than runs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_run_sweep_job, jobs))
    else:
        rows = [_run_sweep_job(job) for job in jobs]
    rows.sort(key=lambda r: (r["instance"], r["fleet_size"], r["rh_factor"]))

    with open(out, "w", newline="") as fh:
        w = _csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} runs, {failures} failed, wrote {out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = load_report_dict(args.report)
    except OSError as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        tables = load_travel_tables(args.instance) if args.instance else None
    except (OSError, ParseError) as e:
        return _fail(e)
    problems = report_violations(doc, tables)
    for p in problems:
        print(f"violation: {p}")
    if problems:
        print(f"{len(problems)} violation(s)")
        return EXIT_VIOLATIONS
    print("report ok")
    return EXIT_OK


def cmd_adapt(args: argparse.Namespace) -> int:
    if args.output and _unwritable(args.output):
        return EXIT_PARSE
    try:
        inst, config = _setup(args.instance, "lilim", {"fleet_size": args.fleet_size})
    except FAILURE_TYPES as e:
        return _fail(e)
    doc = {
        "instance": inst.name,
        "native_horizon_s": inst.native_horizon,
        "max_wait_s": config.max_wait,
        "max_delay_s": config.max_delay,
        "dwell_s": config.dwell,
        "fleet_size": config.fleet_size,
        "capacity": config.capacity,
        "requests": len(inst.requests),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    print(text, end="")
    return EXIT_OK


def _add_setup_flags(p: argparse.ArgumentParser) -> None:
    """The instance and config flags that _setup reads, and --timings."""
    p.add_argument("--format", choices=["lilim", "csv"], default=None,
                   help=f"instance file format (default {DEFAULT_FORMAT})")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--speed", type=float, default=None,
                   help="csv format: travel speed, distance units per minute")
    p.add_argument("--depot-x", type=float, default=None,
                   help="csv format: depot x (default: pickup centroid)")
    p.add_argument("--depot-y", type=float, default=None)
    p.add_argument("--step-min", type=float, default=None,
                   help=f"iteration step in minutes (default {DEFAULT_STEP_MIN:g}; "
                        "scaled to the native day for lilim instances)")
    p.add_argument("--max-wait-min", type=float, default=None)
    p.add_argument("--max-delay-min", type=float, default=None)
    p.add_argument("--dwell-min", type=float, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timing in outputs "
                        "(off by default so reruns are byte-identical)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rollhorizon",
        description="Rolling-horizon pickup-and-delivery fleet solver",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one instance and write a report")
    ps.add_argument("--instance", required=True, help="instance file path")
    ps.add_argument("--fleet-size", type=int, default=None)
    ps.add_argument("--rh-factor", type=int, default=0,
                    help="look-ahead overlap factor (0 = pure online)")
    ps.add_argument("--seed", type=int, default=None,
                    help="echoed into the report for provenance")
    _add_setup_flags(ps)
    ps.add_argument("--output", default=None, help="report path")
    ps.add_argument("--output-format", choices=["json", "csv"], default="json")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="run a fleet x look-ahead grid, emit CSV")
    target = pw.add_mutually_exclusive_group()
    target.add_argument("--instance", default=None, help="instance file path")
    target.add_argument("--corpus", type=int, default=None, metavar="N",
                        help="sweep the first N bundled seeded instances, "
                             "which take no instance or config flag")
    _add_setup_flags(pw)
    pw.add_argument("--fleet-sizes", default=str(DEFAULT_FLEET),
                    help="comma-separated fleet sizes")
    pw.add_argument("--rh-factors", default="0",
                    help="comma-separated look-ahead factors")
    pw.add_argument("--corpus-requests", type=int, default=None,
                    help=f"requests per corpus instance (default {corpus_mod.N_REQUESTS})")
    pw.add_argument("--output", default=None, help="CSV path (default sweep.csv)")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate", help="audit a report against all constraints")
    pv.add_argument("--report", required=True, help="report JSON path")
    pv.add_argument("--instance", default=None,
                    help="JSON travel tables (times, distances) of a matrix report's "
                         "instance, to re-time its legs")
    pv.set_defaults(func=cmd_validate)

    pa = sub.add_parser("adapt", help="show derived settings for a benchmark file")
    pa.add_argument("--instance", required=True)
    pa.add_argument("--fleet-size", type=int, default=None)
    pa.add_argument("--output", default=None, help="also write the JSON here")
    pa.set_defaults(func=cmd_adapt)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
